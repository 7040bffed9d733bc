"""The README's library tour runs as written, and each value its comments
state is the value the line computes."""

import ast
import re
from fractions import Fraction
from pathlib import Path

from fsmkit.automata import Recurrence
from fsmkit.symbols import word

README = Path(__file__).parents[1] / "README.md"


def _tour_values():
    """Run the tour's code block statement by statement; the value of each
    expression statement, by its source text."""
    readme = README.read_text("utf-8")
    section = readme[readme.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace, values = {}, {}
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            values[ast.get_source_segment(code, node)] = eval(
                compile(ast.Expression(node.value), "README.md", "eval"),
                namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
    return values


def test_library_tour_computes_what_its_comments_state():
    values = _tour_values()
    assert values["naf.transduce(digits.binary_digits(14))"] == word(
        [0, -1, 0, 0, 1])
    assert values["digits.naf_of(14).digit_string()"] == "(1001̄0)_2"
    assert values["digits.three_half_naf_of(14).value()"] == 14
    assert values["automata.count_words(acceptor, 12)"] == 5461
    assert values["automata.word_count_recurrence(acceptor)"] == Recurrence(
        (1, 2), (1, 3))
    assert values["analysis.expected_density(W)"] == Fraction(5, 9)
    moments = values["analysis.asymptotic_moments(W)"]
    assert (moments.expectation, moments.variance, moments.covariance) == (
        Fraction(5, 9), Fraction(44, 243), 0)
    assert len(values) == 7
