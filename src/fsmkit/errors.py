"""Exception hierarchy shared by the whole toolkit, and `shown`, the text
of a value in an error message."""

import sys


def shown(x) -> str:
    """repr(x) for an error message.  An int too long to write as text
    (past sys.get_int_max_str_digits()), alone or inside x, is described
    instead, so writing the message cannot fail."""
    try:
        return repr(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        held = "" if isinstance(x, int) else f"a {type(x).__name__} holding "
        return f"{held}an int of more than {limit} decimal digits"


class FsmError(Exception):
    """Base class of every error raised by fsmkit."""


class ConstructionError(FsmError):
    """A machine, symbol or word cannot be assembled as requested."""


class MachineError(FsmError):
    """An operation was applied to a machine that does not satisfy its
    preconditions (nondeterminism, alphabet mismatch, wrong kind, ...)."""


class InvalidInputError(FsmError):
    """A run that was required to accept did not."""


class StateCapError(ConstructionError):
    """An exploration exceeded the state cap, or the cap is not a positive
    integer."""


class AnalysisError(FsmError):
    """An exact analysis cannot be carried out on this machine."""


class NegativeCycleError(AnalysisError):
    """Shortest-path search found a negative cycle; `cycle` is a witness."""

    def __init__(self, cycle):
        super().__init__("negative cycle: " + " -> ".join(str(v) for v in cycle))
        self.cycle = list(cycle)
