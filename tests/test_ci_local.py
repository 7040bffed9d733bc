"""The local CI runner's line reader reads the workflow's steps as PyYAML
does, and every step it skips is in the workflow."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "ci_local", ROOT / "tools" / "ci_local.py")
ci_local = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ci_local)

TEXT = ci_local.WORKFLOW.read_text(encoding="utf-8")


def read_steps_yaml(text):
    """The reference: (name, run) of each step of each job, read by PyYAML."""
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(text)
    return [(step.get("name") or step.get("uses"), step.get("run"))
            for job in doc["jobs"].values() for step in job["steps"]]


def test_the_line_reader_reads_the_steps_pyyaml_reads():
    assert ci_local.read_steps(TEXT) == read_steps_yaml(TEXT)


def test_the_line_reader_finds_each_named_step_and_its_script():
    steps = ci_local.read_steps(TEXT)
    names = [name for name, _ in steps]
    assert names.count("Tier-1 tests") == 1
    assert set(ci_local.NEEDS_NETWORK) <= set(names)
    scripts = dict(steps)
    assert scripts["actions/checkout@v4"] is None
    assert scripts["Install test tools"] == (
        "python -m pip install pytest hypothesis")
    sink = scripts["Complement through a sink"]
    assert sink.startswith("export PYTHONPATH=src\n") and sink.endswith("EOF\n")
    assert "\n682826db28da9a865340e1eeade04737d48b52a488b97fe7d0ba9e2bedda370f  C.json\n" in sink
