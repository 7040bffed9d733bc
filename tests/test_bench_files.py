"""Every committed benchmark result at the repo root (`BENCH_*.json`, from
`python perfbench/run.py --all --out FILE`) covers each workload and each
end-to-end metric that BENCHMARK.json declares, and reads `correct: true`
for each workload."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_result_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_result_file_covers_the_declared_benchmark(path):
    workloads = json.loads(path.read_text(encoding="utf-8"))["workloads"]
    for workload in DECLARED["workloads"]:
        entry = workloads[workload["name"]]
        assert entry["correct"] is True, workload["name"]
        for metric in DECLARED["end_to_end"]:
            measured = entry["metrics"][metric["name"]]
            assert measured["unit"] == metric["unit"]
            assert measured["n"] >= 1 and len(measured["values"]) == measured["n"]
