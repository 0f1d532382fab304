"""The committed benchmark records keep one layout: every BENCH_*.json at
the repository root holds a run of each workload at --trace 0 and 1, seed
1 and 30 s, all correct with no failed op, the end-to-end metrics
BENCHMARK.json declares, and mults/adds for the recorded blocklengths."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = {m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
WORKLOADS = {"sweep", "stream", "reload"}
COUNTED_N = {12, 32, 60, 64, 128}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_layout(path):
    record = json.loads(path.read_text())
    assert set(record["runs"]) == WORKLOADS
    for workload, runs in record["runs"].items():
        assert set(runs) == {"trace0", "trace1"}, workload
        for trace, run in runs.items():
            where = (workload, trace)
            env, result = run["env"], run["result"]
            assert env["workload"] == workload, where
            assert env["trace"] == int(trace[-1]), where
            assert (env["seed"], env["seconds"]) == (1, 30), where
            assert result["correct"] is True, where
            assert result["failed"] == 0, where
            if trace == "trace0":
                assert set(result["metrics"]) == END_TO_END, where
    assert {int(n) for n in record["counts"]} >= COUNTED_N
    for n, counts in record["counts"].items():
        assert set(counts) == {"mults", "adds"}, n
