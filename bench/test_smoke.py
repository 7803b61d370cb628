"""``python -m pytest bench -q``: the benchmark's own contract, on the smoke sizes.

Checks BENCHMARK.json against the limits the driver enforces, then runs the
whole suite in ``--smoke`` mode (untraced and traced) and checks that every
workload prints every declared metric, that answers were checked and none
failed, and that the harness catches a corrupted oracle.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]
    ]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"])


def test_smoke_suite_prints_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    subprocess.run(
        [sys.executable, RUN, "--smoke", "--trace", "--seed", "7", "--out", str(out)],
        check=True, timeout=300,
    )
    record = json.loads(out.read_text())
    assert {"nproc", "python", "numpy", "scipy"} <= set(record["env"])
    assert list(record["runs"]) == [workload["name"] for workload in SPEC["workloads"]]
    for runs in record["runs"].values():
        for section in ("end_to_end", "per_layer"):
            declared, result = SPEC[section], runs[0][section]
            assert set(result) == {"correct", "attempted", "failed", "metrics", "exit"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert list(result["metrics"]) == [metric["name"] for metric in declared]
            for metric in declared:
                entry = result["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float))
                if section == "end_to_end":
                    assert entry["value"] > 0
        assert runs[0]["per_layer"]["metrics"]["residual_share"]["value"] <= 0.15


def test_selftest_catches_a_corrupted_oracle():
    assert subprocess.run([sys.executable, RUN, "--selftest"], timeout=120).returncode == 0
