"""Documents sized to be read: byte budgets for README.md and CHANGES.md.

README.md may not grow past its size when the budget was set; a change
that adds a paragraph trims another.  Every CHANGES.md entry (one line,
``PR <n> ...``) from PR 12 on stays within 1.5 KiB: what a change did and
what it measured, not its working notes.  A deleted mechanism stays
deleted: README.md, ``examples/`` and ``src/`` do not name it.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README_BUDGET = 37_690
ENTRY_BUDGET = 1_536
FIRST_BUDGETED_PR = 12
#: Names of deleted mechanisms: the shard planners and their partition
#: check; the queue-depth autoscaler, live pool resizing and the worker
#: start-method override; the backend's full-domain transition matrices;
#: the PRISM backend facade, its DTMC engine and the Bayonet-style
#: baseline (test oracles now) and the dict wrapper of the float solver;
#: worker fault injection, respawn, shard retries and the watchdog; the
#: second benchmark harness's knobs, helpers, regression script and timer
#: plugin; the native backend facade, the backend-name registry and the
#: CLI's engine flag (engines are passed as instances); span sampling and
#: the JSONL span exporter; the pool's affinity routing and work stealing.
DELETED_NAMES = (
    "ShardPlanner",
    "get_planner",
    "validate_partition",
    "--planner",
    "planner=",
    "round-robin",
    "PoolAutoscaler",
    "resize_pool",
    "--autoscale-max",
    "--autoscale-target",
    "autoscale_",
    "REPRO_POOL_START_METHOD",
    "transition_matrix",
    "PrismBackend",
    "MiniDtmc",
    "ExactInferenceBaseline",
    "repro.baselines",
    "solve_absorption(",
    "REPRO_FAULTS",
    "FaultPlan",
    "fault_injection",
    "repro-respawn",
    "RESTARTING",
    "shard_timeout",
    "--shard-timeout",
    "max_attempts",
    "--shard-attempts",
    "retried_shards",
    "recovery_extra_ms",
    "TransportTimeout",
    "carry_timings",
    "REPRO_SCALE",
    "REPRO_COLD",
    "BENCH_OUTPUT_DIR",
    "check_regression",
    "bench_utils",
    "pytest-benchmark",
    "NativeBackend",
    "get_backend",
    "resolve_backend",
    "BACKENDS",
    "--backend",
    "export_jsonl",
    "--trace-sample",
    "trace_sample",
    "affinity",
    "steals",
)
#: What reading a clock looks like in a figure test.
CLOCKS = ("perf_counter", "time.time(", "monotonic", "process_time", "benchmark.pedantic")


def test_readme_within_budget():
    size = (ROOT / "README.md").stat().st_size
    assert size <= README_BUDGET, f"README.md is {size} B, budget {README_BUDGET} B"


def test_changes_entries_within_budget():
    entries = [
        (int(match.group(1)), len(line.encode()))
        for line in (ROOT / "CHANGES.md").read_text(encoding="utf-8").splitlines()
        if (match := re.match(r"PR (\d+)\b", line))
    ]
    budgeted = [(pr, size) for pr, size in entries if pr >= FIRST_BUDGETED_PR]
    assert budgeted, "no CHANGES.md entries from PR 12 on"
    over = [(pr, size) for pr, size in budgeted if size > ENTRY_BUDGET]
    assert not over, f"entries over {ENTRY_BUDGET} B (PR, bytes): {over}"


def test_deleted_names_stay_deleted():
    files = [ROOT / "README.md"]
    for folder in ("examples", "src"):
        files += sorted((ROOT / folder).rglob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in files
        for name in DELETED_NAMES
        if name in path.read_text(encoding="utf-8")
    ]
    assert not found, f"deleted names still mentioned: {found}"


def test_figure_tests_read_no_clock():
    """The figure modules assert answers, shapes and counts; seconds are ``bench/``'s."""
    modules = sorted((ROOT / "benchmarks").glob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(ROOT)}: {clock}"
        for path in modules
        for clock in CLOCKS
        if clock in path.read_text(encoding="utf-8")
    ]
    assert not found, f"figure tests read a clock: {found}"
