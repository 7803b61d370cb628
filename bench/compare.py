"""Compare two suite result files using only the bounds in BENCHMARK.json.

One row per (workload, metric): both medians, the ratio B/A (base: A), and
``same`` / ``worse`` / ``better`` / ``unresolved``.  A metric whose own
run-to-run spread (interquartile range over median, when a side has at
least four runs) is wider than its bound is ``unresolved``, never ``same``.
Counts named in ``DETERMINISTIC`` must repeat exactly across every run of
both files; one that does not is listed and may not carry a later claim.
"""

from __future__ import annotations

import json
import statistics

#: Counts that the same seed must reproduce exactly.  ``attempted`` is not
#: among them: runs measure for a fixed time, so repetitions vary.
DETERMINISTIC = (
    "fdd.nodes", "fdd.stage_count", "fdd_matrix.n", "fdd_matrix.nnz", "fdd_matrix.rows",
    "markov.factorizations", "markov.schur_updates", "pool.shards",
)


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def samples(record: dict, workload: str, section: str, metric: str) -> list[float]:
    return [
        run[section]["metrics"][metric]["value"]
        for run in record["runs"].get(workload, [])
        if section in run and metric in run[section]["metrics"]
    ]


def spread(values: list[float]) -> float | None:
    """Interquartile range over median; unknown below four samples."""
    if len(values) < 4:
        return None
    first, _median, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(metric: dict, base: list[float], other: list[float]) -> str:
    bound = metric["bound"]
    if any((spread(values) or 0.0) > bound for values in (base, other)):
        return "unresolved"
    change = statistics.median(other) / statistics.median(base) - 1.0
    if metric["better"] == "higher":
        change = -change
    return "worse" if change > bound else "better" if change < -bound else "same"


def failed_operations(record: dict) -> int:
    return sum(
        part["failed"] for runs in record["runs"].values() for run in runs for part in run.values()
    )


def compare_records(spec: dict, base: dict, other: dict) -> int:
    status = 0
    print(
        f"{'workload':20s} {'metric':32s} {'A median':>12s} {'B median':>12s} {'B/A':>7s}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                a = samples(base, workload, section, metric["name"])
                b = samples(other, workload, section, metric["name"])
                if not a or not b or not (any(a) or any(b)):
                    continue  # not measured, or a layer this workload never enters
                median_a, median_b = statistics.median(a), statistics.median(b)
                ratio = f"{median_b / median_a:7.3f}" if median_a else "      -"
                word = verdict(metric, a, b) if "bound" in metric else "-"
                status |= word == "worse"
                print(
                    f"{workload:20s} {metric['name']:32s} {median_a:12.5g} {median_b:12.5g} "
                    f"{ratio}  {word}"
                )
    unstable = sorted(
        f"{workload}:{name}"
        for workload in base["runs"]
        for name in DETERMINISTIC
        if len(set(samples(base, workload, "per_layer", name)
                   + samples(other, workload, "per_layer", name))) > 1
    )
    if base.get("seed") == other.get("seed"):
        print("non-deterministic counts:", ", ".join(unstable) or "none")
    failed_a, failed_b = failed_operations(base), failed_operations(other)
    print(f"failed operations: A {failed_a}, B {failed_b}")
    return int(status or failed_b > failed_a)


def compare_files(spec: dict, path_a: str, path_b: str) -> int:
    return compare_records(spec, load(path_a), load(path_b))
