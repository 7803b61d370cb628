#!/usr/bin/env python3
"""The benchmark of record (see bench/README.md).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload in this process; the last line printed is the JSON
        result the driver reads (BENCHMARK.json is the contract)
    python3 bench/run.py [--seed N] [--trace] [--runs K]
        every workload, each in its own subprocess; prints every metric by
        name with its unit and writes bench/out/results-*.json
    python3 bench/run.py --repeat 2        suite twice, compared, counts checked
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --selftest        the harness must catch a wrong oracle
    ... --smoke                            k=4 everywhere, 1 s phases
"""

import time

PROCESS_START = time.perf_counter()  # before any heavy import: setup_s starts here

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from compare import compare_files, compare_records, failed_operations  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

#: Workload name (as fixed in BENCHMARK.json) -> module with ``measure`` and ``trace``.
WORKLOADS = {
    "fattree-sweep-cold": "w_fattree",
    "f10-batch-serial": "w_f10batch",
    "stream-steady": "w_stream",
    "f10-verdicts-exact": "w_verdicts",
}
SMOKE_SECONDS = 1


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- one workload, in this process (the driver's contract) ---------------------------

def run_workload(args, spec: dict) -> int:
    module = importlib.import_module(WORKLOADS[args.workload])  # imports repro: part of setup_s
    from harness import Context, peak_rss_mb, percentile, quiet_octile

    import_s = time.perf_counter() - PROCESS_START
    if args.import_only:
        print(import_s)
        return 0
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        corrupt=args.corrupt,
    )
    ctx.import_samples = [import_s]
    if ctx.trace:
        layers = module.trace(ctx)
        layers.update(ctx.counts)
        ctx.rec.write_chrome_trace(os.path.join(OUT, f"trace-{args.workload}.json"))
        # A layer this workload never enters did no work: 0, by the contract
        # that every run prints every per-layer metric (README, "zeros").
        values = {m["name"]: float(layers.get(m["name"], 0.0)) for m in spec["per_layer"]}
        unknown = set(layers) - set(values)
        if unknown:
            raise SystemExit(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
        ctx.check(values["residual_share"] <= 0.15)
        notes = {}
        declared = spec["per_layer"]
    else:
        measured = module.measure(ctx)
        peak = peak_rss_mb()
        # This process imported once; further cold imports are timed in
        # children (after the peak was read: they are not the workload's),
        # so setup_s has several samples even where a workload has no other set-up.
        probe = [
            sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--import-only",
        ]
        ctx.import_samples += [
            float(subprocess.run(probe, capture_output=True, text=True, check=True).stdout)
            for _ in range(ctx.setup_reps - 1)
        ]
        if measured.rates:
            # A request stream: its unit is an all-pairs sweep at the measured rate.
            rate = quiet_octile(measured.rates, fast="high")
            verdict = measured.answers_per_unit / rate
            windows = measured.windows
            samples = f"fast octile of {len(windows)} windows, {sum(map(len, windows))} requests"
            notes = {
                "verdict_s": "answers per sweep / queries_per_s",
                "queries_per_s": f"fast octile of {len(measured.rates)} chunks of replies",
            }
        else:
            # Without a request stream, throughput and latency are the unit's.
            verdict = measured.unit_seconds()
            rate = measured.answers_per_unit / verdict
            windows = [[verdict * 1e3]]
            samples = "the unit"
            notes = {
                "verdict_s": f"fastest of {len(measured.units)} units, by part "
                f"({len(measured.units[0])} per unit)",
                "queries_per_s": "answers per unit / verdict_s",
            }
        values = {
            "verdict_s": verdict,
            "queries_per_s": rate,
            "latency_p50_ms": quiet_octile([statistics.median(w) for w in windows]),
            "latency_p99_ms": quiet_octile([percentile(w, 99) for w in windows]),
            "setup_s": ctx.setup_s(),
            "peak_rss_mb": peak,
        }
        notes.update({
            "latency_p50_ms": samples,
            "latency_p99_ms": samples,
            "setup_s": f"fastest of {len(ctx.import_samples)} imports + fastest of "
            f"{len(ctx.setup_samples)} set-ups",
        })
        declared = spec["end_to_end"]
    for metric in declared:
        name = metric["name"]
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"{args.workload:20s} {name:32s} {values[name]:14.6g} {metric['unit']}{note}")
    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if ctx.failed == 0 else 1


# -- the whole suite, one subprocess per workload --------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_child(name: str, args, trace: int) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    command += ["--smoke"] if args.smoke else []
    command += ["--corrupt"] if args.corrupt else []
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{name}: no result (exit {done.returncode})\n{done.stderr[-2000:]}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def run_suite(args, order: list[str], label: str) -> dict:
    """Run ``order`` ``--runs`` times; write the record to a file and return it."""
    record = {
        "env": environment(), "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "runs": {name: [] for name in order},
    }
    for _ in range(args.runs):
        for name in order:
            run = {"end_to_end": run_child(name, args, 0)}
            if args.trace:
                run["per_layer"] = run_child(name, args, 1)
            record["runs"][name].append(run)
    os.makedirs(OUT, exist_ok=True)
    path = args.out or os.path.join(OUT, f"results-seed{args.seed}{label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(f"wrote {os.path.relpath(path)}; failed operations: {failed_operations(record)}")
    return record


def selftest(args) -> int:
    """Feed one corrupted expected value; the run must report it and exit non-zero."""
    args.smoke, args.corrupt, args.seconds = True, True, SMOKE_SECONDS
    result = run_child("f10-verdicts-exact", args, 0)
    caught = result["failed"] > 0 and not result["correct"] and result["exit"] != 0
    print("selftest:", "corrupted oracle was caught" if caught else "NOT caught", result)
    return 0 if caught else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=1, help="samples per workload per suite")
    parser.add_argument("--repeat", type=int, default=1, help="suites to run and compare")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--out", help="suite result file (default bench/out/results-*.json)")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--import-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        parser.error(f"the program under test is missing: no {SRC}/repro")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.compare:
        return compare_files(spec, *args.compare)
    if args.selftest:
        return selftest(args)
    if args.workload:
        return run_workload(args, spec)
    if args.out and args.repeat > 1:
        parser.error("--out names one file; --repeat writes one per suite")
    names = [w["name"] for w in spec["workloads"]]
    # The determinism check of --repeat compares counts, which only traced runs print.
    args.trace = args.trace or args.repeat > 1
    records = []
    for index in range(args.repeat):
        # Alternate the order so a drift in the box does not favour one side.
        order = names if index % 2 == 0 else names[::-1]
        label = f"-{index + 1}" if args.repeat > 1 else ""
        records.append(run_suite(args, order, label))
    status = int(any(failed_operations(record) for record in records))
    if args.repeat > 1:
        status |= compare_records(spec, records[0], records[1])
    return status


if __name__ == "__main__":
    sys.exit(main())
