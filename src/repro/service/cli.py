"""Command-line front end of the analysis service.

``python -m repro.service`` loads a topology and a routing scheme,
builds one network model per requested destination, opens an
:class:`~repro.service.session.AnalysisSession` over them, and serves a
batch query file — the same entry point ``bench/`` and the examples
drive, so measured serving numbers reflect what a user would see.

Batch files are JSON: either a bare list of queries or an object with a
``"queries"`` list, each query shaped like::

    {"kind": "delivery", "ingress": [sw, pt], "dest": 1}

(``kind`` defaults to ``"delivery"``; kinds: ``delivery``,
``distribution``, ``hops``).  Alternatively ``--all-pairs`` generates
the full (ingress × destination) delivery batch for the given
destinations.

Example::

    python -m repro.service --topology fattree:4 --scheme ecmp \\
        --dest 1 --dest 2 --all-pairs \\
        --workers 4 --pool-mode process --pool-size 4 --output results.json

``python -m repro.service serve ...`` instead starts the asyncio
streaming front end (:mod:`repro.service.server`): newline-delimited
JSON queries over TCP, coalesced across concurrent clients by an
admission window — see ``serve --help`` and the README's "Serving
streams" section.  Replicas are hosted in this process (``--pool-mode
thread``) or in local worker processes (``--pool-mode process``).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from repro.network.model import NetworkModel
from repro.service.results import Query
from repro.service.session import AnalysisSession


def _add_session_arguments(parser: argparse.ArgumentParser) -> None:
    """Topology/scheme/session flags shared by batch and serve modes."""
    parser.add_argument(
        "--topology",
        default="fattree:4",
        help="topology spec: fattree:P or abfattree:P (default fattree:4)",
    )
    parser.add_argument(
        "--scheme",
        default="ecmp",
        choices=("ecmp", "f10_0", "f10_3", "f10_3_5"),
        help="routing scheme (default ecmp)",
    )
    parser.add_argument(
        "--dest",
        type=int,
        action="append",
        default=None,
        help="destination switch (repeatable; default: the queries' dests, "
        "or switch 1 with --all-pairs)",
    )
    parser.add_argument(
        "--failure-prob",
        type=float,
        default=None,
        help="per-link failure probability (default: none for ecmp, 1/1000 "
        "for f10 schemes)",
    )
    parser.add_argument(
        "--max-failures",
        type=int,
        default=None,
        help="bound k on concurrent failures (f10 schemes only; default unbounded)",
    )
    parser.add_argument(
        "--count-hops",
        action="store_true",
        help="build models with a hop counter (required by 'hops' queries)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="executor threads: concurrent batches, and destinations "
        "solved at once with several replicas (default: CPU count, capped)",
    )
    parser.add_argument(
        "--pool-size",
        type=int,
        default=None,
        help="independent backend replicas; each destination of a batch "
        "leases one, so N>1 (process mode) enables parallel solves (default 1)",
    )
    parser.add_argument(
        "--pool-mode",
        default="thread",
        choices=("thread", "process"),
        help="replica hosting: 'thread' serves from the one backend in this "
        "process; 'process' gives every replica its own worker process fed "
        "by spec shipping, parallelising plan rebuild + matrix assembly + "
        "solve end-to-end (default thread)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="enable span tracing and write the collected trace to FILE on "
        "exit as Chrome trace JSON (open in Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the session's metrics in Prometheus text exposition "
        "format on exit (counters, histograms, per-phase gauges)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve a batch of network-analysis queries from one "
        "persistent session.",
    )
    _add_session_arguments(parser)
    parser.add_argument(
        "--queries",
        help="JSON batch file ({'queries': [...]} or a bare list)",
    )
    parser.add_argument(
        "--all-pairs",
        action="store_true",
        help="generate delivery queries for every (ingress, dest) pair",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="serve the batch N times (repeats exercise the result cache)",
    )
    parser.add_argument("--output", help="write the ResultSet JSON to this path")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service serve",
        description="Run the asyncio streaming front end: newline-delimited "
        "JSON queries over TCP, coalesced across clients by an admission "
        "window into one persistent session.",
    )
    _add_session_arguments(parser)
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default 0: pick a free port and print it)",
    )
    parser.add_argument(
        "--window-ms",
        type=float,
        default=4.0,
        help="admission window in milliseconds; queries arriving within one "
        "window coalesce into one batch (0 disables coalescing; default 4)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="dispatch a window early once it holds this many queries",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="bound on outstanding queries before admissions are refused "
        "with a retryable 'overloaded' error (backpressure)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-query deadline in milliseconds (queries may carry "
        "their own 'deadline_ms'; default: none)",
    )
    parser.add_argument(
        "--max-line-kib",
        type=int,
        default=1024,
        help="bound on one request line in KiB (default 1024); longer "
        "lines get a non-retryable 'too-large' error instead of a "
        "dropped connection",
    )
    parser.add_argument(
        "--warm",
        action="store_true",
        help="pre-solve each --dest before accepting connections",
    )
    return parser


def load_topology(spec: str):
    """Build a topology from a ``kind:param`` spec."""
    kind, _, arg = spec.partition(":")
    try:
        size = int(arg) if arg else 4
    except ValueError:
        raise SystemExit(f"invalid topology parameter in {spec!r}") from None
    if kind == "fattree":
        from repro.topology import fat_tree

        return fat_tree(size)
    if kind == "abfattree":
        from repro.topology import ab_fat_tree

        return ab_fat_tree(size)
    raise SystemExit(f"unknown topology {kind!r}; use fattree:P or abfattree:P")


def model_factory(
    topology, args: argparse.Namespace
) -> Callable[[int], NetworkModel]:
    """The per-destination model builder for the chosen scheme."""
    if args.scheme == "ecmp":
        from repro.failure.models import independent_failure_program
        from repro.network.model import build_model
        from repro.routing import downward_failable_ports, ecmp_policy

        probability = args.failure_prob
        failable = downward_failable_ports(topology) if probability else None

        def build(dest: int) -> NetworkModel:
            failure = (
                independent_failure_program(failable, probability)
                if probability
                else None
            )
            return build_model(
                topology,
                routing=ecmp_policy(topology, dest),
                dest=dest,
                failure=failure,
                failable=failable,
                count_hops=args.count_hops,
            )

        return build

    from repro.routing import f10_model

    probability = args.failure_prob if args.failure_prob is not None else Fraction(1, 1000)

    def build(dest: int) -> NetworkModel:
        return f10_model(
            topology,
            dest,
            scheme=args.scheme,
            failure_probability=probability,
            max_failures=args.max_failures,
            count_hops=args.count_hops,
        )

    return build


def load_queries(args: argparse.Namespace, topology) -> list[Query]:
    """The batch: from the JSON file, --all-pairs generation, or both."""
    batch: list[Query] = []
    if args.queries:
        with open(args.queries, encoding="utf-8") as handle:
            payload = json.load(handle)
        raw = payload["queries"] if isinstance(payload, dict) else payload
        batch.extend(Query.coerce(entry) for entry in raw)
    if args.all_pairs:
        dests = args.dest or [1]
        for dest in dests:
            for switch, port in topology.ingress_locations(exclude=[dest]):
                batch.append(Query.delivery((switch, port), dest))
    if not batch:
        raise SystemExit("no queries: pass --queries FILE and/or --all-pairs")
    return batch


def build_session(args: argparse.Namespace, topology) -> AnalysisSession:
    """Open the session both entry points (batch and serve) share."""
    if args.pool_size is not None and args.pool_size < 1:
        raise SystemExit("--pool-size must be >= 1")
    if args.pool_mode == "thread" and (args.pool_size or 1) > 1:
        raise SystemExit(
            "--pool-mode thread serves from one in-process replica; "
            "--pool-size above 1 needs --pool-mode process"
        )
    if args.scheme == "ecmp" and args.max_failures is not None:
        raise ValueError("--max-failures bounds the f10 schemes; --scheme ecmp takes none")
    return AnalysisSession(
        model_factory=model_factory(topology, args),
        pool_size=args.pool_size,
        pool_mode=args.pool_mode,
        workers=args.workers,
        telemetry=args.trace_out is not None,
    )


def export_telemetry(session: AnalysisSession, args: argparse.Namespace) -> None:
    """Write ``--trace-out`` / print ``--metrics`` output on the way out."""
    if args.trace_out:
        count = session.telemetry.tracer.export_chrome(args.trace_out)
        print(f"trace written to {args.trace_out} ({count} span(s))")
    if args.metrics:
        print(session.metrics_text(), end="")


@contextmanager
def _usage_errors() -> Iterator[None]:
    """Report bad input met while setting up as a one-line error, not a traceback."""
    try:
        yield
    except (ValueError, TypeError, KeyError, OSError) as exc:
        raise SystemExit(f"error: {exc}") from None


def serve_main(
    argv: Sequence[str] | None = None,
    started_cb: Callable[[object], None] | None = None,
) -> int:
    """Entry point of ``python -m repro.service serve``.

    ``started_cb(server)`` — if given — fires from inside the event loop
    once the listener is bound, before serving; tests use it to learn the
    ephemeral port and to hold a stop handle.
    """
    import asyncio

    args = build_serve_parser().parse_args(argv)
    if args.window_ms < 0:
        raise SystemExit("--window-ms must be >= 0")
    return asyncio.run(_run_server(args, started_cb))


async def _run_server(args: argparse.Namespace, started_cb=None) -> int:
    import asyncio
    import signal

    from repro.service.server import QueryServer

    with _usage_errors():
        topology = load_topology(args.topology)
        session = build_session(args, topology)
        try:
            for dest in args.dest or [1]:
                if args.warm:
                    session.warm(dest)
                else:
                    session.model_for(dest)  # register so dest-less queries fail fast
            server = QueryServer(
                session,
                host=args.host,
                port=args.port,
                window=args.window_ms / 1000.0,
                max_batch=args.max_batch,
                max_pending=args.max_pending,
                default_deadline=(
                    args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
                ),
                max_line_bytes=args.max_line_kib * 1024,
                owns_session=True,
            )
        except BaseException:
            session.close()
            raise
    await server.start()
    loop = asyncio.get_running_loop()
    for signame in ("SIGINT", "SIGTERM"):
        try:
            loop.add_signal_handler(getattr(signal, signame), server.request_stop)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # e.g. not the main thread (tests), or unsupported platform
    print(
        f"serving {args.topology}/{args.scheme} on {server.host}:{server.port} "
        f"(window {args.window_ms}ms, pool {session.pool_size} "
        f"{session.pool_mode}-hosted replica(s))",
        flush=True,
    )
    if started_cb is not None:
        started_cb(server)
    await server.serve_until_stopped()
    await server.stop()
    coalescer = server.stats()["coalescer"]
    print(
        f"served {coalescer['answered']} queries in {coalescer['batches']} "
        f"coalesced batch(es) (mean batch {coalescer['batch_mean']:.2f}, "
        f"{coalescer['deadline_exceeded']} deadline-exceeded, "
        f"{coalescer['overloaded']} overloaded)"
    )
    export_telemetry(session, args)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    if args.repeat < 1:
        raise SystemExit("--repeat must be >= 1")
    with _usage_errors():
        topology = load_topology(args.topology)
        batch = load_queries(args, topology)
        if any(query.kind == "hops" for query in batch) and not args.count_hops:
            args.count_hops = True  # hop queries need the counter in the model
        session = build_session(args, topology)

    with session:
        with _usage_errors():
            # Build every queried destination's model up front, so a bad
            # destination is reported before serving starts.
            for dest in dict.fromkeys(q.dest for q in batch if q.dest is not None):
                session.model_for(dest)
            # Default-destination queries need a registered default model.
            if any(query.dest is None for query in batch):
                default_dest = (args.dest or [1])[0]
                session.add_model(session.model_for(default_dest), default=True)
        result = session.query_batch(batch)
        for _ in range(args.repeat - 1):
            result = session.query_batch(batch)

        print(
            f"served {len(result)} queries in {result.seconds:.3f}s "
            f"({result.queries_per_second:.1f} q/s), "
            f"{len(result.shards)} shard(s), {result.cache_hits} cache hit(s)"
        )
        for report in result.shards:
            where = "cache" if report.replica < 0 else f"replica {report.replica}"
            print(
                f"  shard {report.index:>3} [dest={report.dest}] "
                f"{report.queries:>4} queries  {report.seconds:.3f}s  "
                f"{report.cache_hits} hit(s)  ({where})"
            )
        stats = session.stats()
        pool = stats["pool"]
        if pool["size"] > 1 or pool["mode"] != "thread":
            workers = ",".join(str(pid) for pid in pool["workers"])
            print(
                f"pool: {pool['size']} {pool['mode']}-hosted replicas "
                f"(pids {workers}), leases {pool['leases']}"
            )
        timings = stats["backend_timings"]
        if timings:
            phases = ", ".join(f"{name}={value:.3f}s" for name, value in sorted(timings.items()))
            print(f"backend phases: {phases}")
        solver = stats.get("backend_solver") or {}
        if solver:
            print(
                f"solver: {solver.get('factorizations', 0)} factorization(s), "
                f"{solver.get('schur_updates', 0)} growth step(s) on a solved chain, "
                f"{solver.get('assembly_rows', 0)} row(s) assembled, "
                f"{solver.get('fdd_nodes', 0)} FDD node(s); compile: "
                f"{solver.get('leaf_actions_composed', 0)} leaf action(s) composed, "
                f"{solver.get('compile_roles', 0)} role template(s), "
                f"{solver.get('role_instances', 0)} switch diagram(s) renamed from one"
            )

        if args.output:
            result.dump(args.output)
            print(f"results written to {args.output}")
        export_telemetry(session, args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
