"""Helpers shared by the benchmark harnesses.

Besides pretty-printing reproduced tables, the harness collects every
recorded figure into machine-readable ``BENCH_<fig>.json`` summaries
(written at session end by the ``pytest_sessionfinish`` hook in
``conftest.py``).  CI uploads those files as artifacts, so the perf
trajectory of the repo is tracked run over run.
"""

from __future__ import annotations

import json
import os
import time

#: Figure name -> recorded payload, collected across one pytest session.
_RECORDS: dict[str, dict[str, object]] = {}

#: (figure, kind, options) -> shared engine instance (see shared_interpreter /
#: shared_backend).  Cleared per session; bypassed entirely in cold mode.
_SHARED: dict[tuple, object] = {}


def scale() -> int:
    """The REPRO_SCALE factor controlling how far parameter sweeps extend."""
    try:
        return max(1, int(os.environ.get("REPRO_SCALE", "1")))
    except ValueError:
        return 1


def cold() -> bool:
    """Whether engine sharing is disabled (``--cold`` / ``REPRO_COLD=1``).

    Cold mode gives every benchmark configuration a fresh interpreter or
    backend, so each measurement includes full compilation — the escape
    hatch for measuring cold-start costs rather than warm sweeps.
    """
    return os.environ.get("REPRO_COLD", "").strip() not in ("", "0")


def shared_interpreter(fig: str, **options):
    """One forward interpreter shared by every configuration of ``fig``.

    Sharing keeps the interpreter's loop caches, compiled bodies, and the
    FDD manager's interned nodes alive across a figure's parameter sweep
    (the ROADMAP's "share one backend instance across benchmark figures"
    item).  With ``--cold`` (or ``REPRO_COLD=1``) a fresh instance is
    returned every call instead.
    """
    from repro.core.interpreter import Interpreter

    if cold():
        return Interpreter(**options)
    key = (fig, "interpreter", tuple(sorted(options.items())))
    engine = _SHARED.get(key)
    if engine is None:
        engine = _SHARED[key] = Interpreter(**options)
    return engine


def shared_backend(fig: str, name: str, **options):
    """One registry backend shared by every configuration of ``fig``.

    Same contract as :func:`shared_interpreter`, for registry backends
    (``"native"``, ``"matrix"``): plans, transition
    matrices, and loop factorizations persist across the sweep unless
    cold mode is active.
    """
    from repro.backends import get_backend

    if cold():
        return get_backend(name, **options)
    key = (fig, name, tuple(sorted(options.items())))
    engine = _SHARED.get(key)
    if engine is None:
        engine = _SHARED[key] = get_backend(name, **options)
    return engine


def output_dir() -> str:
    """Directory for ``BENCH_*.json`` summaries (override: BENCH_OUTPUT_DIR)."""
    default = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    return os.environ.get("BENCH_OUTPUT_DIR", default)


def record(
    fig: str,
    title: str,
    header: list[str],
    rows: list[list[object]],
    phases: dict[str, float] | None = None,
    metrics: dict[str, float] | None = None,
) -> None:
    """Register one figure's reproduced rows for JSON emission.

    ``phases`` optionally attaches per-phase wall-clock seconds (compile,
    solve, query, ...) so artifacts capture where the time went, not just
    totals.  ``metrics`` attaches headline scalars (e.g. the fig7
    interpreted-vs-compiled ``speedup``) that CI diffs against committed
    baselines.  Re-recording a figure merges phases/metrics and replaces
    rows.
    """
    entry = _RECORDS.setdefault(
        fig, {"title": title, "header": header, "rows": [], "phases": {}, "metrics": {}}
    )
    entry["title"] = title
    entry["header"] = header
    entry["rows"] = rows
    if phases:
        merged = dict(entry.get("phases") or {})
        merged.update({name: round(float(value), 6) for name, value in phases.items()})
        entry["phases"] = merged
    if metrics:
        merged = dict(entry.get("metrics") or {})
        merged.update({name: round(float(value), 6) for name, value in metrics.items()})
        entry["metrics"] = merged


def print_table(
    title: str,
    header: list[str],
    rows: list[list[object]],
    fig: str | None = None,
) -> None:
    """Uniform plain-text rendering of a reproduced table/series.

    With ``fig`` the table is also recorded for the ``BENCH_<fig>.json``
    summary artifact.
    """
    print()
    print(f"== {title}")
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    print("  " + "  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    if fig is not None:
        record(fig, title, header, rows)


def write_summaries() -> list[str]:
    """Write one ``BENCH_<fig>.json`` per recorded figure; return the paths."""
    if not _RECORDS:
        return []
    directory = output_dir()
    os.makedirs(directory, exist_ok=True)
    written: list[str] = []
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    for fig, entry in sorted(_RECORDS.items()):
        payload = {
            "fig": fig,
            "generated_at": stamp,
            "repro_scale": scale(),
            **entry,
        }
        path = os.path.join(directory, f"BENCH_{fig}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)
            handle.write("\n")
        written.append(path)
    return written
