"""Queries and result sets of the analysis service.

This module holds the service's *data* layer: :class:`Query` (one
(ingress, destination) question of a given kind), :class:`QueryResult`
(its answer plus provenance — which destination group computed it,
whether it was a cache hit), :class:`ShardReport` (one destination
group's timings), and :class:`ResultSet` (the answer to a whole batch,
in the caller's original query order).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.core.distributions import Dist
from repro.core.packet import Packet, _DropType

#: The query kinds the service answers.
QUERY_KINDS = ("delivery", "distribution", "hops")


def coerce_packet(ingress) -> Packet:
    """Coerce an ingress spec — ``Packet``, ``(sw, pt)``, or mapping — to a packet."""
    if isinstance(ingress, Packet):
        return ingress
    if isinstance(ingress, Mapping):
        return Packet(dict(ingress))
    if isinstance(ingress, Sequence) and len(ingress) == 2:
        switch, port = ingress
        return Packet({"sw": int(switch), "pt": int(port)})
    raise TypeError(f"cannot interpret {ingress!r} as an ingress location")


@dataclass(frozen=True)
class Query:
    """One question about one (ingress, destination) pair.

    ``kind`` selects what is asked of the pair:

    * ``"delivery"`` — probability the ingress packet reaches ``dest``;
    * ``"distribution"`` — the full output distribution of the ingress;
    * ``"hops"`` — expected hop count conditioned on delivery (requires a
      model built with ``count_hops=True``).

    ``dest=None`` targets the session's default model.  Queries are
    hashable.
    """

    kind: str
    ingress: Packet
    dest: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            known = ", ".join(QUERY_KINDS)
            raise ValueError(f"unknown query kind {self.kind!r}; expected one of: {known}")

    @classmethod
    def delivery(cls, ingress, dest: int | None = None) -> "Query":
        return cls("delivery", coerce_packet(ingress), dest)

    @classmethod
    def distribution(cls, ingress, dest: int | None = None) -> "Query":
        return cls("distribution", coerce_packet(ingress), dest)

    @classmethod
    def hops(cls, ingress, dest: int | None = None) -> "Query":
        return cls("hops", coerce_packet(ingress), dest)

    @classmethod
    def coerce(cls, raw) -> "Query":
        """Coerce a raw query spec (``Query``, mapping, or pair) to a query.

        Mappings use the CLI/batch-file shape
        ``{"kind": ..., "ingress": [sw, pt], "dest": ...}`` (kind defaults
        to ``"delivery"``); a bare ``(ingress, dest)`` pair is a delivery
        query.
        """
        if isinstance(raw, cls):
            return raw
        if isinstance(raw, Mapping):
            return cls(
                raw.get("kind", "delivery"),
                coerce_packet(raw["ingress"]),
                raw.get("dest"),
            )
        if isinstance(raw, Sequence) and len(raw) == 2:
            ingress, dest = raw
            return cls.delivery(ingress, None if dest is None else int(dest))
        raise TypeError(f"cannot interpret {raw!r} as a service query")


@dataclass(frozen=True)
class QueryResult:
    """One answered query: the value plus its provenance."""

    query: Query
    value: object
    shard: int
    cached: bool


@dataclass(frozen=True)
class ShardReport:
    """One destination group of a batch: size, wall-clock, cache behaviour.

    ``replica`` is the index of the replica that solved the group's
    misses (``-1`` when every query hit the cache, which leases none),
    ``pool_mode`` how it was hosted (``"thread"`` or ``"process"``) and
    ``worker`` the OS pid behind it (``None`` when cached).  ``started``
    / ``finished`` are ``time.perf_counter()`` stamps that share one
    clock across the groups of a batch, so overlapping windows with
    distinct worker pids are direct evidence of cross-process parallel
    execution.
    """

    index: int
    dest: int | None
    queries: int
    seconds: float
    cache_hits: int
    replica: int = -1
    pool_mode: str = "thread"
    worker: int | None = None
    started: float = 0.0
    finished: float = 0.0

    def overlaps(self, other: "ShardReport") -> bool:
        """Whether the two groups' wall-clock execution windows intersect."""
        return self.started < other.finished and other.started < self.finished


@dataclass
class ResultSet:
    """The answer to one query batch.

    ``results`` is in the caller's original query order; ``shards``
    records one :class:`ShardReport` per destination, in order of first
    appearance; ``seconds`` is the end-to-end wall-clock of the batch.
    """

    results: list[QueryResult]
    shards: list[ShardReport] = field(default_factory=list)
    seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> QueryResult:
        return self.results[index]

    @property
    def values(self) -> list[object]:
        """The raw values, in original query order."""
        return [result.value for result in self.results]

    @property
    def cache_hits(self) -> int:
        return sum(1 for result in self.results if result.cached)

    @property
    def queries_per_second(self) -> float:
        if self.seconds <= 0.0:
            return float("inf")
        return len(self.results) / self.seconds

    def value(self, query: Query) -> object:
        """The value of the first result matching ``query``."""
        for result in self.results:
            if result.query == query:
                return result.value
        raise KeyError(f"no result for {query!r}")

    def by_kind(self, kind: str) -> list[QueryResult]:
        return [result for result in self.results if result.query.kind == kind]

    # -- serialisation ---------------------------------------------------------
    def to_json(self) -> dict:
        """A JSON-serialisable summary (distributions become string-keyed maps)."""
        return {
            "queries": len(self.results),
            "seconds": round(self.seconds, 6),
            "queries_per_second": round(self.queries_per_second, 3)
            if self.seconds > 0
            else None,
            "cache_hits": self.cache_hits,
            "shards": [
                {
                    "index": report.index,
                    "dest": report.dest,
                    "queries": report.queries,
                    "seconds": round(report.seconds, 6),
                    "cache_hits": report.cache_hits,
                    "replica": report.replica,
                    "pool_mode": report.pool_mode,
                    "worker": report.worker,
                }
                for report in self.shards
            ],
            "results": [
                {
                    "kind": result.query.kind,
                    "ingress": dict(result.query.ingress.as_dict()),
                    "dest": result.query.dest,
                    "shard": result.shard,
                    "cached": result.cached,
                    "value": _json_value(result.value),
                }
                for result in self.results
            ],
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2)
            handle.write("\n")


def _json_value(value: object) -> object:
    """Render a query value for JSON output."""
    if isinstance(value, Dist):
        return {
            _outcome_label(outcome): float(prob) for outcome, prob in value.items()
        }
    if isinstance(value, float):
        return value
    return value


def _outcome_label(outcome) -> str:
    if isinstance(outcome, _DropType):
        return "drop"
    items = ",".join(f"{name}={val}" for name, val in sorted(outcome.as_dict().items()))
    return items or "<empty>"


__all__ = [
    "QUERY_KINDS",
    "Query",
    "QueryResult",
    "ResultSet",
    "ShardReport",
    "coerce_packet",
]
