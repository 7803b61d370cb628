"""Manager-independent wire format for cross-process query serving.

Architecture: in the **session → pool → backend** pipeline this
module defines what may *cross a process boundary*.  Worker replicas
(:class:`~repro.service.procpool.ReplicaClient`) are full backends in
their own processes; nothing manager-bound — FDD nodes, FDD
managers, compiled plans — and no policy ASTs are ever pickled.  Instead:

* **plans** travel as the ``(fields, stage_specs)`` payloads of
  :meth:`~repro.backends.matrix.MatrixBackend.plan_payload` — per-stage
  FDD node lists (plain tuples from
  :func:`~repro.core.fdd.node.node_to_spec`) plus loop domains, published
  once per (worker, plan) and rebuilt worker-side into the worker's own
  manager;
* **queries** travel as :class:`QuerySpec` values — a plan id, a kind,
  the ingress *seeds* as packet specs, and optional params;
* **answers** travel back as :class:`ResultSpec` values — per ingress
  packet spec, the output distribution as ``(outcome spec, probability)``
  pairs whose probabilities keep their exact Python type
  (:class:`~fractions.Fraction` for exact loop-free masses, ``float`` for
  ``splu``-solved loop masses), so exact results survive the boundary
  bit-for-bit.

A *packet spec* is the canonical ``tuple(sorted((field, value), ...))``
of the packet's fields; the outcome spec ``None`` encodes the drop
outcome.  Everything in this module is plain immutable Python data
(tuples, strings, ints, floats, Fractions), picklable by construction
and independent of any FDD manager, so one long-lived worker can serve
payloads for arbitrarily many destinations and loop bodies over its
lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.distributions import Dist
from repro.core.interpreter import Outcome
from repro.core.packet import DROP, Packet, _DropType

#: A packet on the wire: canonical sorted (field, value) tuples.
PacketSpec = tuple
#: An outcome on the wire: a packet spec, or ``None`` for drop.
OutcomeSpec = PacketSpec | None
#: A distribution on the wire: ((outcome spec, probability), ...).
DistSpec = tuple

# -- streaming error contract --------------------------------------------------
# Stable error codes of the JSON-lines front end (repro.service.server).
# A reply's {"error": {"code", "message", "retry"}} carries one of these;
# `retry` tells the client whether resending the SAME query can succeed.
ERROR_BAD_REQUEST = "bad-request"
ERROR_OVERLOADED = "overloaded"
ERROR_UNAVAILABLE = "unavailable"
ERROR_DEADLINE_EXCEEDED = "deadline-exceeded"
ERROR_SHUTTING_DOWN = "shutting-down"
ERROR_INTERNAL = "internal"
# Not retryable: resending the same oversized line fails identically
# (the server refuses it before parsing; raise the server's
# max_line_bytes instead).
ERROR_TOO_LARGE = "too-large"

#: Codes a client should retry after backing off: transient conditions
#: (admission queue full; a worker crashed, the other replicas serve) —
#: as opposed to semantic errors, which would fail identically again.
RETRYABLE_ERROR_CODES = frozenset({ERROR_OVERLOADED, ERROR_UNAVAILABLE})


def error_payload(code: str, message: str, retry: bool | None = None) -> dict:
    """The standard body of a wire error reply (the ``"error"`` object).

    ``retry`` defaults to the code's class: transient codes
    (:data:`RETRYABLE_ERROR_CODES`) are retryable, everything else is
    terminal.
    """
    if retry is None:
        retry = code in RETRYABLE_ERROR_CODES
    return {"code": code, "message": message, "retry": bool(retry)}


def packet_to_spec(packet: Packet) -> PacketSpec:
    """The canonical picklable spec of a concrete packet."""
    return tuple(sorted(packet.as_dict().items()))


def packet_from_spec(spec: Iterable[tuple[str, int]]) -> Packet:
    """Rebuild a packet from its :func:`packet_to_spec` spec."""
    return Packet(dict(spec))


def outcome_to_spec(outcome: Outcome) -> OutcomeSpec:
    """The wire spec of an outcome (``None`` encodes drop)."""
    if isinstance(outcome, _DropType):
        return None
    return packet_to_spec(outcome)


def outcome_from_spec(spec: OutcomeSpec) -> Outcome:
    """Rebuild an outcome from its wire spec."""
    if spec is None:
        return DROP
    return packet_from_spec(spec)


def dist_to_spec(dist: Dist[Outcome]) -> DistSpec:
    """Serialize an outcome distribution, preserving exact probabilities.

    Probabilities are passed through untouched — ``Fraction`` stays
    ``Fraction``, ``float`` stays ``float`` — so a loop-free exact answer
    is still exact after the round trip.
    """
    return tuple(
        (outcome_to_spec(outcome), prob) for outcome, prob in dist.items()
    )


def dist_from_spec(spec: DistSpec | Iterable[tuple]) -> Dist[Outcome]:
    """Rebuild an outcome distribution from its wire spec."""
    return Dist(
        {outcome_from_spec(entry): prob for entry, prob in spec}, check=False
    )


@dataclass(frozen=True)
class QuerySpec:
    """One destination group's unit of cross-process work.

    Attributes
    ----------
    plan:
        The id of a plan previously shipped to the worker (the worker
        rejects unknown ids — plans are registered explicitly, never
        compiled on demand worker-side).
    kind:
        What to compute.  ``"distributions"`` — the only kind workers
        need today — asks for the per-ingress output distributions; the
        richer query kinds (delivery probability, expected hops) are
        *derived from distributions in the parent*, which keeps delivered
        predicates (ASTs) out of the wire format.
    ingress:
        The ingress seed packets, as canonical packet specs.
    params:
        Optional ``(name, value)`` pairs parameterising the computation;
        reserved for future kinds (must be picklable plain data).
    trace:
        Optional trace propagation context as a plain
        ``(trace_id, span_id)`` tuple (see
        :class:`~repro.service.telemetry.SpanContext`).  When present,
        the worker traces its side of the query — plan adoption and
        solver phases — parented under ``span_id``, and ships the
        finished span records back in the reply's stats blob.  ``None``
        (the default) keeps the untraced path entirely telemetry-free.
    """

    plan: int
    kind: str
    ingress: tuple
    params: tuple = ()
    trace: tuple | None = None

    @classmethod
    def distributions(
        cls, plan: int, packets: Iterable[Packet], trace: tuple | None = None
    ) -> "QuerySpec":
        """The distribution query over concrete ingress packets."""
        return cls(
            plan,
            "distributions",
            tuple(packet_to_spec(pk) for pk in packets),
            trace=trace,
        )

    def ingress_packets(self) -> list[Packet]:
        """The concrete ingress packets (worker-side decode)."""
        return [packet_from_spec(entry) for entry in self.ingress]


@dataclass(frozen=True)
class ResultSpec:
    """The worker's answer to one :class:`QuerySpec`.

    ``entries`` maps each requested ingress packet spec to its output
    distribution spec, in the request's ingress order.  Only plain data:
    decoding on the parent side rebuilds real :class:`Packet` /
    :class:`~repro.core.distributions.Dist` values.
    """

    plan: int
    entries: tuple

    @classmethod
    def from_distributions(
        cls, plan: int, dists: Mapping[Packet, Dist[Outcome]]
    ) -> "ResultSpec":
        """Encode a worker's ``{packet: distribution}`` answer."""
        return cls(
            plan,
            tuple(
                (packet_to_spec(packet), dist_to_spec(dist))
                for packet, dist in dists.items()
            ),
        )

    def to_distributions(self) -> dict[Packet, Dist[Outcome]]:
        """Decode into concrete packets and distributions (parent side)."""
        return {
            packet_from_spec(packet_spec): dist_from_spec(dist_spec)
            for packet_spec, dist_spec in self.entries
        }


__all__ = [
    "ERROR_BAD_REQUEST",
    "ERROR_DEADLINE_EXCEEDED",
    "ERROR_INTERNAL",
    "ERROR_OVERLOADED",
    "ERROR_SHUTTING_DOWN",
    "ERROR_TOO_LARGE",
    "ERROR_UNAVAILABLE",
    "RETRYABLE_ERROR_CODES",
    "DistSpec",
    "OutcomeSpec",
    "PacketSpec",
    "QuerySpec",
    "ResultSpec",
    "error_payload",
    "dist_from_spec",
    "dist_to_spec",
    "outcome_from_spec",
    "outcome_to_spec",
    "packet_from_spec",
    "packet_to_spec",
]
