"""Failure models: per-hop sampling of link-health flags.

The paper models link failures by giving every switch boolean flags
``up_i`` (one per local port) and running a *failure program* ``f`` at
every hop, before the switch policy and the topology program (§2, §7).
Three shapes of failure model appear:

* ``f0`` — no failures: every flag is set to 1;
* independent failures — every failable link fails independently with
  probability ``pr`` (the ``k = ∞`` model of §7);
* bounded failures ``f_k`` — links fail independently with probability
  ``pr``, but at most ``k`` failures may be observed in total, encoded
  with a saturating global failure counter.

All failure programs are organised as a ``case`` over the switch field so
that only the flags of the current switch are (re)sampled at each hop.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from repro.core import sugar
from repro.core import syntax as s

#: Default name of the global failure counter used by bounded models.
FAILURE_COUNTER = "fails"


def _up_field(prefix: str, port: int) -> str:
    return f"{prefix}{port}"


def failure_free(
    failable: Mapping[int, Iterable[int]],
    up_prefix: str = "up",
    sw_field: str = "sw",
) -> s.Policy:
    """The failure model ``f0``: every failable link is up at every hop."""
    branches = []
    for switch in sorted(failable):
        flags = s.seq(
            *[s.assign(_up_field(up_prefix, port), 1) for port in sorted(failable[switch])]
        )
        branches.append((s.test(sw_field, switch), flags))
    return s.case(branches, s.skip())


def independent_failure_program(
    failable: Mapping[int, Iterable[int]],
    probability: float | Fraction,
    up_prefix: str = "up",
    sw_field: str = "sw",
) -> s.Policy:
    """Independent failures with probability ``pr`` (the ``k = ∞`` model)."""
    pr = s.as_prob(probability)
    stays_up = 1 - pr
    branches = []
    for switch in sorted(failable):
        steps = []
        for port in sorted(failable[switch]):
            up = _up_field(up_prefix, port)
            steps.append(s.choice((s.assign(up, 0), pr), (s.assign(up, 1), stays_up)))
        branches.append((s.test(sw_field, switch), s.seq(*steps)))
    return s.case(branches, s.skip())


def bounded_failure_program(
    failable: Mapping[int, Iterable[int]],
    probability: float | Fraction,
    max_failures: int,
    up_prefix: str = "up",
    sw_field: str = "sw",
    counter_field: str = FAILURE_COUNTER,
) -> s.Policy:
    """The bounded failure model ``f_k`` of §7.

    Each failable link of the current switch fails independently with
    probability ``pr`` *provided* fewer than ``max_failures`` failures
    have been observed so far; the observation count is tracked in a
    saturating counter field.  With ``max_failures = 0`` this degenerates
    to ``f0``.
    """
    pr = s.as_prob(probability)
    if max_failures < 0:
        raise ValueError("max_failures must be non-negative")
    if max_failures == 0:
        return failure_free(failable, up_prefix=up_prefix, sw_field=sw_field)
    stays_up = 1 - pr
    below_budget = s.disj(*[s.test(counter_field, j) for j in range(max_failures)])
    branches = []
    for switch in sorted(failable):
        steps = []
        for port in sorted(failable[switch]):
            up = _up_field(up_prefix, port)
            fail = s.seq(s.assign(up, 0), sugar.increment(counter_field, max_failures))
            sample = s.choice((fail, pr), (s.assign(up, 1), stays_up))
            steps.append(s.ite(below_budget, sample, s.assign(up, 1)))
        branches.append((s.test(sw_field, switch), s.seq(*steps)))
    return s.case(branches, s.skip())


def failure_program(
    failable: Mapping[int, Iterable[int]],
    probability: float | Fraction,
    max_failures: int | None = None,
    up_prefix: str = "up",
    sw_field: str = "sw",
    counter_field: str = FAILURE_COUNTER,
) -> s.Policy:
    """Dispatch to the appropriate failure model.

    ``max_failures = None`` selects independent failures (``k = ∞``),
    ``max_failures = 0`` the failure-free model, and any other value the
    bounded model ``f_k``.
    """
    if max_failures is None:
        return independent_failure_program(
            failable, probability, up_prefix=up_prefix, sw_field=sw_field
        )
    if max_failures == 0:
        return failure_free(failable, up_prefix=up_prefix, sw_field=sw_field)
    return bounded_failure_program(
        failable,
        probability,
        max_failures,
        up_prefix=up_prefix,
        sw_field=sw_field,
        counter_field=counter_field,
    )


def running_example_failure_models() -> dict[str, s.Policy]:
    """The three failure models ``f0``, ``f1``, ``f2`` of §2.

    These sample the two flags ``up2`` and ``up3`` of switch 1 in the
    three-switch running example: ``f0`` never fails, ``f1`` fails at most
    one of the two links (each with probability 1/4), and ``f2`` fails
    the links independently with probability 0.2.
    """
    up2_1 = s.assign("up2", 1)
    up3_1 = s.assign("up3", 1)
    f0 = s.seq(up2_1, up3_1)
    f1 = s.choice(
        (f0, Fraction(1, 2)),
        (s.seq(s.assign("up2", 0), up3_1), Fraction(1, 4)),
        (s.seq(up2_1, s.assign("up3", 0)), Fraction(1, 4)),
    )
    f2 = s.seq(
        s.choice((s.assign("up2", 1), Fraction(4, 5)), (s.assign("up2", 0), Fraction(1, 5))),
        s.choice((s.assign("up3", 1), Fraction(4, 5)), (s.assign("up3", 0), Fraction(1, 5))),
    )
    return {"f0": f0, "f1": f1, "f2": f2}
