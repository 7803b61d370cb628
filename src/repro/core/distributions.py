"""Finite probability distributions.

ProbNetKAT's semantics manipulates discrete distributions over finite
outcome spaces (packets, packet sets, Markov-chain states).  This module
provides a small, exact-by-default distribution type used throughout the
library:

* probabilities may be :class:`fractions.Fraction` (exact, the default in
  the FDD frontend, mirroring McNetKAT's use of rational arithmetic) or
  ``float`` (used after sparse linear solves, mirroring UMFPACK);
* the monadic operations ``map``/``bind`` implement the Giry-monad
  structure used by the denotational semantics (Appendix A).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import Callable, Generic, Hashable, Iterable, Iterator, TypeVar

Number = Fraction | float | int
T = TypeVar("T", bound=Hashable)
S = TypeVar("S", bound=Hashable)

#: Probability-mass tolerance used when comparing float-valued distributions.
DEFAULT_TOLERANCE = 1e-9


def _as_number(value: Number) -> Fraction | float:
    """Normalise supported numeric types (ints become exact Fractions)."""
    if isinstance(value, bool):
        raise TypeError("booleans are not probabilities")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, float)):
        return value
    raise TypeError(f"unsupported probability type: {type(value)!r}")


def _exact(masses: Iterable[object]) -> bool:
    """Whether every mass is a :class:`Fraction`: inside a :class:`Dist`
    those are positive (the constructor rejects negative and drops zero
    ones) and closed under ``+`` and ``×``, so what is computed from them
    needs no validation.  Floats — a tolerated tiny negative may cancel,
    a product may underflow to zero — always go through the constructor.
    """
    for mass in masses:
        if type(mass) is not Fraction:
            return False
    return True


_ZERO, _ONE = Fraction(0), Fraction(1)


class Dist(Generic[T]):
    """A finitely-supported (sub)probability distribution.

    Parameters
    ----------
    weights:
        Mapping (or iterable of pairs) from outcome to probability mass.
        Outcomes with zero mass are removed from the support.
    check:
        When ``True`` (default) the total mass must be 1 up to
        :data:`DEFAULT_TOLERANCE`; sub-distributions can be built with
        ``check=False``.

    Examples
    --------
    >>> d = Dist({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    >>> d("a")
    Fraction(1, 2)
    >>> d.map(str.upper)("A")
    Fraction(1, 2)
    """

    __slots__ = ("_weights",)

    def __init__(
        self,
        weights: Mapping[T, Number] | Iterable[tuple[T, Number]],
        check: bool = True,
    ):
        items = weights.items() if isinstance(weights, Mapping) else weights
        acc: dict[T, Fraction | float] = {}
        for outcome, mass in items:
            mass = _as_number(mass)
            if mass < 0 and not (isinstance(mass, float) and mass > -DEFAULT_TOLERANCE):
                raise ValueError(f"negative probability {mass} for {outcome!r}")
            if mass == 0:
                continue
            if outcome in acc:
                acc[outcome] = acc[outcome] + mass
            else:
                acc[outcome] = mass
        self._weights: dict[T, Fraction | float] = acc
        if check:
            total = self.total_mass()
            if isinstance(total, Fraction):
                if total != 1:
                    raise ValueError(f"distribution mass is {total}, expected 1")
            elif abs(total - 1.0) > 1e-6:
                raise ValueError(f"distribution mass is {total}, expected 1")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def _from_weights(cls, weights: dict[T, "Fraction | float"]) -> "Dist[T]":
        """Wrap an already-clean weight dict without validation.

        Internal hot-path constructor.  Invariants the caller guarantees,
        because nothing here checks them: it owns ``weights`` (stored,
        not copied), and every mass is a positive :class:`Fraction` or
        ``float`` — never zero, ``int`` or ``bool`` — i.e. exactly what
        the validating constructor would have kept.  ``map``, ``bind``,
        ``convex`` and ``product`` come here when all the masses they
        combine are fractions (:func:`_exact`), else to the constructor.
        """
        dist = object.__new__(cls)
        dist._weights = weights
        return dist

    @staticmethod
    def point(outcome: T) -> "Dist[T]":
        """The Dirac (point-mass) distribution on ``outcome``."""
        return Dist._from_weights({outcome: _ONE})

    @staticmethod
    def uniform(outcomes: Iterable[T]) -> "Dist[T]":
        """The uniform distribution over the given outcomes."""
        outcomes = list(outcomes)
        if not outcomes:
            raise ValueError("cannot build a uniform distribution over no outcomes")
        p = Fraction(1, len(outcomes))
        return Dist([(o, p) for o in outcomes])

    @staticmethod
    def convex(parts: Iterable[tuple["Dist[T]", Number]], check: bool = True) -> "Dist[T]":
        """Convex combination ``sum_i w_i * d_i`` of distributions."""
        acc: dict[T, Fraction | float] = {}
        exact = not check  # a total to check is the constructor's job too
        for dist, weight in parts:
            # A weight comes from outside, sign unknown.  A fraction's is
            # read off its numerator (an ``int``, no rich comparison).
            if type(weight) is Fraction:
                sign = weight.numerator
            else:
                sign = weight = _as_number(weight)
                exact = exact and type(weight) is Fraction
            if sign == 0:
                continue
            weights = dist._weights
            exact = exact and sign > 0 and _exact(weights.values())
            for outcome, mass in weights.items():
                prior = acc.get(outcome)
                acc[outcome] = weight * mass if prior is None else prior + weight * mass
        return Dist._from_weights(acc) if exact else Dist(acc, check=check)

    # -- queries --------------------------------------------------------------
    def __call__(self, outcome: T) -> Fraction | float:
        """Probability mass assigned to ``outcome`` (0 when unsupported)."""
        return self._weights.get(outcome, _ZERO)

    def prob(self, outcome: T) -> Fraction | float:
        """Alias for :meth:`__call__`."""
        return self(outcome)

    def prob_of(self, predicate: Callable[[T], bool]) -> Fraction | float:
        """Total mass of outcomes satisfying ``predicate``."""
        total: Fraction | float = _ZERO
        for outcome, mass in self._weights.items():
            if predicate(outcome):
                total = total + mass
        return total

    def support(self) -> frozenset[T]:
        """The set of outcomes with strictly positive mass."""
        return frozenset(self._weights)

    def items(self) -> Iterator[tuple[T, Fraction | float]]:
        return iter(self._weights.items())

    def as_dict(self) -> dict[T, Fraction | float]:
        return dict(self._weights)

    def total_mass(self) -> Fraction | float:
        """Total probability mass (1 for a proper distribution)."""
        total: Fraction | float = _ZERO
        for mass in self._weights.values():
            total = total + mass
        return total

    def expectation(self, value: Callable[[T], Number]) -> float:
        """Expected value of ``value`` under this distribution (as float)."""
        return float(sum(float(mass) * float(value(o)) for o, mass in self._weights.items()))

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self) -> Iterator[T]:
        return iter(self._weights)

    def __contains__(self, outcome: T) -> bool:
        return outcome in self._weights

    # -- monad operations ------------------------------------------------------
    def map(self, func: Callable[[T], S]) -> "Dist[S]":
        """Pushforward along ``func`` (the functorial action ``D(f)``)."""
        acc: dict[S, Fraction | float] = {}
        for outcome, mass in self._weights.items():
            image = func(outcome)
            prior = acc.get(image)
            acc[image] = mass if prior is None else prior + mass
        exact = _exact(self._weights.values())
        return Dist._from_weights(acc) if exact else Dist(acc, check=False)

    def bind(self, kernel: Callable[[T], "Dist[S]"]) -> "Dist[S]":
        """Monadic bind (``kernel†`` applied to this distribution)."""
        acc: dict[S, Fraction | float] = {}
        exact = _exact(self._weights.values())
        for outcome, mass in self._weights.items():
            inner = kernel(outcome)._weights
            exact = exact and _exact(inner.values())
            for image, weight in inner.items():
                prior = acc.get(image)
                acc[image] = mass * weight if prior is None else prior + mass * weight
        return Dist._from_weights(acc) if exact else Dist(acc, check=False)

    def product(self, other: "Dist[S]") -> "Dist[tuple[T, S]]":
        """Product measure of two independent distributions."""
        acc: dict[tuple[T, S], Fraction | float] = {}
        for a, pa in self._weights.items():
            for b, pb in other.items():
                acc[(a, b)] = acc.get((a, b), _ZERO) + pa * pb
        return Dist(acc, check=False)

    def normalise(self) -> "Dist[T]":
        """Rescale a non-empty sub-distribution to total mass 1."""
        total = self.total_mass()
        if total == 0:
            raise ValueError("cannot normalise the zero sub-distribution")
        return Dist({o: m / total for o, m in self._weights.items()}, check=False)

    def with_floats(self) -> "Dist[T]":
        """Convert all masses to floats (used at solver boundaries)."""
        return Dist({o: float(m) for o, m in self._weights.items()}, check=False)

    def with_fractions(self, limit_denominator: int | None = None) -> "Dist[T]":
        """Convert all masses to exact fractions (optionally approximating)."""
        converted: dict[T, Fraction] = {}
        for outcome, mass in self._weights.items():
            frac = Fraction(mass) if not isinstance(mass, Fraction) else mass
            if limit_denominator is not None:
                frac = frac.limit_denominator(limit_denominator)
            converted[outcome] = frac
        return Dist(converted, check=False)

    # -- comparisons ------------------------------------------------------------
    def close_to(self, other: "Dist[T]", tolerance: float = DEFAULT_TOLERANCE) -> bool:
        """Pointwise comparison up to ``tolerance`` (total-variation style)."""
        outcomes = set(self._weights) | set(other._weights)
        return all(abs(float(self(o)) - float(other(o))) <= tolerance for o in outcomes)

    def tv_distance(self, other: "Dist[T]") -> float:
        """Total-variation distance between two distributions."""
        outcomes = set(self._weights) | set(other._weights)
        return 0.5 * sum(abs(float(self(o)) - float(other(o))) for o in outcomes)

    def dominated_by(self, other: "Dist[T]", tolerance: float = DEFAULT_TOLERANCE,
                     ignore: frozenset[T] | None = None) -> bool:
        """Pointwise ``self(o) <= other(o) + tolerance`` for all outcomes.

        ``ignore`` lists outcomes excluded from the comparison (the
        refinement order of the paper compares only proper packets and
        ignores the drop outcome).
        """
        ignored = ignore or frozenset()
        outcomes = (set(self._weights) | set(other._weights)) - set(ignored)
        return all(float(self(o)) <= float(other(o)) + tolerance for o in outcomes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        outcomes = set(self._weights) | set(other._weights)
        for o in outcomes:
            a, b = self(o), other(o)
            if isinstance(a, Fraction) and isinstance(b, Fraction):
                if a != b:
                    return False
            elif abs(float(a) - float(b)) > DEFAULT_TOLERANCE:
                return False
        return True

    def __hash__(self) -> int:
        return hash(frozenset((o, float(m)) for o, m in self._weights.items()))

    def __repr__(self) -> str:
        parts = ", ".join(f"{o!r}: {m}" for o, m in sorted(
            self._weights.items(), key=lambda kv: repr(kv[0])))
        return f"Dist({{{parts}}})"
