"""Field declarations and finite value domains.

ProbNetKAT packets map fields to bounded integers (§3).  While the
library infers per-field value sets from programs automatically (dynamic
domain reduction), explicit :class:`FieldSpec` declarations are useful for
the PRISM backend (which needs variable bounds) and for documenting the
fields of a network model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core import syntax as s
from repro.core.packet import PacketUniverse


@dataclass(frozen=True)
class FieldSpec:
    """A single field declaration: name and inclusive value range."""

    name: str
    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"field {self.name!r} has empty range [{self.low}, {self.high}]")

    @property
    def size(self) -> int:
        return self.high - self.low + 1

    def values(self) -> range:
        return range(self.low, self.high + 1)

    def __contains__(self, value: int) -> bool:
        return self.low <= value <= self.high


@dataclass
class FieldTable:
    """A collection of field declarations keyed by name."""

    specs: dict[str, FieldSpec] = field(default_factory=dict)

    def declare(self, name: str, low: int, high: int) -> FieldSpec:
        """Declare (or widen) a field with the given inclusive range."""
        existing = self.specs.get(name)
        if existing is not None:
            low = min(low, existing.low)
            high = max(high, existing.high)
        spec = FieldSpec(name, low, high)
        self.specs[name] = spec
        return spec

    def __getitem__(self, name: str) -> FieldSpec:
        return self.specs[name]

    def __contains__(self, name: str) -> bool:
        return name in self.specs

    def __iter__(self) -> Iterator[FieldSpec]:
        return iter(self.specs.values())

    def __len__(self) -> int:
        return len(self.specs)

    def names(self) -> tuple[str, ...]:
        return tuple(self.specs)

    def universe(self) -> PacketUniverse:
        """The packet universe induced by these declarations."""
        return PacketUniverse({spec.name: spec.values() for spec in self})

    def as_domains(self) -> dict[str, tuple[int, ...]]:
        return {spec.name: tuple(spec.values()) for spec in self}

    @staticmethod
    def from_policy(policy: s.Policy, minimum: int = 0) -> "FieldTable":
        """Infer field ranges from the values a policy mentions.

        The range of each field spans from ``minimum`` (default 0) to the
        largest mentioned value, which is what the PRISM backend needs to
        bound its variables.
        """
        table = FieldTable()
        for name, values in policy.field_values().items():
            table.declare(name, min(minimum, min(values)), max(values))
        return table
