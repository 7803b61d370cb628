"""Representation of PRISM programs (DTMC modules).

A PRISM program is a set of bounded integer variables together with
guarded probabilistic commands::

    [] guard -> p1:(updates1) + ... + pk:(updatesk);

Guards are represented by ProbNetKAT predicates over the variables (the
program counter ``pc`` is just another variable), which keeps the
translation compact and code generation one predicate printer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from repro.core import syntax as s


@dataclass(frozen=True)
class PrismVariable:
    """A bounded integer PRISM variable ``name : [low..high] init init``."""

    name: str
    low: int
    high: int
    init: int = 0

    def __post_init__(self) -> None:
        if not (self.low <= self.init <= self.high):
            raise ValueError(
                f"initial value {self.init} of {self.name} outside [{self.low}, {self.high}]"
            )


@dataclass(frozen=True)
class Branch:
    """One probabilistic alternative of a command: probability and updates."""

    probability: Fraction
    updates: tuple[tuple[str, int], ...]

    def updates_dict(self) -> dict[str, int]:
        return dict(self.updates)


@dataclass(frozen=True)
class Command:
    """A guarded probabilistic command."""

    guard: s.Predicate
    branches: tuple[Branch, ...]

    def total_probability(self) -> Fraction:
        return sum((b.probability for b in self.branches), Fraction(0))


@dataclass
class PrismModel:
    """A PRISM DTMC module: variables, commands, and named labels."""

    name: str = "program"
    variables: list[PrismVariable] = field(default_factory=list)
    commands: list[Command] = field(default_factory=list)
    labels: dict[str, s.Predicate] = field(default_factory=dict)

    def variable(self, name: str) -> PrismVariable:
        for var in self.variables:
            if var.name == name:
                return var
        raise KeyError(name)

    def variable_names(self) -> tuple[str, ...]:
        return tuple(var.name for var in self.variables)

    def initial_valuation(self, overrides: Mapping[str, int] | None = None) -> dict[str, int]:
        """The initial variable valuation, with optional per-field overrides."""
        valuation = {var.name: var.init for var in self.variables}
        for name, value in (overrides or {}).items():
            if name not in valuation:
                raise KeyError(f"unknown PRISM variable {name!r}")
            valuation[name] = value
        return valuation

    def add_label(self, name: str, predicate: s.Predicate) -> None:
        self.labels[name] = predicate

    def check_well_formed(self) -> None:
        """Validate that every command's probabilities sum to one."""
        for index, command in enumerate(self.commands):
            total = command.total_probability()
            if total != 1:
                raise ValueError(
                    f"command {index} has branch probabilities summing to {total}"
                )
