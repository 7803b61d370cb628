"""Emission of PRISM source code from :class:`PrismModel` instances.

The generated text is valid input for the real PRISM model checker
(``dtmc`` model type), so it can be exported from this reproduction and
checked with PRISM directly when the binary is available.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core import syntax as s
from repro.backends.prism.model import Command, PrismModel


def predicate_to_prism(pred: s.Predicate) -> str:
    """Render a predicate as a PRISM boolean expression."""
    if isinstance(pred, s.TrueP):
        return "true"
    if isinstance(pred, s.FalseP):
        return "false"
    if isinstance(pred, s.Test):
        return f"{pred.field}={pred.value}"
    if isinstance(pred, s.And):
        return f"({predicate_to_prism(pred.left)} & {predicate_to_prism(pred.right)})"
    if isinstance(pred, s.Or):
        return f"({predicate_to_prism(pred.left)} | {predicate_to_prism(pred.right)})"
    if isinstance(pred, s.Not):
        return f"!({predicate_to_prism(pred.pred)})"
    raise TypeError(f"not a predicate: {pred!r}")


def _probability_to_prism(prob: Fraction) -> str:
    if prob.denominator == 1:
        return str(prob.numerator)
    return f"{prob.numerator}/{prob.denominator}"


def _command_to_prism(command: Command) -> str:
    branches = []
    for branch in command.branches:
        updates = " & ".join(f"({name}'={value})" for name, value in branch.updates)
        if not updates:
            updates = "true"
        branches.append(f"{_probability_to_prism(branch.probability)}:{updates}")
    return f"  [] {predicate_to_prism(command.guard)} -> {' + '.join(branches)};"


def to_prism_source(model: PrismModel) -> str:
    """Render a full PRISM program (module, variables, commands, labels)."""
    lines = ["dtmc", "", f"module {model.name}"]
    for var in model.variables:
        lines.append(f"  {var.name} : [{var.low}..{var.high}] init {var.init};")
    lines.append("")
    for command in model.commands:
        lines.append(_command_to_prism(command))
    lines.append("endmodule")
    if model.labels:
        lines.append("")
        for name, predicate in model.labels.items():
            lines.append(f'label "{name}" = {predicate_to_prism(predicate)};')
    lines.append("")
    return "\n".join(lines)
