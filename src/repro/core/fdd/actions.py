"""Actions stored in the leaves of probabilistic FDDs.

A leaf of a probabilistic FDD holds a distribution over *actions*, where
an action is either a finite set of field modifications or the special
``drop`` action (§5.1).  Applying an action to a packet yields the output
packet (or the drop outcome).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.core.packet import DROP, Packet, _DropType


@dataclass(frozen=True)
class Action:
    """A set of field modifications ``{f1 := n1, ..., fk := nk}``.

    The empty action is the identity (the packet passes unchanged).
    Actions compose left-to-right: ``a.then(b)`` first applies ``a`` and
    then ``b``, so ``b``'s modifications win on conflicting fields.
    """

    mods: tuple[tuple[str, int], ...]

    def __init__(self, mods: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        items = mods.items() if isinstance(mods, Mapping) else mods
        object.__setattr__(self, "mods", tuple(sorted(items)))

    # -- queries -------------------------------------------------------------
    def as_dict(self) -> dict[str, int]:
        return dict(self.mods)

    def get(self, field: str) -> int | None:
        """The value this action writes to ``field`` (None when untouched)."""
        for name, value in self.mods:
            if name == field:
                return value
        return None

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.mods)

    def is_identity(self) -> bool:
        return not self.mods

    # -- operations -----------------------------------------------------------
    def apply(self, packet: Packet) -> Packet:
        """Apply the modifications to a packet."""
        if not self.mods:
            return packet
        mods = dict(self.mods)
        # Fast path for modifications confined to the packet's own fields
        # (the common case on the loop-exploration hot path): the stored
        # items are already sorted, so rebuild them in one pass without
        # re-sorting or re-validating.
        items = tuple(
            (name, mods.pop(name)) if name in mods else (name, value)
            for name, value in packet.items()
        )
        if not mods:
            return Packet._from_sorted_items(items)
        return packet.set_many(dict(self.mods))

    def then(self, other: "Action | _DropType") -> "Action | _DropType":
        """Compose with a later action (or drop)."""
        if other is DROP or isinstance(other, _DropType):
            return DROP
        if not other.mods:
            return self
        merged = dict(self.mods)
        merged.update(other.mods)
        if len(merged) != len(self.mods):
            return Action(merged)
        # No new field: the dict kept this action's (sorted) field order.
        composed = object.__new__(Action)
        object.__setattr__(composed, "mods", tuple(merged.items()))
        return composed

    def __repr__(self) -> str:
        if not self.mods:
            return "Action(id)"
        inner = ", ".join(f"{f}:={v}" for f, v in self.mods)
        return f"Action({inner})"


IDENTITY = Action()
"""The identity action (no modifications)."""


ActionOrDrop = Action | _DropType
"""Type alias for what an FDD leaf distribution ranges over."""


def apply_action(action: ActionOrDrop, packet: Packet):
    """Apply an action or drop to a packet, returning ``Packet`` or ``DROP``."""
    if action is DROP or isinstance(action, _DropType):
        return DROP
    return action.apply(packet)
