"""Packets, the drop outcome, and finite packet universes.

A ProbNetKAT packet is a record mapping a finite set of fields to bounded
integers (paper, §3).  Packets are immutable and hashable so they can be
used as Markov-chain states and dictionary keys.

The special :data:`DROP` sentinel represents the absence of a packet (the
empty set ``∅`` of the paper, restricted to the single-packet state space
used by the implementation, §5).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


class _DropType:
    """Singleton type for the "no packet" outcome.

    The single-packet state space used by McNetKAT's backends is
    ``Pk + ∅``; :data:`DROP` plays the role of ``∅``.
    """

    _instance: "_DropType | None" = None

    def __new__(cls) -> "_DropType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "DROP"

    def __reduce__(self):
        # Keep the singleton property across pickling (multiprocessing).
        return (_DropType, ())

    def __hash__(self) -> int:
        return hash("repro.DROP")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _DropType)


DROP = _DropType()
"""The unique "packet was dropped" outcome."""


def _check_item(name: object, value: object) -> None:
    """Reject a ``(field, value)`` pair a packet cannot hold."""
    if type(name) is str and type(value) is int:  # the common case, decided first
        return
    if not isinstance(name, str):
        raise TypeError(f"field names must be strings, got {name!r}")
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"field values must be integers, got {name}={value!r}")


@dataclass(frozen=True, eq=False)
class Packet:
    """An immutable packet: a mapping from field names to integer values.

    Parameters
    ----------
    fields:
        Mapping from field name to value.  The mapping is stored as a
        sorted tuple of pairs so packets hash and compare structurally.

    Examples
    --------
    >>> pk = Packet({"sw": 1, "pt": 2})
    >>> pk["sw"]
    1
    >>> pk.set("pt", 3)["pt"]
    3
    >>> pk.set("pt", 3) == Packet({"sw": 1, "pt": 3})
    True
    """

    _items: tuple[tuple[str, int], ...]

    def __init__(self, fields: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        if isinstance(fields, Mapping):
            items = tuple(sorted(fields.items()))
        else:
            items = tuple(sorted(fields))
        for name, value in items:
            _check_item(name, value)
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_hash", hash(items))

    @classmethod
    def _from_sorted_items(cls, items: tuple[tuple[str, int], ...]) -> "Packet":
        """Packets are Markov-chain states: building and hashing them is a
        hot path, so this constructor skips validation and sorting for
        items already in canonical (sorted, type-checked) form — e.g.
        those derived from an existing packet's items.
        """
        packet = object.__new__(cls)
        object.__setattr__(packet, "_items", items)
        object.__setattr__(packet, "_hash", hash(items))
        return packet

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return self._items == other._items

    # -- mapping-like access -------------------------------------------------
    def __getitem__(self, field: str) -> int:
        for name, value in self._items:
            if name == field:
                return value
        raise KeyError(field)

    def get(self, field: str, default: int | None = None) -> int | None:
        """Return the value of ``field`` or ``default`` when absent."""
        for name, value in self._items:
            if name == field:
                return value
        return default

    def __contains__(self, field: str) -> bool:
        return any(name == field for name, _ in self._items)

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def fields(self) -> tuple[str, ...]:
        """The field names present in this packet, sorted."""
        return tuple(name for name, _ in self._items)

    def items(self) -> tuple[tuple[str, int], ...]:
        """Sorted ``(field, value)`` pairs."""
        return self._items

    def as_dict(self) -> dict[str, int]:
        """A plain mutable dictionary copy of the packet's fields."""
        return dict(self._items)

    # -- functional updates ---------------------------------------------------
    def set(self, field: str, value: int) -> "Packet":
        """Return ``π[field := value]`` — a copy with one field updated."""
        _check_item(field, value)
        items = self._items
        # (field,) sorts just before every (field, value): the slot of field.
        index = end = bisect_left(items, (field,))
        if index < len(items) and items[index][0] == field:
            if items[index][1] == value:
                return self
            end = index + 1
        return Packet._from_sorted_items(items[:index] + ((field, value),) + items[end:])

    def set_many(self, updates: Mapping[str, int]) -> "Packet":
        """Return a copy with several fields updated at once."""
        if not updates:
            return self
        for field, value in updates.items():
            _check_item(field, value)
        merged = dict(self._items)
        merged.update(updates)
        # Overwriting keeps a dict's (sorted) order; only new fields unsort it.
        items = merged.items() if len(merged) == len(self._items) else sorted(merged.items())
        return Packet._from_sorted_items(tuple(items))

    def test(self, field: str, value: int) -> bool:
        """Return ``True`` when the packet's ``field`` equals ``value``.

        Missing fields never match, mirroring the semantics of testing a
        field a program has not declared.
        """
        return self.get(field) == value

    def restrict(self, fields: Iterable[str]) -> "Packet":
        """Project the packet onto the given fields (missing ones ignored)."""
        wanted = set(fields)
        return Packet._from_sorted_items(tuple(i for i in self._items if i[0] in wanted))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self._items)
        return f"Packet({inner})"


class PacketUniverse:
    """The finite set of all packets over declared field domains.

    The reference (set-based) semantics of Appendix A quantifies over the
    full packet universe ``Pk``; this helper enumerates it for the small
    universes used in soundness tests.

    Parameters
    ----------
    domains:
        Mapping from field name to an iterable of admissible values.

    Examples
    --------
    >>> u = PacketUniverse({"f": [0, 1]})
    >>> sorted(p["f"] for p in u)
    [0, 1]
    >>> u.size
    2
    """

    def __init__(self, domains: Mapping[str, Iterable[int]]):
        self._domains: dict[str, tuple[int, ...]] = {
            name: tuple(sorted(set(values))) for name, values in sorted(domains.items())
        }
        for name, values in self._domains.items():
            if not values:
                raise ValueError(f"field {name!r} has an empty domain")
        self._packets: tuple[Packet, ...] = tuple(self._enumerate())

    def _enumerate(self) -> Iterator[Packet]:
        names = list(self._domains)
        def rec(idx: int, acc: dict[str, int]) -> Iterator[Packet]:
            if idx == len(names):
                yield Packet(dict(acc))
                return
            name = names[idx]
            for value in self._domains[name]:
                acc[name] = value
                yield from rec(idx + 1, acc)
            acc.pop(name, None)
        yield from rec(0, {})

    @property
    def domains(self) -> dict[str, tuple[int, ...]]:
        """The per-field value domains (sorted tuples)."""
        return dict(self._domains)

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(self._domains)

    @property
    def packets(self) -> tuple[Packet, ...]:
        """All packets of the universe, in a fixed deterministic order."""
        return self._packets

    @property
    def size(self) -> int:
        return len(self._packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._packets)

    def __len__(self) -> int:
        return len(self._packets)

    def __contains__(self, packet: Packet) -> bool:
        if not isinstance(packet, Packet):
            return False
        if set(packet.fields) != set(self._domains):
            return False
        return all(packet[f] in self._domains[f] for f in self._domains)

    def subsets(self) -> Iterator[frozenset[Packet]]:
        """Enumerate all subsets of the universe (``2^Pk``).

        Only feasible for very small universes; used by the reference
        big-step and small-step semantics.
        """
        packets = self._packets
        n = len(packets)
        if n > 16:
            raise ValueError(
                f"refusing to enumerate 2^{n} packet sets; universe too large"
            )
        for mask in range(1 << n):
            yield frozenset(packets[i] for i in range(n) if mask & (1 << i))

    def __repr__(self) -> str:
        doms = ", ".join(f"{k}:{list(v)}" for k, v in self._domains.items())
        return f"PacketUniverse({doms})"
