"""Unit tests for packets, the drop sentinel, and packet universes."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.packet import DROP, Packet, PacketUniverse, _DropType


class TestPacket:
    def test_field_access(self):
        pk = Packet({"sw": 1, "pt": 2})
        assert pk["sw"] == 1
        assert pk.get("pt") == 2
        assert pk.get("missing") is None

    def test_missing_field_raises(self):
        with pytest.raises(KeyError):
            Packet({"sw": 1})["pt"]

    def test_set_returns_new_packet(self):
        pk = Packet({"sw": 1})
        updated = pk.set("sw", 2)
        assert updated["sw"] == 2
        assert pk["sw"] == 1

    def test_set_many(self):
        pk = Packet({"sw": 1}).set_many({"pt": 2, "sw": 3})
        assert pk.as_dict() == {"sw": 3, "pt": 2}

    def test_equality_is_structural(self):
        assert Packet({"a": 1, "b": 2}) == Packet({"b": 2, "a": 1})
        assert hash(Packet({"a": 1})) == hash(Packet({"a": 1}))

    def test_test_missing_field_is_false(self):
        assert not Packet({"sw": 1}).test("pt", 2)
        assert Packet({"sw": 1}).test("sw", 1)

    def test_restrict(self):
        pk = Packet({"sw": 1, "pt": 2, "up": 1})
        assert pk.restrict(["sw", "pt"]).as_dict() == {"sw": 1, "pt": 2}

    def test_rejects_non_integer_values(self):
        with pytest.raises(TypeError):
            Packet({"sw": "one"})
        with pytest.raises(TypeError):
            Packet({"sw": True})

    def test_iteration_and_len(self):
        pk = Packet({"b": 2, "a": 1})
        assert list(pk) == ["a", "b"]
        assert len(pk) == 2
        assert "a" in pk

    def test_pickle_roundtrip(self):
        pk = Packet({"sw": 5, "pt": 3})
        assert pickle.loads(pickle.dumps(pk)) == pk

    @given(st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(0, 10)))
    def test_as_dict_roundtrip(self, fields):
        assert Packet(fields).as_dict() == fields

    @given(
        st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), st.integers(0, 3)),
        st.dictionaries(st.sampled_from(["", "a", "bb", "c", "e"]), st.integers(0, 3)),
    )
    def test_updates_equal_rebuilding_from_a_dict(self, fields, updates):
        """set / set_many / restrict splice sorted items; the canonical form holds."""
        packet = Packet(fields)
        merged = Packet({**fields, **updates})
        assert packet.set_many(updates) == merged
        assert hash(packet.set_many(updates)) == hash(merged)
        assert packet.set_many(updates).items() == merged.items()
        stepwise = packet
        for name, value in updates.items():
            stepwise = stepwise.set(name, value)
        assert stepwise.items() == merged.items()
        kept = Packet({k: v for k, v in fields.items() if k in updates})
        assert packet.restrict(updates).items() == kept.items()
        assert hash(packet.restrict(updates)) == hash(kept)

    def test_set_to_the_current_value_changes_nothing(self):
        pk = Packet({"sw": 1, "pt": 2})
        assert pk.set("pt", 2) == pk
        assert pk.set_many({}) is pk

    @pytest.mark.parametrize("name, value", [(1, 1), ("sw", "one"), ("sw", True), ("sw", 1.0)])
    def test_updates_reject_what_the_constructor_rejects(self, name, value):
        pk = Packet({"sw": 1, "pt": 2})
        with pytest.raises(TypeError):
            pk.set(name, value)
        with pytest.raises(TypeError):
            pk.set_many({"pt": 3, name: value})


class TestDrop:
    def test_singleton(self):
        assert _DropType() is DROP

    def test_pickle_preserves_singleton(self):
        assert pickle.loads(pickle.dumps(DROP)) is DROP

    def test_equality_and_hash(self):
        assert DROP == _DropType()
        assert hash(DROP) == hash(_DropType())
        assert DROP != Packet({})


class TestPacketUniverse:
    def test_enumeration(self):
        u = PacketUniverse({"f": [0, 1], "g": [0, 1, 2]})
        assert u.size == 6
        assert len(list(u)) == 6

    def test_contains(self):
        u = PacketUniverse({"f": [0, 1]})
        assert Packet({"f": 1}) in u
        assert Packet({"f": 5}) not in u
        assert Packet({"f": 1, "g": 0}) not in u

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            PacketUniverse({"f": []})

    def test_subsets_count(self):
        u = PacketUniverse({"f": [0, 1]})
        assert len(list(u.subsets())) == 4

    def test_subsets_refuses_large_universe(self):
        u = PacketUniverse({"f": list(range(20))})
        with pytest.raises(ValueError):
            list(u.subsets())

    def test_domains_sorted_and_deduplicated(self):
        u = PacketUniverse({"f": [2, 1, 1]})
        assert u.domains == {"f": (1, 2)}
