"""Per-switch compilation of spine-shaped sequences, checked without a clock.

The compiler builds ``case sw=… ; case sw=… ; …`` one dispatch value at a
time and joins the per-value runs once.  The oracle for *what* it must
build is the monolithic product, assembled here from public ``ops``:
``reduce(sequence_all([compile(part) …]))``.  It lives in the test tree
only — the product code has one compile path for these sequences.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.backends import MatrixBackend
from repro.core import compiler as compiler_module
from repro.core import equivalence
from repro.core import sugar
from repro.core import syntax as s
from repro.core.compiler import Compiler, RolePlan
from repro.core.distributions import Dist
from repro.core.fdd import ops
from repro.core.fdd.evaluator import dispatch_spine
from repro.core.fdd.flat import ClassLayout, FlatDiagram
from repro.core.fdd.matrix import matrix_domains
from repro.core.fdd.node import FddManager, node_size, output_distribution
from repro.core.interpreter import Interpreter, eval_predicate
from repro.core.packet import DROP, Packet
from repro.failure.models import independent_failure_program
from repro.network import running_example
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy, f10_model
from repro.topology import ab_fat_tree, edge_switches, fat_tree

from test_properties import examples


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def monolithic(compiler: Compiler, parts) -> object:
    """The oracle: every part compiled whole, multiplied left to right."""
    return ops.reduce(ops.sequence_all([compiler.compile(part) for part in parts]))


def loop_free_runs(policy: s.Policy) -> list[list[s.Policy]]:
    """The sequences a query plan compiles: runs between loops, and loop bodies.

    A run that ends in its loop's own body parts (the same objects) loses
    them: the loop stage runs ``body ; while guard do body`` as a do-while.
    """
    runs: list[list[s.Policy]] = []
    pending: list[s.Policy] = []
    for part in policy.parts:
        if isinstance(part, s.WhileDo):
            body = list(part.body.parts)
            if len(pending) >= len(body) and all(
                mine is theirs for mine, theirs in zip(pending[-len(body):], body)
            ):
                del pending[-len(body):]
            runs.append(pending)
            runs.append(body)
            pending = []
        else:
            pending.append(part)
    runs.append(pending)
    return [run for run in runs if run]


def first_hop_and_body(policy: s.Policy) -> tuple[s.Policy, s.Policy]:
    """What precedes a model's loop (its lead and first hop), and the loop's body.

    The interpreter compiles both; the plan compiles only the body.
    """
    parts = policy.parts
    loop = next(i for i, part in enumerate(parts) if isinstance(part, s.WhileDo))
    return s.seq(*parts[:loop]), parts[loop].body


def first_mention_order(policy: s.Policy) -> tuple[str, ...]:
    """Field names in the order the program text first mentions them."""
    order: dict[str, None] = {}
    for node in policy.walk():
        if isinstance(node, (s.Test, s.Assign)):
            order.setdefault(node.field)
    return tuple(order)


def documented_field_order(policy: s.Policy) -> tuple[str, ...]:
    """The rule of ``Compiler._compile_seq``: the spine's dispatch field, the
    other fields its re-assigning part writes, then first mention."""
    located = dispatch_spine(policy.parts)[3]
    return located + tuple(
        name for name in first_mention_order(policy) if name not in located
    )


def fattree_model(k: int, failures: bool):
    topology = fat_tree(k)
    dest = edge_switches(topology)[0]
    failable = downward_failable_ports(topology) if failures else None
    failure = (
        independent_failure_program(failable, Fraction(1, 1000)) if failures else None
    )
    return build_model(
        topology,
        routing=ecmp_policy(topology, dest),
        dest=dest,
        failure=failure,
        failable=failable,
    )


def f10_batch_model(k: int = 6):
    topology = ab_fat_tree(k)
    return f10_model(
        topology,
        edge_switches(topology)[1],
        scheme="f10_3",
        failure_probability=Fraction(1, 1000),
        max_failures=3,
    )


# ---------------------------------------------------------------------------
# (1) identity with the monolithic product
# ---------------------------------------------------------------------------

class TestSameDiagramsAsTheMonolithicProduct:
    """The change alters how diagrams are built, never which diagrams."""

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: fattree_model(4, True), id="fattree4-failures"),
            pytest.param(lambda: fattree_model(6, True), id="fattree6-failures"),
            pytest.param(lambda: fattree_model(8, False), id="fattree8"),
            pytest.param(lambda: fattree_model(10, False), id="fattree10"),
            pytest.param(f10_batch_model, id="f10_3-k6-batch"),
        ],
    )
    def test_plan_stages_are_the_oracles_interned_nodes(self, build):
        model = build()
        backend = MatrixBackend()
        plan = backend.plan(model.policy)
        # Fields were registered by the per-switch compile alone: the
        # oracle below runs in the same manager, afterwards.
        assert backend.manager.fields == documented_field_order(model.policy)
        assert backend.manager.fields[:2] == ("sw", "pt")  # the packet's location
        built = [
            stage.fdd if hasattr(stage, "fdd") else stage.body_fdd
            for stage in plan.stages
        ]
        oracles = [monolithic(backend.compiler, run) for run in loop_free_runs(model.policy)]
        expected = [fdd for fdd in oracles if fdd is not backend.manager.true_leaf]
        assert len(built) == len(expected)
        for got, want in zip(built, expected):
            assert got is want

    def test_first_hop_and_loop_body_share_per_switch_tails(self):
        """The loop body is compiled from cache hits: no new ``sequence`` entries."""
        first_hop, body = first_hop_and_body(fattree_model(4, True).policy)
        compiler = Compiler()
        compiler.compile(first_hop)
        products = len(compiler.manager.op_cache("sequence"))
        compiler.compile(body)
        assert len(compiler.manager.op_cache("sequence")) == products


# -- randomly generated spine-shaped sequences ---------------------------------

DISPATCH = "sw"
DOMAIN = {"sw": range(5), "pt": range(3), "up": range(3)}  # one unmentioned value each
PACKETS = [
    Packet(dict(zip(DOMAIN, values))) for values in itertools.product(*DOMAIN.values())
]

_tests = st.builds(
    s.test, st.sampled_from(["sw", "pt", "up"]), st.sampled_from([0, 1])
) | st.builds(s.test, st.just("sw"), st.sampled_from([0, 1, 2, 3]))
_assigns = st.builds(
    s.assign, st.sampled_from(["pt", "up"]), st.sampled_from([0, 1])
) | st.builds(s.assign, st.just("sw"), st.sampled_from([0, 1, 2, 3]))
_weights = st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)])
_steps = st.one_of(
    _assigns,
    _tests,
    st.just(s.skip()),
    st.just(s.drop()),
    st.builds(lambda a, b, r: s.choice((a, r), (b, 1 - r)), _assigns, _assigns, _weights),
    st.builds(s.ite, _tests, _assigns, st.one_of(_assigns, st.just(s.drop()))),
    st.builds(lambda a, b: s.seq(a, b), _assigns, _assigns),
)
_cases = st.builds(
    lambda branches, default: s.case(
        [(s.test(DISPATCH, value), branch) for value, branch in branches], default
    ),
    # Values repeat (duplicate guards) and differ between tables.
    st.lists(st.tuples(st.sampled_from([0, 1, 2, 3]), _steps), min_size=1, max_size=5),
    st.one_of(st.just(s.drop()), st.just(s.skip()), _assigns),
)
_other_parts = st.one_of(
    _steps,
    st.builds(lambda a, b, c: s.disj(s.conj(a, b), c), _tests, _tests, _tests),
    st.builds(s.neg, _tests),
)
_sequences = st.lists(st.one_of(_cases, _cases, _other_parts), min_size=2, max_size=5)


def assert_agrees_with_oracle_and_interpreter(parts: list[s.Policy]) -> None:
    compiler = Compiler(exact=True)
    got = compiler.compile(s.Seq(tuple(parts)))
    want = monolithic(compiler, parts)
    reference = Interpreter(exact=True, compile_bodies=False)
    for packet in PACKETS:
        row = output_distribution(got, packet)
        assert row == output_distribution(want, packet), packet
        assert row == reference.run_packet(s.Seq(tuple(parts)), packet), packet
        assert all(isinstance(mass, (Fraction, int)) for _, mass in row.items())


class TestSpineShapedSequencesEvaluateLikeTheOracle:
    """FDDs are not canonical under redundant multi-valued tests, so here
    the demand is equal behaviour on every class of the joint domain."""

    @settings(max_examples=examples(150), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_sequences)
    def test_generated_sequences(self, parts):
        assume(dispatch_spine(parts) is not None)
        assert_agrees_with_oracle_and_interpreter(parts)

    def sw_case(self, table: dict[int, s.Policy] | list, default: s.Policy = s.drop()):
        items = table.items() if isinstance(table, dict) else table
        return s.case([(s.test(DISPATCH, value), branch) for value, branch in items], default)

    def test_dispatch_field_reassigned_before_a_later_case(self):
        move = self.sw_case({0: s.assign("sw", 1), 1: s.assign("sw", 2)}, s.skip())
        mark = self.sw_case({1: s.assign("pt", 1), 2: s.assign("pt", 0)})
        spine = dispatch_spine([move, mark])
        assert spine is not None and spine[1][1] is None and spine[2] == 1
        assert_agrees_with_oracle_and_interpreter([move, mark])

    def test_duplicate_guards_keep_the_first_branch(self):
        first = self.sw_case([(0, s.assign("pt", 1)), (0, s.assign("pt", 0)), (1, s.drop())])
        assert_agrees_with_oracle_and_interpreter([first, self.sw_case({0: s.assign("up", 1)})])

    def test_value_present_in_only_one_table(self):
        left = self.sw_case({0: s.assign("pt", 1), 1: s.assign("pt", 0)}, s.skip())
        right = self.sw_case({1: s.assign("up", 1), 2: s.assign("up", 0)}, s.assign("up", 2))
        assert_agrees_with_oracle_and_interpreter([left, right])

    def test_destination_absent_from_routing_but_present_in_topology(self):
        routing = self.sw_case({1: s.assign("pt", 1), 2: s.assign("pt", 0)})
        topology = self.sw_case(
            {
                0: s.assign("sw", 1),
                1: s.ite(s.test("pt", 1), s.assign("sw", 0), s.drop()),
                2: s.assign("sw", 1),
            }
        )
        assert_agrees_with_oracle_and_interpreter([routing, topology, s.assign("up", 1)])

    def test_reachable_default(self):
        half = Fraction(1, 2)
        first = self.sw_case({0: s.assign("pt", 1)}, s.choice((s.assign("pt", 0), half), (s.drop(), half)))
        second = self.sw_case({1: s.assign("up", 1)}, s.assign("up", 0))
        assert_agrees_with_oracle_and_interpreter([first, second])

    def test_other_parts_that_test_the_dispatch_field(self):
        ingress = s.disj(s.conj(s.test("sw", 0), s.test("pt", 1)), s.test("sw", 2), s.test("sw", 4))
        hop = self.sw_case({0: s.assign("sw", 2), 2: s.assign("sw", 3)}, s.assign("sw", 0))
        arrived = s.neg(s.test("sw", 3))
        assert_agrees_with_oracle_and_interpreter([s.assign("up", 1), ingress, hop, arrived])

    def test_a_value_that_runs_like_the_default_adds_no_test(self):
        """``sw=1`` behaves as every unlisted switch does: its test is not built."""
        parts = [
            self.sw_case({0: s.assign("pt", 1), 1: s.assign("pt", 0)}, s.assign("pt", 0)),
            s.assign("up", 1),
        ]
        compiler = Compiler(exact=True)
        got = compiler.compile(s.Seq(tuple(parts)))
        assert got is monolithic(compiler, parts)
        assert got.test == ("sw", 0) and got.lo.is_leaf()


# ---------------------------------------------------------------------------
# (2) roles and sampler-first change how a run is built, never what is built
# ---------------------------------------------------------------------------

@pytest.fixture
def whole_program_compile(monkeypatch):
    """Switch the compiler to the pre-change behaviour: no sequence has a spine."""
    def enable():
        monkeypatch.setattr(compiler_module, "dispatch_spine", lambda parts: None)
    return enable


@pytest.fixture
def one_run_per_switch(monkeypatch):
    """A context in which every value compiles its own run, folded left to right.

    Roles and sampler-first off: the per-switch compile as it was before
    either.  A context manager, not a switch, so one test can compile
    both ways in one manager.
    """
    @contextmanager
    def active():
        with monkeypatch.context() as patch:
            patch.setattr(compiler_module, "_samples", lambda node: False)
            patch.setattr(compiler_module, "_role", lambda *args: None)
            yield
    return active


NET_SWITCHES = (0, 1, 2, 3)
NET_PORTS = (0, 1, 2)
NET_FLAGS = ("up0", "up1", "up2")  # up0 is shared; a switch samples a subset
NET_INGRESS = [
    Packet({"sw": sw, "pt": pt, **dict.fromkeys(NET_FLAGS, up), "hops": 0})
    for sw in (*NET_SWITCHES, 4)  # one switch no part mentions
    for pt in (*NET_PORTS, 3)
    for up in (1, 0)
]
_probabilities = st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 1000)])


@st.composite
def _switch_kinds(draw):
    """What switches of one role share: everything but where their links lead."""
    flags = draw(st.lists(st.sampled_from(NET_FLAGS), unique=True, max_size=3))
    pr = draw(_probabilities)
    routed = draw(st.lists(st.sampled_from(NET_PORTS), unique=True, max_size=3))
    return {
        "samplers": [s.choice((s.assign(up, 0), pr), (s.assign(up, 1), 1 - pr)) for up in flags],
        "routing": s.uniform(*[s.assign("pt", port) for port in routed]) if routed else s.drop(),
        # port -> the flag guarding its link, or None for a link that cannot fail
        "links": {
            port: draw(st.sampled_from([None, *NET_FLAGS]))
            for port in draw(st.lists(st.sampled_from(NET_PORTS), unique=True, min_size=1))
        },
        # What a link does after it has moved the packet (the last two make
        # the branch unfit for a role: a located field is tested after it is set).
        "after_move": draw(st.sampled_from(
            [s.skip()] * 4 + [s.assign("up0", 1), s.test("pt", 1), s.neg(s.test("sw", 2))]
        )),
    }


@st.composite
def network_programs(draw):
    """Sequences shaped like a network model: lead, ``case sw`` parts, suffix.

    Switches draw their kind from two, so roles are shared, and their
    peers freely, so a link may lead back to its own switch.
    """
    kinds = draw(st.lists(_switch_kinds(), min_size=1, max_size=2))
    kind_of = {sw: draw(st.sampled_from(kinds)) for sw in NET_SWITCHES}
    failure, routing, topology = [], [], []
    for sw, kind in kind_of.items():
        failure.append((s.test("sw", sw), s.seq(*kind["samplers"])))
        routing.append((s.test("sw", sw), kind["routing"]))
        ports = []
        for port, flag in kind["links"].items():
            peer, peer_port = draw(st.sampled_from(NET_SWITCHES)), draw(st.sampled_from(NET_PORTS))
            move = s.seq(s.assign("sw", peer), s.assign("pt", peer_port), kind["after_move"])
            rule = move if flag is None else s.ite(s.test(flag, 1), move, s.drop())
            ports.append((s.test("pt", port), rule))
        topology.append((s.test("sw", sw), s.case(ports, s.drop())))
    parts = [s.case(routing, s.drop()), s.case(topology, s.drop())]
    if draw(st.booleans()):
        parts.insert(0, s.case(failure, s.skip()))
    if draw(st.booleans()):  # a lead: local initialisation and an ingress predicate
        ingress = draw(st.lists(
            st.tuples(st.sampled_from(NET_SWITCHES), st.sampled_from(NET_PORTS)), min_size=1
        ))
        parts[:0] = [
            s.assign("up1", 1),
            s.disj(*[s.conj(s.test("sw", sw), s.test("pt", pt)) for sw, pt in ingress]),
        ]
    if draw(st.booleans()):
        parts.append(sugar.set_all(NET_FLAGS, 1))
    if draw(st.booleans()):
        parts.append(sugar.increment("hops", 2))
    # A sampler of its own, or a test of a located field: no value of a
    # sequence with the latter has a role.
    half = Fraction(1, 2)
    parts.append(draw(st.sampled_from(
        [s.skip()] * 3 + [
            s.choice((s.assign("up2", 0), half), (s.assign("up2", 1), half)),
            s.neg(s.test("sw", 1)),
            s.ite(s.test("pt", 0), s.assign("pt", 2)),
        ]
    )))
    return [part for part in parts if part != s.skip()]


def assert_same_node_either_way(parts, one_run_per_switch) -> None:
    """(a) the node the plain per-switch compile interns; (b) the interpreter's answers."""
    program = s.Seq(tuple(parts))
    compiler = Compiler(exact=True)
    got = compiler.compile(program)
    with one_run_per_switch():
        # A second compiler (the first remembers the program), the same manager.
        want = Compiler(manager=compiler.manager, exact=True).compile(program)
    assert got is want
    reference = Interpreter(exact=True, compile_bodies=False)
    for packet in NET_INGRESS:
        assert output_distribution(got, packet) == reference.run_packet(program, packet), packet


class TestRolesAndSamplerFirstBuildTheSameNodes:
    @settings(
        max_examples=examples(100),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(network_programs())
    def test_generated_network_programs(self, one_run_per_switch, parts):
        assert_same_node_either_way(parts, one_run_per_switch)

    def network(self, topology: dict[int, s.Policy], suffix: s.Policy = s.skip()):
        """Four switches sampling two flags each, ECMP over two ports, ``topology``, resets."""
        half = Fraction(1, 2)
        sample = s.seq(*[s.choice((s.assign(up, 0), half), (s.assign(up, 1), half)) for up in ("up0", "up1")])
        route = s.uniform(s.assign("pt", 0), s.assign("pt", 1))
        sw_case = lambda table, default: s.case(
            [(s.test("sw", sw), branch) for sw, branch in table.items()], default
        )
        return [
            sw_case(dict.fromkeys(topology, sample), s.skip()),
            sw_case(dict.fromkeys(topology, route), s.drop()),
            sw_case(topology, s.drop()),
            sugar.set_all(("up0", "up1"), 1),
            suffix,
        ]

    def links(self, *peers: tuple[int, int]) -> s.Policy:
        """Port ``i`` leads to ``peers[i]`` while ``up<i>`` holds."""
        return s.case(
            [
                (s.test("pt", port), s.ite(s.test(f"up{port}", 1), s.seq(s.assign("sw", sw), s.assign("pt", pt)), s.drop()))
                for port, (sw, pt) in enumerate(peers)
            ],
            s.drop(),
        )

    def roles(self, parts) -> tuple[int, int]:
        compiler = Compiler(exact=True)
        compiler.compile(s.Seq(tuple(parts)))
        counters = compiler.manager.counters
        return counters["compile_roles"], counters["role_instances"]

    def test_switches_that_differ_in_their_peers_share_one_role(self, one_run_per_switch):
        parts = self.network({
            0: self.links((1, 2), (2, 0)),
            1: self.links((2, 1), (3, 0)),
            2: self.links((3, 0), (0, 2)),
            3: self.links((0, 1), (1, 0)),
        })
        assert self.roles(parts) == (1, 4)
        assert_same_node_either_way(parts, one_run_per_switch)

    def test_a_self_loop_is_a_role_of_its_own(self, one_run_per_switch):
        """``sw <- v`` at switch ``v`` is placeholder zero: the join's ``reduce`` drops it."""
        parts = self.network({
            0: self.links((0, 2), (2, 0)),  # port 0 leads back to switch 0
            1: self.links((1, 2), (3, 0)),  # and port 0 of switch 1 to switch 1
            2: self.links((3, 2), (0, 0)),
            3: self.links((0, 1), (1, 0)),
        })
        assert self.roles(parts) == (2, 4)
        assert_same_node_either_way(parts, one_run_per_switch)

    def test_two_ports_with_one_peer_are_not_two_ports_with_two(self, one_run_per_switch):
        """The renaming is injective per field: equal constants, equal placeholders."""
        parts = self.network({0: self.links((1, 1), (1, 1)), 2: self.links((1, 1), (3, 1))})
        assert self.roles(parts) == (2, 2)
        assert_same_node_either_way(parts, one_run_per_switch)

    def test_a_suffix_that_tests_a_located_field_leaves_no_roles(self, one_run_per_switch):
        topology = {0: self.links((1, 2), (2, 0)), 1: self.links((2, 1), (3, 1))}
        for suffix in (s.neg(s.test("sw", 2)), s.ite(s.test("pt", 1), s.assign("up0", 0))):
            parts = self.network(topology, suffix)
            assert self.roles(parts) == (0, 0)
            assert_same_node_either_way(parts, one_run_per_switch)

    def test_assign_then_test_inside_the_moving_part_leaves_that_value_without_a_role(
        self, one_run_per_switch
    ):
        arrived = s.seq(s.assign("sw", 2), s.assign("pt", 1), s.test("pt", 1))
        parts = self.network({
            0: self.links((1, 2), (2, 0)),
            1: s.case([(s.test("pt", 0), arrived)], s.drop()),
            3: self.links((2, 1), (0, 2)),
        })
        assert self.roles(parts) == (1, 2)
        assert_same_node_either_way(parts, one_run_per_switch)

    def test_a_branch_with_a_loop_takes_the_plain_run(self, one_run_per_switch):
        spin = s.seq(s.while_do(s.test("up0", 0), s.assign("up0", 1)), s.assign("sw", 1))
        parts = self.network({0: self.links((1, 2), (2, 0)), 1: spin})
        assert self.roles(parts) == (1, 1)
        assert_same_node_either_way(parts, one_run_per_switch)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: fattree_model(4, True), id="fattree4-failures"),
            pytest.param(lambda: fattree_model(6, True), id="fattree6-failures"),
            pytest.param(lambda: fattree_model(8, False), id="fattree8"),
            pytest.param(lambda: fattree_model(10, False), id="fattree10"),
            pytest.param(lambda: f10_batch_model(6), id="f10_3-k6"),
            pytest.param(
                lambda: f10_model(
                    ab_fat_tree(4), 1, scheme="f10_3_5",
                    failure_probability=Fraction(1, 1000), max_failures=3,
                ),
                id="f10_3_5-k4",
            ),
            pytest.param(
                lambda: f10_model(
                    ab_fat_tree(4), 1, scheme="f10_3_5",
                    failure_probability=Fraction(1, 4), count_hops=True, max_hops=14,
                ),
                id="fig12-hop-count",
            ),
        ],
    )
    def test_models_plan_to_the_same_nodes_and_the_same_key(self, build, one_run_per_switch):
        model = build()
        backend = MatrixBackend()
        plan = backend.plan(model.policy)
        built = [
            stage.fdd if hasattr(stage, "fdd") else stage.body_fdd for stage in plan.stages
        ]
        with one_run_per_switch():
            plain = Compiler(manager=backend.manager)
            runs = [plain.compile(s.seq(*run)) for run in loop_free_runs(model.policy)]
            plain_key = MatrixBackend().plan_key(model.policy)
        expected = [fdd for fdd in runs if fdd is not backend.manager.true_leaf]
        assert len(built) == len(expected)
        for got, want in zip(built, expected):
            assert got is want
        assert backend.plan_key(model.policy) == plain_key


# ---------------------------------------------------------------------------
# (3) exact arithmetic is untouched
# ---------------------------------------------------------------------------


def weights(dist) -> dict:
    return dict(dist.items())


class TestExactModeIsFractionIdentical:
    def test_compiler_on_the_running_example(self, whole_program_compile):
        bundle = running_example.build()
        models = [*bundle.models_naive.values(), *bundle.models_resilient.values()]
        after = [
            weights(output_distribution(Compiler(exact=True).compile(m), bundle.ingress_packet))
            for m in models
        ]
        whole_program_compile()
        before = [
            weights(output_distribution(Compiler(exact=True).compile(m), bundle.ingress_packet))
            for m in models
        ]
        assert after == before
        assert all(isinstance(mass, Fraction) for row in after for mass in row.values())

    def test_compiler_and_native_backend_on_f10_3_p4(self, whole_program_compile):
        model = f10_model(
            ab_fat_tree(4), 1, scheme="f10_3",
            failure_probability=Fraction(1, 4), max_failures=2,
        )
        first_hop, body = first_hop_and_body(model.policy)
        locations = [
            Packet({**packet.as_dict(), "fails": fails, "up1": 1, "up2": up})
            for packet in model.ingress_packets
            for fails in (0, 2)
            for up in (0, 1)
        ]

        def measure():
            compiler = Compiler(exact=True)
            hop = compiler.compile(first_hop)
            loop = compiler.compile(body)
            rows = [weights(output_distribution(hop, pk)) for pk in model.ingress_packets]
            rows += [weights(output_distribution(loop, pk)) for pk in locations]
            native = Interpreter(exact=True).output_distributions(
                model.policy, model.ingress_packets
            )
            return rows, {pk: weights(dist) for pk, dist in native.items()}

        after = measure()
        whole_program_compile()
        before = measure()
        assert after == before
        assert all(isinstance(mass, Fraction) for row in after[0] for mass in row.values())
        assert all(
            isinstance(mass, Fraction) for row in after[1].values() for mass in row.values()
        )


# ---------------------------------------------------------------------------
# (4) work, counted
# ---------------------------------------------------------------------------

#: restrict_eq + restrict_ne + ite memo entries for one FatTree
#: k=6-with-failures plan.  Whole-program compilation made 170 058 (the
#: i-th switch carried i disequalities through every product); per-switch
#: compilation made 12 339, and makes 1 301 with the location fields
#: ranked first and chains walked once.  The count is deterministic.
COMPILE_OPS_CEILING = 16_000


def compile_ops(manager) -> int:
    return sum(len(manager.op_cache(name)) for name in ("restrict_eq", "restrict_ne", "ite"))


def test_compile_work_for_fattree6_with_failures_stays_linear_in_switches():
    backend = MatrixBackend()
    backend.plan(fattree_model(6, True).policy)
    assert compile_ops(backend.manager) < COMPILE_OPS_CEILING


def test_the_count_repeats_and_separates_the_two_strategies(whole_program_compile):
    def count() -> int:
        backend = MatrixBackend()
        backend.plan(fattree_model(4, True).policy)
        return compile_ops(backend.manager)

    # A count, not a timing: it repeats exactly.  237 while the plan
    # compiled the first hop a second time and the ingress predicate by
    # one ``disjoin`` (``ite``) per host port; 148 while the plan joined
    # the per-switch runs with one ``ite`` each (the plan is per role now,
    # and the join waits for the whole diagram to be asked for); 92 while
    # each local flag the head writes walked the whole ingress predicate,
    # which tests none of them.
    assert count() == count() == 50
    whole_program_compile()
    # No spine: every product is whole, and no field is ranked first (2 277
    # while restrict_action walked diagrams for fields they do not test).
    assert count() == 1_909


def test_a_write_restricts_only_diagrams_that_test_its_field(monkeypatch):
    """The head's local flags are ranked below every test of the ingress
    predicate, so their writes leave it as it is, without walking it."""
    policy = fattree_model(8, True).policy

    def plan() -> tuple[int, int, object]:
        backend = MatrixBackend()
        backend.plan(policy)
        stats = backend.manager.stats()
        return stats["memo"]["restrict_eq"], stats["nodes"], backend.plan_key(policy)

    skipping = plan()
    monkeypatch.setattr(ops, "deepest_rank", lambda node: sys.maxsize)
    walking = plan()
    assert (skipping[0], walking[0]) == (58, 352)
    assert skipping[1:] == walking[1:]  # the same diagrams, the same plan


#: What ``restrict``/``ite`` memo entries do not see: they read 9 523 on a
#: FatTree k=12-with-failures plan that composed 233 930 leaf actions.
COMPILE_COUNTERS = ("leaf_actions_composed", "compile_roles", "role_instances")


def test_the_compile_counters_repeat_and_reach_solver_stats(one_run_per_switch):
    def count(k: int) -> tuple[int, ...]:
        backend = MatrixBackend()
        backend.plan(fattree_model(k, True).policy)
        stats = backend.solver_stats()
        assert all(stats[name] == backend.manager.stats()[name] for name in COMPILE_COUNTERS)
        return tuple(stats[name] for name in COMPILE_COUNTERS)

    # Seven roles at every k, the loop body's: the first hop is the loop
    # stage's do-while, not a second per-switch compile (that was 14 roles).
    # No switch's diagram is renamed from its role's: the plan stays per
    # role (20 and 45 renamed while the plan joined one diagram per switch).
    assert count(4) == count(4) == (47, 7, 0)
    assert count(6) == (64, 7, 0)
    with one_run_per_switch():
        assert count(6) == (1_432, 0, 0)  # a 2^k-action leaf per core switch


# ---------------------------------------------------------------------------
# (5) wide predicates
# ---------------------------------------------------------------------------

class TestWidePredicates:
    TERMS = 2000

    def wide(self):
        """One term per host port: 250 switches of 8, a fat-tree's ingress shape."""
        return [s.conj(s.test("sw", i // 8), s.test("pt", i % 8)) for i in range(self.TERMS)]

    def test_constructors_build_log_depth_trees(self):
        def depth(pred) -> int:
            levels = 0
            while isinstance(pred, (s.And, s.Or)):
                pred, levels = pred.left, levels + 1
            return levels

        assert depth(s.disj(*self.wide())) == 11 + 1  # ⌈log₂ 2000⌉ Ors over one And
        assert depth(s.conj(*[s.neg(term) for term in self.wide()])) == 11
        # Order and small cases are what they always were.
        a, b, c = s.test("f", 1), s.test("g", 1), s.test("h", 1)
        assert s.disj(a, b, c) == s.Or(s.Or(a, b), c)
        assert s.conj(a, s.skip(), b) == s.And(a, b)
        assert s.disj() == s.drop() and s.conj() == s.skip()
        assert s.disj(s.drop(), a) is a

    def test_two_thousand_terms_compile_and_interpret(self):
        assert sys.getrecursionlimit() <= 1000
        pred = s.disj(*self.wide())
        inside, outside = Packet({"sw": 123, "pt": 5}), Packet({"sw": 123, "pt": 9})
        fdd = Compiler().compile(pred)
        assert output_distribution(fdd, inside).support() == frozenset([inside])
        assert output_distribution(fdd, outside).support() == frozenset([DROP])
        assert eval_predicate(pred, inside) and not eval_predicate(pred, outside)
        interp = Interpreter()
        program = s.seq(pred, s.assign("pt", 9))
        assert interp.run_packet(program, inside).support() == frozenset([outside])
        assert interp.run_packet(program, outside).support() == frozenset([DROP])
        none_of = s.conj(*[s.neg(term) for term in self.wide()])
        assert eval_predicate(none_of, outside) and not eval_predicate(none_of, inside)
        assert output_distribution(Compiler().compile(none_of), inside).support() == frozenset([DROP])
        assert sum(1 for _ in pred.walk()) == 3 * self.TERMS + self.TERMS - 1

    def test_fattree14_plans_and_answers_every_ingress(self):
        """679 ingress terms: a ``RecursionError`` in both engines before."""
        model = fattree_model(14, False)
        assert len(model.ingress_packets) == 679
        matrix = MatrixBackend().delivery_probabilities(model)
        interpreted = model.delivery_probabilities(interpreter=Interpreter())
        assert matrix.keys() == interpreted.keys() == set(model.ingress_packets)
        for packet, probability in matrix.items():
            assert probability == pytest.approx(1.0, abs=1e-9)
            assert interpreted[packet] == pytest.approx(probability, abs=1e-9)


# -- disjunctions of test cubes ---------------------------------------------------

CUBE_FIELDS = ("f", "g", "h")


def pairwise(manager: FddManager, pred: s.Predicate):
    """The oracle: one ``conjoin`` / ``disjoin`` per node of the predicate tree."""
    if isinstance(pred, s.Or):
        return ops.disjoin(pairwise(manager, pred.left), pairwise(manager, pred.right))
    if isinstance(pred, s.And):
        return ops.conjoin(pairwise(manager, pred.left), pairwise(manager, pred.right))
    if isinstance(pred, s.TrueP):
        return manager.true_leaf
    return manager.from_test(pred.field, pred.value)


@st.composite
def cube_disjunctions(draw):
    """``(Or tree of equality-test cubes, whether they share one field set)``.

    Both trees associate at random.  A shared field set is what an
    ingress predicate has and what the one-pass union takes; those cubes
    may repeat a test, contradict themselves (``f=1 ; f=2``) and list
    their tests in any order.  Any cube may hold ``true``, and a ``true``
    disjunct may join.
    """

    def tree(kind, items):
        if len(items) == 1:
            return items[0]
        cut = draw(st.integers(min_value=1, max_value=len(items) - 1))
        return kind(tree(kind, items[:cut]), tree(kind, items[cut:]))

    values = st.integers(min_value=0, max_value=2)
    shared = draw(st.lists(st.sampled_from(CUBE_FIELDS), unique=True, min_size=1))
    uniform = draw(st.booleans())
    disjuncts = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        if uniform:
            atoms = [s.test(name, draw(values)) for name in shared]
            if draw(st.booleans()):
                atoms.append(draw(st.sampled_from(atoms)))
            if draw(st.integers(min_value=0, max_value=3)) == 0:
                atoms.append(s.test(shared[0], draw(values)))
        else:
            tests = st.builds(s.test, st.sampled_from(CUBE_FIELDS), values)
            atoms = draw(st.lists(tests, max_size=3))
        atoms += [s.skip()] * draw(st.integers(min_value=0, max_value=1))
        atoms = draw(st.permutations(atoms))
        disjuncts.append(tree(s.And, atoms) if atoms else s.skip())
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        disjuncts.append(s.skip())
    return tree(s.Or, draw(st.permutations(disjuncts))), uniform


class TestCubeDisjunctions:
    """An ``Or`` of equality-test cubes over one field set compiles in one
    pass to the node the pairwise fold interns, in any association."""

    def assert_pairwise_node(self, pred, one_pass: bool, order=()) -> None:
        manager = FddManager(order)
        got = Compiler(manager).compile_unreduced(pred)
        if one_pass:
            assert not manager.op_cache("ite")  # not one ``ite`` per term
        assert got is pairwise(manager, pred)
        fresh = FddManager(order)
        pairwise(fresh, pred)
        assert manager.fields == fresh.fields

    @settings(max_examples=examples(300), deadline=None)
    @given(cube_disjunctions())
    def test_generated_disjunctions(self, generated):
        pred, uniform = generated
        self.assert_pairwise_node(pred, one_pass=uniform)

    @pytest.mark.parametrize(
        "pred,order",
        [
            pytest.param(
                s.Or(s.And(s.test("f", 1), s.test("f", 2)), s.test("g", 1)), (), id="contradictory"
            ),
            pytest.param(
                s.Or(s.And(s.test("f", 1), s.test("f", 1)), s.test("f", 2)), (), id="repeated-field"
            ),
            pytest.param(
                s.Or(s.And(s.test("f", 1), s.test("g", 2)), s.skip()), (), id="true-disjunct"
            ),
            pytest.param(
                s.Or(s.And(s.test("g", 1), s.test("f", 2)), s.And(s.test("f", 0), s.test("g", 2))),
                ("f", "g"),
                id="mixed-field-order",
            ),
        ],
    )
    def test_named_cases(self, pred, order):
        self.assert_pairwise_node(pred, one_pass=True, order=order)

    def test_a_left_nested_chain_five_thousand_deep_compiles(self):
        """Hand-rolled, unbalanced: the tree is walked with a stack, not recursion."""
        assert sys.getrecursionlimit() <= 1000
        cubes = [s.conj(s.test("sw", i // 8), s.test("pt", i % 8)) for i in range(5000)]
        chain = cubes[0]
        for cube in cubes[1:]:
            chain = s.Or(chain, cube)
        compiler = Compiler()
        assert compiler.compile(chain) is compiler.compile(s.disj(*cubes))
        # Not cubes: the pairwise fold, in the chain's own association.
        mixed = s.test("f", 0)
        for i in range(1, 5000):
            mixed = s.Or(mixed, s.conj(s.test("f", i % 5), s.neg(s.test("g", i % 3))))
        node = compiler.compile(mixed)
        assert output_distribution(node, Packet({"f": 4, "g": 1})).support() == {
            Packet({"f": 4, "g": 1})
        }
        assert output_distribution(node, Packet({"f": 7})).support() == {DROP}


# ---------------------------------------------------------------------------
# (6) compare evaluates each program once
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("relation", ["compare", "strictly_refines"])
def test_refinement_verdicts_run_each_program_once_per_input(monkeypatch, relation):
    half = Fraction(1, 2)
    weaker = s.seq(s.test("sw", 1), s.choice((s.assign("pt", 2), half), (s.drop(), half)))
    stronger = s.seq(s.test("sw", 1), s.assign("pt", 2))
    inputs = [Packet({"sw": 1, "pt": 1}), Packet({"sw": 2, "pt": 1})]
    runs: list[tuple[int, Packet]] = []

    class CountingInterpreter(Interpreter):
        """Counts whole-program runs (``run_packet`` also recurses into sub-terms)."""

        def run_packet(self, policy, packet):
            if policy is weaker or policy is stronger:
                runs.append((id(policy), packet))
            return super().run_packet(policy, packet)

    monkeypatch.setattr(equivalence, "Interpreter", CountingInterpreter)
    verdict = getattr(equivalence, relation)(weaker, stronger, inputs, exact=True)
    assert verdict == {"compare": "<", "strictly_refines": True}[relation]
    assert Counter(runs) == Counter(
        (id(program), packet) for program in (weaker, stronger) for packet in inputs
    )
    assert equivalence.compare(stronger, weaker, inputs) == ">"
    assert equivalence.compare(weaker, weaker, inputs) == "≡"
    other = s.seq(s.test("sw", 2), s.assign("pt", 2))
    assert equivalence.compare(stronger, other, inputs) == "incomparable"


# ---------------------------------------------------------------------------
# (6) the plan stays per role
# ---------------------------------------------------------------------------

#: The fig7 sweep of the benchmark of record (``bench/w_fattree.py``), at
#: fixed destinations.
SWEEP = [(4, True), (6, True), (8, False), (10, False)]


def assert_same_walks(mine: FlatDiagram, theirs: FlatDiagram, codes) -> None:
    """Both flat forms step every class of ``codes`` to the same arrays, bit
    for bit, through leaves of as many actions with the same collisions."""
    import numpy as np

    for got, want in zip(mine.step(codes), theirs.step(codes)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    reached, theirs_reached = mine.leaves_of(codes), theirs.leaves_of(codes)
    assert np.array_equal(mine._count[reached], theirs._count[theirs_reached])
    assert np.array_equal(mine._collide[reached], theirs._collide[theirs_reached])


def every_class(layout: ClassLayout):
    return layout.array(list(itertools.product(*(range(len(v) + 1) for v in layout.values))))


def some_classes(layout: ClassLayout, extra):
    """A seeded sample of ``layout``'s classes, and ``extra``."""
    import numpy as np

    rng = np.random.default_rng(0)
    sample = [rng.integers(0, len(values) + 1, 20_000) for values in layout.values]
    return np.concatenate([np.stack(sample, axis=1).astype(layout.dtype), extra])


def the_stages_as_they_were(patch) -> None:
    """Every compiled body a whole diagram, renamed and joined per switch."""
    patch.setattr(Compiler, "per_role", Compiler.compile)


class TestThePlanStaysPerRole:
    """A plan flattens each role's template once and gathers every switch's
    constants; it walks, answers and keys as the whole diagram does."""

    @pytest.mark.parametrize("k,failures", SWEEP, ids=[f"k{k}-{f}" for k, f in SWEEP])
    def test_flat_arrays_answers_and_keys_are_the_whole_diagrams(self, monkeypatch, k, failures):
        import numpy as np

        model = fattree_model(k, failures)
        backend = MatrixBackend()
        got = backend.output_distributions(model.policy, model.ingress_packets)
        (stage,) = backend.plan(model.policy).loop_stages
        assert isinstance(stage.body, RolePlan)
        assert backend.manager.counters["role_instances"] == 0  # nothing renamed yet
        layout = stage.layout
        assert stage.body.mentioned_values() == matrix_domains(stage.body_fdd)
        reached = stage.chain.codes_at(np.arange(len(stage.chain)))
        codes = some_classes(layout, reached)
        assert_same_walks(stage.chain.flat, FlatDiagram(stage.body_fdd, layout), codes)
        key, size = backend.plan_key(model.policy), node_size(stage.body_fdd)
        with monkeypatch.context() as patch:
            the_stages_as_they_were(patch)
            plain = MatrixBackend()
            want = plain.output_distributions(model.policy, model.ingress_packets)
            (plain_stage,) = plain.plan(model.policy).loop_stages
            assert not isinstance(plain_stage.body, RolePlan)
            assert plain.plan_key(model.policy) == key
            assert node_size(plain_stage.body_fdd) == size
            assert plain_stage.domains == stage.domains
        assert list(got) == list(want)
        for packet in want:
            assert list(got[packet].items()) == list(want[packet].items())

    @settings(
        max_examples=examples(100),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(network_programs())
    def test_generated_network_programs(self, parts):
        program = s.Seq(tuple(parts))
        compiler = Compiler()
        plan = compiler.per_role(program)
        whole = compiler.compile(program)
        if not isinstance(plan, RolePlan):
            assert plan is whole
            return
        assert plan.fdd is whole
        domains = matrix_domains(whole)
        assert plan.mentioned_values() == domains
        layout = ClassLayout(domains)
        assert_same_walks(FlatDiagram.of_roles(plan, layout), FlatDiagram(whole, layout), every_class(layout))


def renames_of_a_warm_plan(monkeypatch, k: int) -> Counter:
    """The ``map_leaves`` and ``Dist.map`` calls of a FatTree ``k`` (with
    failures) plan whose diagram operations find every memo table warm: a
    first plan on the same manager compiled every role, so what a second
    compile does is what it does per switch."""
    model = fattree_model(k, True)
    backend = MatrixBackend()
    backend.plan(model.policy)
    backend.clear_caches()
    monkeypatch.setattr(backend, "_compiler", Compiler(manager=backend.manager))
    calls: Counter = Counter()
    map_leaves, dist_map = ops.map_leaves, Dist.map
    with monkeypatch.context() as patch:
        patch.setattr(ops, "map_leaves", lambda *args: calls.update(["map_leaves"]) or map_leaves(*args))
        patch.setattr(Dist, "map", lambda dist, f: calls.update(["Dist.map"]) or dist_map(dist, f))
        backend.plan(model.policy)
    return calls


def test_a_plan_renames_no_switch(monkeypatch):
    """20 and 80 of each (one per switch) while every switch's diagram was
    its role's renamed and joined into the body's."""
    assert renames_of_a_warm_plan(monkeypatch, 4) == renames_of_a_warm_plan(monkeypatch, 8)


# ---------------------------------------------------------------------------
# the ride-alongs
# ---------------------------------------------------------------------------

def test_ports_index_matches_a_scan_of_every_port():
    topology = ab_fat_tree(4)
    links = list(topology.directed_links())
    for node in topology.graph.nodes:
        scanned = {link.port: link.peer for link in links if link.node == node}
        assert topology.ports(node) == scanned
        assert list(topology.ports(node)) == list(scanned)
        for port, peer in scanned.items():
            assert topology.peer(peer, topology.peer(node, port)[1]) == (node, port)
    ports = topology.ports(1)
    ports.clear()  # a copy: callers cannot corrupt the index
    assert topology.ports(1)
    assert topology.ports("no such node") == {}
