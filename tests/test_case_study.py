"""Integration tests: the F10 data-center case study of §7 (scaled to p=4).

These check the qualitative content of Figures 11 and 12: the exact
k-resilience levels of the three schemes, the refinement relationships,
the shape of the delivery sweep, and the path-stretch behaviour on AB
FatTree versus standard FatTree.  The interpreter's work over the fig11
tables is pinned as counts.  ``examples/data_center_resilience.py`` and
``examples/path_stretch.py`` print the tables.
"""

from fractions import Fraction

import pytest

from repro.analysis import expected_hop_count, hop_count_cdf
from repro.analysis.resilience import refinement_table, resilience_table
from repro.core import equivalence
from repro.core.interpreter import Interpreter
from repro.routing import f10_model
from repro.topology import ab_fat_tree, fat_tree

PR = 0.25  # per-hop link failure probability used throughout


@pytest.fixture(scope="module")
def abft():
    return ab_fat_tree(4)


@pytest.fixture(scope="module")
def ft():
    return fat_tree(4)


def factory(topo):
    def build(scheme, k):
        # 0.25 is dyadic: Fraction(PR) is exactly 1/4, as the exact verdicts need.
        return f10_model(
            topo, 1, scheme=scheme, failure_probability=Fraction(PR), max_failures=k
        )

    return build


#: The four series of Figure 12(a): (topology, scheme).
SERIES = {
    "AB FatTree, F10_0": ("ab", "f10_0"),
    "AB FatTree, F10_3": ("ab", "f10_3"),
    "AB FatTree, F10_3,5": ("ab", "f10_3_5"),
    "FatTree, F10_3,5": ("ft", "f10_3_5"),
}


class TestFigure11b:
    """k-resilience of the three schemes on the AB FatTree, as published."""

    BOUNDS = [0, 1, 2, 3, 4, None]

    @pytest.fixture(scope="class")
    def counted(self, abft):
        """The table, and the loop-body possibility evaluations it took."""
        built, evaluated = [], []
        certain_outcomes = Interpreter.certain_outcomes

        def counting(interpreter, policy, packet):
            if built and policy is built[-1].body:
                evaluated.append(packet)
            return certain_outcomes(interpreter, policy, packet)

        def build(scheme, k):
            built.append(factory(abft)(scheme, k))
            return built[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Interpreter, "certain_outcomes", counting)
            table = resilience_table(build, ["f10_0", "f10_3", "f10_3_5"], self.BOUNDS)
        return table, len(evaluated)

    @pytest.fixture(scope="class")
    def table(self, counted):
        return counted[0]

    def column(self, *cells):
        return dict(zip(self.BOUNDS, cells))

    def test_certainty_body_evals(self, counted):
        """One evaluation per distinct reachable loop-head state of each of
        the 18 cells: the analysis memoises the body's verdict per state
        (4 616 while it re-walked shared states once per ingress).  The
        analysis is structural, so with the exact 1/4 used here the count
        is the float table's (``benchmarks/test_bench_fig11b_resilience.py``)."""
        assert counted[1] == 884

    def test_f10_0_is_0_resilient(self, table):
        assert table["f10_0"] == self.column(True, False, False, False, False, False)

    def test_f10_3_is_2_resilient(self, table):
        assert table["f10_3"] == self.column(True, True, True, False, False, False)

    def test_f10_3_5_is_3_resilient(self, table):
        assert table["f10_3_5"] == self.column(True, True, True, True, False, False)


class TestFigure11c:
    """Refinement relationships between the schemes, decided exactly.

    Every cell the paper prints for k = 0…4 (``bench/expected/fig11c.json``
    holds the same transcription), in ``exact=True`` mode: the verdicts
    compare :class:`~fractions.Fraction` distributions, no tolerance.
    """

    BOUNDS = [0, 1, 2, 3, 4]
    PAIRS = [("f10_0", "f10_3"), ("f10_3", "f10_3_5"), ("f10_3_5", "teleport")]

    @pytest.fixture(scope="class")
    def table(self, abft):
        return refinement_table(factory(abft), self.PAIRS, self.BOUNDS, exact=True)

    def column(self, *cells):
        return dict(zip(self.BOUNDS, cells))

    def test_f10_0_versus_f10_3(self, table):
        assert table[("f10_0", "f10_3")] == self.column("≡", "<", "<", "<", "<")

    def test_f10_3_versus_f10_3_5(self, table):
        assert table[("f10_3", "f10_3_5")] == self.column("≡", "≡", "≡", "<", "<")

    def test_f10_3_5_versus_teleport(self, table):
        assert table[("f10_3_5", "teleport")] == self.column("≡", "≡", "≡", "≡", "<")

    def test_the_whole_exact_table_shares_the_left_models(self, abft, table, monkeypatch):
        """The table decided in one call: one interpreter per comparison,
        and each pair's left model built once for all its bounds.  Against
        the cell-by-cell pass of ``benchmarks/test_bench_fig11c_refinement.py``
        (30 models, 80 compiled bodies, 3 978 body runs) that halves the
        models and saves about two fifths of the loop work.  A change
        that lowers a count updates its pin."""
        interpreters, built = [], []

        class Recorded(equivalence.Interpreter):
            def __init__(self, *args, **kwargs):
                interpreters.append(self)
                super().__init__(*args, **kwargs)

        def build(scheme, k):
            built.append((scheme, k))
            return factory(abft)(scheme, k)

        monkeypatch.setattr(equivalence, "Interpreter", Recorded)
        assert refinement_table(build, self.PAIRS, self.BOUNDS, exact=True) == table
        assert len(interpreters) == len(built) == len(self.PAIRS) * len(self.BOUNDS)
        work = {
            name: sum(interpreter.loop_stats()[name] for interpreter in interpreters)
            for name in ("compiled_bodies", "body_runs")
        }
        for name in ("compile_roles", "role_instances"):
            work[name] = sum(
                interpreter.body_compiler().manager.counters[name] for interpreter in interpreters
            )
        assert work == {
            "compiled_bodies": 50,
            "body_runs": 2_330,
            "compile_roles": 203,
            "role_instances": 529,
        }


class TestFigure12a:
    """Delivery probability under unbounded failures."""

    PROBABILITIES = [Fraction(1, 2**n) for n in (7, 6, 5, 4, 3, 2)]

    @pytest.fixture(scope="class")
    def sweep(self, abft, ft):
        topologies = {"ab": abft, "ft": ft}
        return {
            label: [
                f10_model(topologies[kind], 1, scheme=scheme, failure_probability=pr)
                .delivery_probability()
                for pr in self.PROBABILITIES
            ]
            for label, (kind, scheme) in SERIES.items()
        }

    def test_every_series_falls_as_failures_become_common(self, sweep):
        for label, values in sweep.items():
            assert all(0.0 <= value <= 1.0 for value in values), label
            assert values == sorted(values, reverse=True), label

    def test_f10_0_dips_where_f10_3_5_holds(self, sweep):
        assert sweep["AB FatTree, F10_0"][-1] < 0.85
        assert sweep["AB FatTree, F10_3,5"][-1] > 0.99

    def test_resilience_ordering_of_delivery_probability(self, abft):
        build = factory(abft)
        probabilities = {
            scheme: build(scheme, None).delivery_probability()
            for scheme in ("f10_0", "f10_3", "f10_3_5")
        }
        assert probabilities["f10_0"] < probabilities["f10_3"] < probabilities["f10_3_5"]
        assert probabilities["f10_0"] == pytest.approx(0.786, abs=0.01)
        assert probabilities["f10_3_5"] > 0.99

    def test_delivery_improves_as_failures_become_rare(self, abft):
        low = f10_model(abft, 1, scheme="f10_0", failure_probability=1 / 128).delivery_probability()
        high = f10_model(abft, 1, scheme="f10_0", failure_probability=1 / 4).delivery_probability()
        assert high < low <= 1.0


class TestFigure12bc:
    """Path stretch: hop-count CDF and conditional expectation."""

    def test_f10_0_delivers_everything_within_four_hops(self, abft):
        model = f10_model(abft, 1, scheme="f10_0", failure_probability=PR, count_hops=True)
        cdf = hop_count_cdf(model)
        assert cdf[4] == pytest.approx(model.delivery_probability(), abs=1e-9)

    def test_resilient_schemes_deliver_more_with_extra_hops(self, abft):
        base = f10_model(abft, 1, scheme="f10_0", failure_probability=PR, count_hops=True)
        resilient = f10_model(abft, 1, scheme="f10_3_5", failure_probability=PR, count_hops=True)
        cdf_base, cdf_res = hop_count_cdf(base), hop_count_cdf(resilient)
        assert cdf_res[4] == pytest.approx(cdf_base[4], abs=1e-9)
        assert cdf_res[6] > cdf_base[4]

    def test_fattree_detours_are_longer_than_abfattree(self, abft, ft):
        ab = f10_model(abft, 1, scheme="f10_3_5", failure_probability=PR, count_hops=True)
        standard = f10_model(ft, 1, scheme="f10_3_5", failure_probability=PR, count_hops=True)
        cdf_ab, cdf_ft = hop_count_cdf(ab), hop_count_cdf(standard)
        # The AB FatTree recovers traffic at 6 hops; the FatTree needs 8.
        assert cdf_ab[6] > cdf_ft[6]
        assert expected_hop_count(standard) > expected_hop_count(ab)

    def test_f10_0_expected_hop_count_decreases_with_failure_probability(self, abft):
        rare = f10_model(abft, 1, scheme="f10_0", failure_probability=1 / 128, count_hops=True)
        frequent = f10_model(abft, 1, scheme="f10_0", failure_probability=1 / 4, count_hops=True)
        assert expected_hop_count(frequent) < expected_hop_count(rare)
