"""Absorbing Markov chain solvers.

The closed form for ProbNetKAT iteration (§4, Theorem 4.7) requires the
absorption probabilities ``A = (I - Q)^{-1} R`` of a finite absorbing
Markov chain whose transient-to-transient block is ``Q`` and whose
transient-to-absorbing block is ``R``.

Two solvers are provided:

* :func:`solve_absorption_batched` — float64 sparse LU via SciPy (the
  role played by UMFPACK in McNetKAT), returned as an
  :class:`AbsorptionSystem` that retains the single factorization of
  ``I - Q`` so arbitrarily many right-hand sides can be solved against it
  in one batched call (the paper's "compile once, query many times" story
  at the linear-algebra level); :meth:`AbsorptionSystem.result` reads the
  answer back as rows;
* :func:`solve_absorption_exact` — exact rational elimination in SCC
  order of the transient graph (mirrors the paper's use of exact
  arithmetic in the frontend; the interpreter's and compiler's exact mode).

On top of these, :class:`IncrementalAbsorptionSolver` solves a chain that
*grows* over time by one rule: each growth step solves only the newly
discovered states, with the states solved earlier as absorbing gateways
whose final rows are composed in.

There is one float kernel and it works on index arrays
(:func:`_reaching_absorption`, :func:`_factorize`): edges ``rows[e] ->
cols[e]`` over ints, never dicts.  Who owns the ``state -> int`` index
depends on who calls: a caller that already has one (a loop stage's
:class:`~repro.core.fdd.matrix.ClassChain`) feeds
:meth:`IncrementalAbsorptionSolver.grow` its rows as they are; the
functions that take the chain in "dict of rows" form
(:func:`solve_absorption_batched`, :meth:`IncrementalAbsorptionSolver.solve`)
are front doors that build an index of their own, call the same kernel
and read the answer back into row dictionaries mapping absorbing states
to probabilities.  Probability mass that cannot reach any absorbing state
(non-termination) is reported separately so callers can assign it to the
drop outcome, which is the correct limit semantics for guarded loops.

Import rule: numpy and SciPy are imported inside the functions that do
float work, never at module level (annotations import them under
``TYPE_CHECKING``).  The exact solver and an exact
:class:`IncrementalAbsorptionSolver` never touch them, so an exact
verifier runs in a process that never loads the float stack; a float
path pays the import at its first solve.
"""

from __future__ import annotations

import itertools
import warnings
from contextlib import nullcontext
from fractions import Fraction
from typing import TYPE_CHECKING, Hashable, Mapping, Sequence, TypeVar

if TYPE_CHECKING:
    import numpy as np
    from scipy.sparse import csc_matrix

State = TypeVar("State", bound=Hashable)

#: Numerical tolerance used to clean up tiny negative values from LU solves.
SOLVER_TOLERANCE = 1e-12


def _states_reaching_absorption(
    transient: Sequence[State],
    absorbing: Sequence[State],
    transitions: Mapping[State, Mapping[State, float | Fraction]],
) -> set[State]:
    """Transient states from which some absorbing state is reachable.

    States outside this set can never be absorbed; their probability mass
    is lost (reported via ``lost_mass``) and they are excluded from the
    linear system, which keeps ``I - Q`` nonsingular even for programs
    with genuinely diverging loops.
    """
    absorbing_set = set(absorbing)
    predecessors: dict[State, set[State]] = {}
    frontier: list[State] = []
    reaching: set[State] = set()
    for state in transient:
        for successor, probability in transitions.get(state, {}).items():
            if probability == 0:
                continue
            if successor in absorbing_set:
                if state not in reaching:
                    reaching.add(state)
                    frontier.append(state)
            else:
                predecessors.setdefault(successor, set()).add(state)
    while frontier:
        state = frontier.pop()
        for predecessor in predecessors.get(state, ()):
            if predecessor not in reaching:
                reaching.add(predecessor)
                frontier.append(predecessor)
    return reaching


class AbsorptionResult(dict):
    """Mapping ``transient state -> {absorbing state -> probability}``.

    The extra attribute :attr:`lost_mass` records, per transient state,
    the probability of never reaching an absorbing state (zero for proper
    absorbing chains).
    """

    def __init__(self, rows: Mapping, lost_mass: Mapping):
        super().__init__(rows)
        self.lost_mass = dict(lost_mass)


class AbsorptionSystem:
    """An absorbing chain with ``I - Q`` factorized exactly once.

    The sparse LU factorization (:func:`scipy.sparse.linalg.splu`) is the
    expensive part of an absorption solve; this class retains it so that
    any number of right-hand sides — the columns of ``R``, hitting-cost
    vectors, or arbitrary user-supplied batches — can be solved against
    the same factorization.  This is the linear-algebra core of the
    batched matrix backend: one factorization, many queries.

    Lifetime rule: SciPy's ``SuperLU`` object keeps its allocation table
    per thread and silently leaks a factorization destroyed on a thread
    other than the one that created it.  A system that outlives the frame
    that built it must therefore have :meth:`release` called there first;
    afterwards only the metadata and the cached absorption matrix remain.

    Attributes
    ----------
    transient:
        The transient states that participate in the linear system (in
        row order of ``Q``/``R``).  States that cannot reach absorption
        are excluded and listed in :attr:`doomed` instead.
    absorbing:
        The absorbing states (column order of ``R``).
    doomed:
        Transient states whose probability of absorption is zero; their
        entire mass is lost (diverges).
    """

    def __init__(
        self,
        transient: list[State],
        absorbing: list[State],
        doomed: list[State],
        lu,
        r_mat: csc_matrix,
    ):
        self.transient = transient
        self.absorbing = absorbing
        self.doomed = doomed
        self._lu = lu
        self._r = r_mat
        self._absorption: np.ndarray | None = None

    # -- batched solves --------------------------------------------------------
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(I - Q) X = rhs`` for a (multi-column) right-hand side.

        ``rhs`` must have one row per solvable transient state; any number
        of columns may be supplied and all are solved against the single
        cached factorization.
        """
        import numpy as np

        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != len(self.transient):
            raise ValueError(
                f"right-hand side has {rhs.shape[0]} rows, expected {len(self.transient)}"
            )
        if rhs.size == 0:
            return np.zeros_like(rhs)
        return self._factor().solve(rhs)

    def absorption_matrix(self) -> np.ndarray:
        """The dense absorption matrix ``A = (I - Q)^{-1} R`` (cached).

        Computed as one batched multi-RHS solve: every column of ``R`` is
        a right-hand side, all solved against the same factorization.
        """
        if self._absorption is None:
            nt, na = len(self.transient), len(self.absorbing)
            if nt == 0 or na == 0:
                import numpy as np

                self._absorption = np.zeros((nt, na))
            else:
                self._absorption = self._factor().solve(self._r.toarray())
        return self._absorption

    def _factor(self):
        # Only a system with no solvable transient state is built without
        # a factor, and those never reach a solve (their right-hand sides
        # are empty) — so a missing factor here means release().
        if self._lu is None:
            raise RuntimeError(
                "the LU factorization of this AbsorptionSystem was released"
            )
        return self._lu

    def release(self) -> None:
        """Free the LU factorization, on the calling thread.

        Call it on the thread that built the system, before the system is
        handed to anything that may drop it elsewhere.  The cached
        :meth:`absorption_matrix` (hence :meth:`result`) stays available;
        :meth:`solve`, and :meth:`absorption_matrix` when nothing was
        cached, raise afterwards.
        """
        self._lu = None

    def result(self) -> AbsorptionResult:
        """The absorption probabilities in dict-of-rows form.

        Tiny negative LU artefacts are clamped to zero and the per-state
        mass deficit is reported as lost (diverging) mass.
        """
        import numpy as np

        absorption = self.absorption_matrix()
        _check_absorption(absorption, self.transient)
        # Only the nonzeros of the clamped matrix are visited, row-major
        # like the rows they fill.
        clamped = np.clip(absorption, 0.0, 1.0)
        filled: list[dict[State, float]] = [{} for _ in self.transient]
        nz_rows, nz_cols = np.nonzero(clamped)
        for i, j, value in zip(
            nz_rows.tolist(), nz_cols.tolist(), clamped[nz_rows, nz_cols].tolist()
        ):
            filled[i][self.absorbing[j]] = value
        rows: dict[State, dict[State, float]] = dict(zip(self.transient, filled))
        lost: dict[State, float] = {}
        for state, row in rows.items():
            deficit = 1.0 - sum(row.values())
            lost[state] = deficit if deficit > SOLVER_TOLERANCE else 0.0
        for state in self.doomed:
            rows[state] = {}
            lost[state] = 1.0
        return AbsorptionResult(rows, lost)


def _check_absorption(absorption: np.ndarray, transient: Sequence, names: Sequence = ()) -> None:
    """An LU solve may undershoot zero by rounding, not by 1e-6.

    ``transient`` lists the rows' states — as indices into ``names`` when
    the caller keeps names for them.
    """
    import numpy as np

    negative = np.argwhere(absorption < -1e-6)
    if len(negative):
        i, j = negative[0]
        state = names[transient[i]] if names else transient[i]
        raise ArithmeticError(
            f"negative absorption probability {absorption[i, j]} for {state!r}"
        )


def _reaching_absorption(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Which of the transient states ``0..n-1`` can reach an absorbing one.

    ``rows[e] -> cols[e]`` are the chain's edges over one index: transient
    states below ``n``, absorbing ones from ``n`` up, ``-1`` for a
    successor the caller could not index (ignored here).  Backward
    reachability by one ``breadth_first_order`` from a node that stands
    for every absorbing state; a state it does not reach is doomed.
    """
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    known = cols >= 0
    sources, targets = rows[known], np.minimum(cols[known], n)
    back = csr_matrix((np.ones(len(sources)), (targets, sources)), shape=(n + 1, n + 1))
    reached = np.zeros(n + 1, dtype=bool)
    reached[breadth_first_order(back, n, return_predecessors=False)] = True
    return reached[:n]


def _factorize(
    live: np.ndarray, na: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray
):
    """``splu(I - Q)`` and ``R`` of the live states of an indexed chain.

    The index is :func:`_reaching_absorption`'s, ``live`` its answer and
    ``na`` the number of absorbing states.  Only rows of live states
    enter; mass entering a doomed state can never be absorbed and is
    dropped with the edge.  The live states are renumbered in order, so
    row ``i`` of the factor is the ``i``-th live state.  Returns ``(lu,
    r_mat)``, the factor ``None`` when no state is live.
    """
    import numpy as np
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    n, nt = len(live), int(live.sum())
    if not nt:
        return None, csc_matrix((0, na))
    compact = np.cumsum(live) - 1
    to_r = live[rows] & (cols >= n)
    to_q = live[rows] & (cols >= 0) & (cols < n)
    to_q[to_q] = live[cols[to_q]]
    q_rows, q_cols, diagonal = compact[rows[to_q]], compact[cols[to_q]], np.arange(nt)
    system = csc_matrix(
        (
            np.concatenate([np.ones(nt), -data[to_q]]),
            (np.concatenate([diagonal, q_rows]), np.concatenate([diagonal, q_cols])),
        ),
        shape=(nt, nt),
    )  # I - Q: a self-loop's entry adds onto its diagonal one
    r_mat = csc_matrix((data[to_r], (compact[rows[to_r]], cols[to_r] - n)), shape=(nt, na))
    return splu(system), r_mat


def solve_absorption_batched(
    transient: Sequence[State],
    absorbing: Sequence[State],
    transitions: Mapping[State, Mapping[State, float | Fraction]],
) -> AbsorptionSystem:
    """Build an :class:`AbsorptionSystem` with a single ``splu`` factorization.

    Parameters
    ----------
    transient:
        The transient states (rows of ``Q`` and ``R``).
    absorbing:
        The absorbing states (columns of ``R``).
    transitions:
        For each transient state, a mapping from successor state to
        transition probability.  Successors may be transient or
        absorbing; rows may be sub-stochastic (mass can be lost).

    This is the front door for callers that hold states, not indices: it
    owns the index (transient states first, in the caller's order, then
    the absorbing ones), reads the row dicts once into edge arrays, and
    hands those to the array kernel (:func:`_reaching_absorption`,
    :func:`_factorize`) that :meth:`IncrementalAbsorptionSolver.grow`
    feeds directly.  What is checked is what always was: states that
    cannot reach absorption are set aside as
    :attr:`~AbsorptionSystem.doomed` (in the caller's order, like
    :attr:`~AbsorptionSystem.transient`) and the mass entering them is
    dropped, a zero-probability edge is no edge, and a successor of a
    solvable state that is neither transient nor absorbing is a
    :class:`KeyError`.
    """
    import numpy as np
    from scipy.sparse import csc_matrix

    transient = list(transient)
    absorbing = list(absorbing)
    n, na = len(transient), len(absorbing)
    if not transient:
        return AbsorptionSystem([], absorbing, [], None, csc_matrix((0, na)))
    index = {state: n + j for j, state in enumerate(absorbing)}
    index.update((state, i) for i, state in enumerate(transient))
    edge_rows: list[int] = []
    edge_cols: list[int] = []
    edge_data: list[float] = []
    unknown: list[State] = []
    for i, state in enumerate(transient):
        for succ, prob in transitions.get(state, {}).items():
            p = float(prob)
            if p == 0.0:
                continue
            j = index.get(succ, -1)
            if j < 0:
                unknown.append(succ)
            edge_rows.append(i)
            edge_cols.append(j)
            edge_data.append(p)
    rows, cols = np.array(edge_rows, dtype=np.int64), np.array(edge_cols, dtype=np.int64)
    live = _reaching_absorption(n, rows, cols)
    if unknown and (reachable := live[rows[cols < 0]]).any():
        succ = unknown[int(reachable.argmax())]
        raise KeyError(f"successor {succ!r} is neither transient nor absorbing")
    lu, r_mat = _factorize(live, na, rows, cols, np.array(edge_data, dtype=np.float64))
    doomed = [state for state, ok in zip(transient, live) if not ok]
    transient = [state for state, ok in zip(transient, live) if ok]
    return AbsorptionSystem(transient, absorbing, doomed, lu, r_mat)


class IncrementalAbsorptionSolver:
    """An absorption solver that factorizes only the *growth* of a chain.

    Forward exploration of a loop discovers its transient states
    incrementally: every new seed may extend the reachable state space,
    but (a) the transition row of a state never changes once computed,
    and (b) exploration always closes a seed's forward reachability —
    so a previously solved state can never gain a successor later.  Its
    absorption distribution is therefore *final* the moment it is
    solved, and a later growth step only needs to solve the subsystem of
    the newly discovered states, treating already-solved states as
    absorbing *gateways* whose (known) absorption distributions are
    composed in afterwards.

    The result: every transient state participates in exactly one —
    small — factorization, instead of the whole chain being re-solved
    from scratch on every new seed.

    Every step is the same code whatever its size.  The float step is
    :meth:`grow`, fed index arrays: the caller owns the ``state -> int``
    index (a :class:`~repro.core.fdd.matrix.ClassChain` its own, and
    :meth:`solve` — the front door for callers that hold states — one it
    keeps here), the solver owns what it appends to: one slot per solved
    state, and the *outcome index*, the absorbing states in the order
    they were first reached, over which every solved row is an array.
    Gateway columns are composed onto the gateways' final rows by one
    array product (:meth:`_compose`).  The exact step solves by
    :func:`solve_absorption_exact` and composes
    :class:`~fractions.Fraction` row dicts (:meth:`_compose_exact`).  A
    gateway's own lost mass shrinks its final row, so a new state's
    deficit ``1 − Σ row`` already includes mass forwarded into diverging
    gateways.

    Attributes
    ----------
    factorizations:
        Number of growth steps, each one factorization of the new
        states' ``I − Q`` block.  Callers use this to assert that
        repeated seeds over an already-solved state space perform no
        linear algebra at all.
    schur_updates:
        The steps among those that grew an already-solved chain (every
        step of a solver but its first).
    system:
        The :class:`AbsorptionSystem` of the most recent step, over the
        state indices the step was fed (``None`` before the first solve
        and in exact mode).  Its LU factor is already released — the
        solver may be dropped on any thread — so it carries the
        subsystem's shape and absorption matrix, not a live
        factorization.
    """

    def __init__(self, exact: bool = False, watch=None):
        self.exact = exact
        self.watch = watch
        self.factorizations = 0
        self.schur_updates = 0
        self.system: AbsorptionSystem | None = None
        # What solve() keeps for callers that hold states: their index
        # (float mode), and every solved row as a dict.
        self._names: list[State] = []
        self._ids: dict[State, int] = {}
        self._solutions: dict[State, dict[State, Fraction | float]] = {}
        self._lost: dict[State, Fraction | float] = {}
        # What grow() appends to: state index -> slot (-1 unsolved; no
        # array before the first step), the solved rows of each step (one
        # block, its slots in order, over the outcome index as it was at
        # the step) with the first slot of each, and the outcome index
        # with its inverse.
        self._slot: np.ndarray | None = None
        self._blocks: list[np.ndarray] = []
        self._bases: list[int] = []
        self._solved = 0
        self._outcomes: list[int] = []
        self._column: dict[int, int] = {}

    def _measure(self, name: str):
        """A ``watch.measure`` section, or a no-op without a stopwatch."""
        return self.watch.measure(name) if self.watch is not None else nullcontext()

    @property
    def solved_states(self) -> frozenset:
        """The transient states whose absorption rows are already final
        (state indices when the solver was fed by :meth:`grow` alone)."""
        if self.exact or self._names or self._slot is None:
            return frozenset(self._solutions)
        import numpy as np

        return frozenset(np.flatnonzero(self._slot >= 0).tolist())

    def needs_solve(self, transient: Sequence[State]) -> bool:
        """Whether ``transient`` contains states not yet solved."""
        solutions = self._solutions
        return any(state not in solutions for state in transient)

    def solution(self, state: State) -> dict[State, Fraction | float]:
        """The (final) absorption row of a solved transient state."""
        return self._solutions[state]

    def lost_mass(self, state: State) -> Fraction | float:
        """The diverging probability mass of a solved transient state."""
        return self._lost[state]

    def solve(
        self,
        transient: Sequence[State],
        transitions: Mapping[State, Mapping[State, float | Fraction]],
    ) -> AbsorptionResult:
        """Absorption probabilities for ``transient``, solving only growth.

        ``transitions`` must contain one (immutable) row per *not yet
        solved* transient state (rows of already-solved states are never
        read); successors not themselves transient (or previously
        solved) are taken to be absorbing.  States already solved by an
        earlier call are answered from the cache; only genuinely new
        states enter the subsystem factorization.
        """
        solutions = self._solutions
        new = [state for state in transient if state not in solutions]
        if new and self.exact:
            self._grow_exact(new, transitions)
        elif new:
            self._grow_named(new, transitions)
        rows = {state: solutions[state] for state in transient}
        lost = {state: self._lost[state] for state in transient}
        return AbsorptionResult(rows, lost)

    def _grow_exact(
        self,
        new: list[State],
        transitions: Mapping[State, Mapping[State, float | Fraction]],
    ) -> None:
        solutions = self._solutions
        new_set = set(new)
        # Successors outside the step, in discovery order: solved states
        # are gateways, everything else is an absorbing target.
        gateways: dict[State, None] = {}
        targets: dict[State, None] = {}
        for state in new:
            for successor in transitions[state]:
                if successor not in new_set:
                    (gateways if successor in solutions else targets)[successor] = None
        absorbing = [*targets, *gateways]
        sub_transitions = {state: transitions[state] for state in new}
        with self._measure("factorize"):
            result = solve_absorption_exact(new, absorbing, sub_transitions)
        if gateways:
            result = self._compose_exact(result, gateways)
        self.factorizations += 1
        self.schur_updates += bool(solutions)
        solutions.update(result)
        self._lost.update(result.lost_mass)

    def _compose_exact(
        self, result: AbsorptionResult, gateways: Mapping[State, None]
    ) -> AbsorptionResult:
        """``result`` with mass entering a gateway spread over its final row."""
        solutions = self._solutions
        rows: dict[State, dict[State, Fraction]] = {}
        lost: dict[State, Fraction] = {}
        for state, raw in result.items():
            deficit = result.lost_mass[state]
            final: dict[State, Fraction] = {}
            for target, probability in raw.items():
                if target in gateways:
                    for outcome, weight in solutions[target].items():
                        final[outcome] = final.get(outcome, 0) + probability * weight
                    deficit = deficit + probability * self._lost[target]
                else:
                    final[target] = final.get(target, 0) + probability
            rows[state], lost[state] = final, deficit
        return AbsorptionResult(rows, lost)

    def _grow_named(
        self,
        new: list[State],
        transitions: Mapping[State, Mapping[State, float | Fraction]],
    ) -> None:
        """Index the rows of ``new``, :meth:`grow`, and read the rows back as dicts."""
        import numpy as np

        names, ids = self._names, self._ids

        def index(state: State) -> int:
            i = ids.get(state)
            if i is None:
                i = ids[state] = len(names)
                names.append(state)
            return i

        states = [index(state) for state in new]
        indptr, successors, probabilities = [0], [], []
        for state in new:
            for successor, probability in transitions[state].items():
                successors.append(index(successor))
                probabilities.append(float(probability))
            indptr.append(len(successors))
        self.grow(
            np.array(states, dtype=np.int64),
            np.array(indptr, dtype=np.int64),
            np.array(successors, dtype=np.int64),
            np.array(probabilities, dtype=np.float64),
        )
        for state, (outcomes, masses, lost) in zip(new, self.absorbed_many(states)):
            self._lost[state] = lost
            self._solutions[state] = {names[j]: mass for j, mass in zip(outcomes, masses)}

    def grow(
        self,
        states: np.ndarray,
        indptr: np.ndarray,
        successors: np.ndarray,
        probabilities: np.ndarray,
    ) -> None:
        """One float growth step, fed the new rows as index arrays.

        ``states`` are the indices of the new transient states (none
        solved before) and ``indptr`` / ``successors`` / ``probabilities``
        their rows in CSR form, successors by state index.  A successor
        outside ``states`` is a gateway if it was solved by an earlier
        step and an absorbing target otherwise; the step's columns are
        the targets, then the gateways, each in order of first occurrence
        (row-major).  Doomed states are detected, a zero-probability
        edge is no edge, and the LU is freed before this returns, on the
        thread that made it.
        """
        import numpy as np

        n, base = len(states), self._solved
        highest = int(max(states.max(initial=0), successors.max(initial=0)))
        if self._slot is None:
            self._slot = np.full(64, -1, dtype=np.int64)
        if highest >= len(self._slot):
            grown = np.full(2 * highest + 2, -1, dtype=np.int64)
            grown[: len(self._slot)] = self._slot
            self._slot = grown
        slot, slots = self._slot, np.arange(base, base + n)
        # The new states take their slots for the gather only; they are
        # committed once the step has succeeded.
        slot[states] = slots
        at = slot[successors]
        slot[states] = -1
        inside = at >= base
        outside, first, inverse = np.unique(
            successors[~inside], return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        solved = slot[outside[order]] >= 0
        order = np.concatenate([order[~solved], order[solved]])
        absorbing, n_targets = outside[order], len(solved) - int(solved.sum())
        column = np.empty(len(order), dtype=np.int64)
        column[order] = np.arange(n, n + len(order))
        rows = np.repeat(np.arange(n), np.diff(indptr))
        cols = at - base
        cols[~inside] = column[inverse]
        edges = probabilities != 0.0
        if not edges.all():
            rows, cols, probabilities = rows[edges], cols[edges], probabilities[edges]
        with self._measure("factorize"):
            live = _reaching_absorption(n, rows, cols)
            system = AbsorptionSystem(
                states[live].tolist(),
                absorbing.tolist(),
                states[~live].tolist(),
                *_factorize(live, len(absorbing), rows, cols, probabilities),
            )
        try:
            with self._measure("solve"):
                final = self._compose(
                    system.absorption_matrix(), absorbing[:n_targets], absorbing[n_targets:]
                )
        finally:
            # The factor dies here, on the thread that made it: this
            # solver (or a traceback) may be dropped on any thread.
            system.release()
        if final.sum(axis=1).max(initial=0.0) > 1.0 + 1e-6:
            warnings.warn(
                "absorption rows sum to more than one: the growth step is "
                "numerically degraded (or a transition row was not sub-stochastic)",
                RuntimeWarning,
                stacklevel=4,
            )
        _check_absorption(final, system.transient, self._names)
        # One block per step; a doomed state's row stays zero: all lost.
        block = np.zeros((n, final.shape[1]))
        block[live] = np.clip(final, 0.0, 1.0)
        slot[states] = slots
        self._blocks.append(block)
        self._bases.append(base)
        self._solved += n
        self.system = system
        self.factorizations += 1
        self.schur_updates += bool(base)

    def _compose(
        self, absorption: np.ndarray, targets: np.ndarray, gateways: np.ndarray
    ) -> np.ndarray:
        """A step's absorption matrix over the outcome index.

        The target columns land on the targets' outcome columns (appended
        on first sight); the gateway columns are multiplied onto ``G``,
        the gateways' final rows, by one array product.
        """
        import numpy as np

        outcomes, column = self._outcomes, self._column
        landing = []
        for target in targets.tolist():
            if target not in column:
                column[target] = len(outcomes)
                outcomes.append(target)
            landing.append(column[target])
        final = np.zeros((len(absorption), len(outcomes)))
        final[:, landing] = absorption[:, : len(targets)]
        if len(gateways):
            final += absorption[:, len(targets):] @ self._gather(self._slot[gateways])
        return final

    def _gather(self, slots: np.ndarray) -> np.ndarray:
        """The solved rows in ``slots``, one dense row each over the outcome index."""
        import numpy as np

        rows = np.zeros((len(slots), len(self._outcomes)))
        step = np.searchsorted(self._bases, slots, side="right") - 1
        for k in np.unique(step).tolist():
            mine = step == k
            block = self._blocks[k]
            rows[mine, : block.shape[1]] = block[slots[mine] - self._bases[k]]
        return rows

    def absorbed(self, state: int) -> tuple[list[int], list[float], float]:
        """Where a solved state's mass ends up (:meth:`absorbed_many` of one)."""
        return self.absorbed_many([state])[0]

    def absorbed_many(self, states: Sequence[int]) -> list[tuple[list[int], list[float], float]]:
        """Where each solved state's mass ends up: outcomes, masses, lost mass.

        :meth:`absorbed_rows` as one list triple per state.
        """
        counts, outcomes, masses, lost = self.absorbed_rows(states)
        bounds = [0, *itertools.accumulate(counts.tolist())]
        outcomes, masses = outcomes.tolist(), masses.tolist()
        return [
            (outcomes[start:stop], masses[start:stop], deficit)
            for start, stop, deficit in zip(bounds, bounds[1:], lost.tolist())
        ]

    def absorbed_rows(
        self, states: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Where each solved state's mass ends up, as CSR arrays.

        ``(counts, outcomes, masses, lost)``: per state, its number of
        outcomes (state indices with nonzero mass, in outcome-index
        order), those outcomes and masses row after row, and the deficit
        ``1 − Σ`` — the mass that reaches no absorbing state — or ``0.0``
        when it is within :data:`SOLVER_TOLERANCE`.  The rows are read as
        one block over the outcome index.  This is the one place a solved
        row is decoded; callers ask when a query needs the row.
        """
        if self._slot is None and len(states):  # no growth step yet: nothing is solved
            raise KeyError(f"state {states[0]} is not solved")
        import numpy as np

        states = np.asarray(states, dtype=np.int64)
        if self._slot is None:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros(0), np.zeros(0)
        slots = self._slot[states]
        if (slots < 0).any():
            raise KeyError(f"state {states[int(np.argmin(slots))]} is not solved")
        block = self._gather(slots)
        rows, columns = np.nonzero(block)
        masses = block[rows, columns]
        # bincount adds each row's masses in order from zero, as ``sum`` does.
        deficits = 1.0 - np.bincount(rows, weights=masses, minlength=len(slots))
        deficits[deficits <= SOLVER_TOLERANCE] = 0.0
        counts = np.bincount(rows, minlength=len(slots))
        outcomes = np.array(self._outcomes, dtype=np.int64)[columns]
        return counts, outcomes, masses, deficits


def _sccs_sinks_first(edges: Sequence[Mapping[int, object]]) -> list[list[int]]:
    """Strongly connected components of the graph ``i -> edges[i]`` (Tarjan).

    Iterative, so a long chain cannot exhaust the recursion limit.  The
    components come out sinks first: every successor of a member lies in
    its own component or in an earlier one.
    """
    n = len(edges)
    # A node's index is its position on the stack; n once its component is out.
    index: list[int | None] = [None] * n
    low = [0] * n
    pending: list = [None] * n
    stack: list[int] = []
    components: list[list[int]] = []
    for root in range(n):
        work = [root] if index[root] is None else []
        while work:
            node = work[-1]
            if index[node] is None:
                index[node] = low[node] = len(stack)
                stack.append(node)
                pending[node] = iter(edges[node])
            for succ in pending[node]:
                if index[succ] is None:
                    work.append(succ)
                    break
                low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    low[work[-1]] = min(low[work[-1]], low[node])
                if low[node] == index[node]:
                    components.append(stack[index[node]:])
                    del stack[index[node]:]
                    for member in components[-1]:
                        index[member] = n
    return components


def _solve_component_exact(
    component: list[int],
    q: Sequence[Mapping[int, Fraction]],
    rhs: list[dict[int, Fraction]],
) -> list[dict[int, Fraction]]:
    """Solve ``(I - Q_cc) X = rhs`` for one strongly connected component.

    Dense Gauss–Jordan over :class:`fractions.Fraction`, sized by the
    component alone; ``rhs`` already holds the component's direct
    absorption plus everything flowing through earlier components.
    """
    m = len(component)
    local = {state: k for k, state in enumerate(component)}
    columns = sorted({column for row in rhs for column in row})
    matrix: list[list[Fraction]] = []
    for k, state in enumerate(component):
        row = [Fraction(0)] * m + [rhs[k].get(c, Fraction(0)) for c in columns]
        row[k] = Fraction(1)
        for succ, p in q[state].items():
            if succ in local:
                row[local[succ]] -= p
        matrix.append(row)
    for col in range(m):
        pivot_row = next((r for r in range(col, m) if matrix[r][col] != 0), None)
        if pivot_row is None:
            raise ArithmeticError("I - Q is singular; the chain is not absorbing")
        matrix[col], matrix[pivot_row] = matrix[pivot_row], matrix[col]
        pivot = matrix[col][col]
        if pivot != 1:
            matrix[col] = [entry / pivot for entry in matrix[col]]
        for r in range(m):
            factor = matrix[r][col]
            if r != col and factor != 0:
                matrix[r] = [
                    entry - factor * base for entry, base in zip(matrix[r], matrix[col])
                ]
    return [{c: v for c, v in zip(columns, row[m:]) if v != 0} for row in matrix]


def solve_absorption_exact(
    transient: Sequence[State],
    absorbing: Sequence[State],
    transitions: Mapping[State, Mapping[State, Fraction | int]],
) -> AbsorptionResult:
    """Exact rational absorption probabilities.

    Solves ``(I - Q) X = R`` over :class:`fractions.Fraction` by
    elimination in SCC order of the transient graph, sinks first.  A state
    on no cycle is one sparse substitution ``x_i = r_i + Σ p_ij·x_j`` over
    rows that are already final; only a non-trivial strongly connected
    component is solved densely, and only at its own size.  The cost is
    therefore linear in the number of nonzeros (times the row width) on
    the acyclic part of the chain and cubic only in the largest SCC.
    """
    transient = list(transient)
    absorbing = list(absorbing)
    reaching = _states_reaching_absorption(transient, absorbing, transitions)
    doomed = {state for state in transient if state not in reaching}
    live = [state for state in transient if state in reaching]
    t_index = {state: i for i, state in enumerate(live)}
    a_index = {state: j for j, state in enumerate(absorbing)}

    # Sparse rows of Q and R over the live states, by index.
    q: list[dict[int, Fraction]] = []
    r: list[dict[int, Fraction]] = []
    for state in live:
        q_row: dict[int, Fraction] = {}
        r_row: dict[int, Fraction] = {}
        for succ, prob in transitions[state].items():
            p = Fraction(prob)
            if p == 0:
                continue
            if succ in t_index:
                q_row[t_index[succ]] = p
            elif succ in a_index:
                r_row[a_index[succ]] = p
            elif succ not in doomed:  # mass entering a doomed state is lost
                raise KeyError(f"successor {succ!r} is neither transient nor absorbing")
        q.append(q_row)
        r.append(r_row)

    solved: list[dict[int, Fraction]] = [{} for _ in live]
    for component in _sccs_sinks_first(q):
        rhs: list[dict[int, Fraction]] = []
        for i in component:
            row = dict(r[i])
            for succ, p in q[i].items():
                # A member of this component is still unsolved: empty, adds nothing.
                for column, value in solved[succ].items():
                    row[column] = row.get(column, 0) + p * value
            rhs.append(row)
        if len(component) > 1 or component[0] in q[component[0]]:
            rhs = _solve_component_exact(component, q, rhs)
        for i, row in zip(component, rhs):
            solved[i] = row

    rows: dict[State, dict[State, Fraction]] = {}
    lost: dict[State, Fraction] = {}
    for state, solution in zip(live, solved):
        rows[state] = row = {absorbing[j]: solution[j] for j in sorted(solution)}
        if any(value < 0 for value in row.values()):
            raise ArithmeticError(f"negative absorption probability for {state!r}: {row}")
        lost[state] = Fraction(1) - sum(row.values(), Fraction(0))
    for state in transient:
        if state in doomed:
            rows[state], lost[state] = {}, Fraction(1)
    return AbsorptionResult(rows, lost)

