"""Translation from guarded ProbNetKAT to PRISM models (§5.2).

The translation is purely syntactic and runs in (essentially) linear
time: build the control-flow automaton, collapse basic blocks, then emit
one PRISM command per (state, guard) group, using a program counter
variable ``pc`` to encode the control state.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core import syntax as s
from repro.core.fields import FieldTable
from repro.backends.prism.automaton import Edge, build_automaton
from repro.backends.prism.model import Branch, Command, PrismModel, PrismVariable

#: Name of the program-counter variable added by the translation.
PC = "pc"


def translate_policy(
    policy: s.Policy,
    fields: FieldTable | None = None,
    name: str = "program",
    delivered: s.Predicate | None = None,
) -> PrismModel:
    """Translate a guarded policy into a :class:`PrismModel`.

    Parameters
    ----------
    policy:
        The program to translate (guarded fragment only).
    fields:
        Field declarations providing variable bounds; inferred from the
        program's mentioned values when omitted.
    delivered:
        Optional predicate added as the PRISM label ``"delivered"``
        (conjoined with termination at the accepting control state).
    """
    table = fields if fields is not None else FieldTable.from_policy(policy)
    automaton = build_automaton(policy)
    model = PrismModel(name=name)

    model.variables.append(
        PrismVariable(PC, 0, max(automaton.state_count - 1, 1), init=automaton.start)
    )
    for spec in table:
        model.variables.append(PrismVariable(spec.name, spec.low, spec.high, init=spec.low))

    by_src: dict[int, list[Edge]] = {}
    for edge in automaton.edges:
        by_src.setdefault(edge.src, []).append(edge)
    for state in automaton.states():
        outgoing = by_src.get(state)
        if not outgoing:
            continue
        groups: dict[s.Predicate, list[Edge]] = {}
        order: list[s.Predicate] = []
        for edge in outgoing:
            if edge.guard not in groups:
                groups[edge.guard] = []
                order.append(edge.guard)
            groups[edge.guard].append(edge)
        for guard in order:
            edges = groups[guard]
            branches = []
            for edge in edges:
                updates = dict(edge.updates)
                updates[PC] = edge.dst
                branches.append(
                    Branch(Fraction(edge.probability), tuple(sorted(updates.items())))
                )
            full_guard = s.conj(s.test(PC, state), guard) if not isinstance(
                guard, s.TrueP
            ) else s.test(PC, state)
            model.commands.append(Command(full_guard, tuple(branches)))

    model.add_label("terminated", s.test(PC, automaton.accept))
    model.add_label("dropped", s.test(PC, automaton.reject))
    if delivered is not None:
        model.add_label("delivered", s.conj(s.test(PC, automaton.accept), delivered))
    model.check_well_formed()
    return model

