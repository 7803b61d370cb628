"""The ProbNetKAT→PRISM translation ("PPNK" in the paper, §5.2).

McNetKAT's second backend is a purely syntactic translation of guarded
ProbNetKAT to the input language of the PRISM probabilistic model
checker.  This package reproduces the translation and emits the source a
reader with PRISM can run; it bundles no engine:

* :mod:`repro.backends.prism.automaton` — the Thompson-style state
  machine with basic-block collapsing;
* :mod:`repro.backends.prism.model` — the PRISM program representation;
* :mod:`repro.backends.prism.translate` — guarded ProbNetKAT → PRISM;
* :mod:`repro.backends.prism.codegen` — PRISM source emission.
"""

from repro.backends.prism.model import Command, PrismModel, PrismVariable
from repro.backends.prism.translate import translate_policy
from repro.backends.prism.codegen import to_prism_source

__all__ = [
    "Command",
    "PrismModel",
    "PrismVariable",
    "to_prism_source",
    "translate_policy",
]
