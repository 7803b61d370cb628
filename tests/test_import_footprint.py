"""The import contract: exact verification never loads the float stack.

numpy and SciPy are imported inside the functions that do float work
(the module docstrings of ``repro.core.markov``, ``repro.core.fdd.matrix``
and ``repro.core.answer`` state the rule).  This test process loaded both
long ago, so every check runs its code in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Prepended to a check's code: a finder that refuses the float stack.
BLOCKER = """
import sys


class RefuseFloatStack:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy"):
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None


sys.meta_path.insert(0, RefuseFloatStack())
"""

#: fig11b (k-resilience) and fig11c (refinement, pr = 1/4) on AB FatTree
#: p=4, destination 1, failure bounds 0 and 1, as published.
FIG11B = {"f10_0": [True, False], "f10_3": [True, True], "f10_3_5": [True, True]}
FIG11C = {
    "f10_0 vs f10_3": ["≡", "<"],
    "f10_3 vs f10_3_5": ["≡", "≡"],
    "f10_3_5 vs teleport": ["≡", "≡"],
}


def run_fresh(code: str, block: bool = False):
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    source = (BLOCKER if block else "") + textwrap.dedent(code)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_every_module_loads_neither_numpy_nor_scipy():
    loaded = run_fresh(
        """
        import importlib, json, pkgutil, sys
        import repro

        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
        print(json.dumps(sorted(m for m in ("numpy", "scipy") if m in sys.modules)))
        """
    )
    assert loaded == []


def test_fig11_verdicts_run_without_the_float_stack():
    tables = run_fresh(
        """
        import json
        from fractions import Fraction

        from repro.analysis.resilience import refinement_table, resilience_table
        from repro.routing import f10_model
        from repro.topology import ab_fat_tree

        topology = ab_fat_tree(4)

        def factory(scheme, k):
            return f10_model(
                topology, 1, scheme=scheme, failure_probability=Fraction(1, 4), max_failures=k
            )

        bounds = [0, 1]
        schemes = ["f10_0", "f10_3", "f10_3_5"]
        pairs = [("f10_0", "f10_3"), ("f10_3", "f10_3_5"), ("f10_3_5", "teleport")]
        resilient = resilience_table(factory, schemes, bounds)
        relation = refinement_table(factory, pairs, bounds, exact=True)
        print(json.dumps({
            "fig11b": {scheme: [resilient[scheme][k] for k in bounds] for scheme in schemes},
            "fig11c": {f"{a} vs {b}": [relation[a, b][k] for k in bounds] for a, b in pairs},
        }))
        """,
        block=True,
    )
    assert tables == {"fig11b": FIG11B, "fig11c": FIG11C}


def test_the_first_float_solve_loads_numpy_and_scipy():
    result = run_fresh(
        """
        import json, sys
        from types import SimpleNamespace

        from repro.backends import MatrixBackend
        from repro.core import syntax as s
        from repro.network import running_example

        bundle = running_example.build()
        before = [m for m in ("numpy", "scipy") if m in sys.modules]
        answers = {}
        for scheme, models in (
            ("naive", bundle.models_naive), ("resilient", bundle.models_resilient)
        ):
            model = SimpleNamespace(
                policy=models["f2"],
                ingress_packets=[bundle.ingress_packet],
                delivered=s.test("sw", 2),
            )
            answers[scheme] = MatrixBackend().delivery_probabilities(model)[bundle.ingress_packet]
        after = [m for m in ("numpy", "scipy") if m in sys.modules]
        print(json.dumps({"before": before, "after": after, "answers": answers}))
        """
    )
    assert result["before"] == []
    assert result["after"] == ["numpy", "scipy"]
    # §2: 80 % for the naive scheme, 96 % for the resilient one, as floats.
    assert result["answers"] == {"naive": 0.8, "resilient": 0.96}
