"""Every script under ``examples/`` runs to completion, and the ones that
print the paper's tables print the published values.

Each example is executed in-process as ``__main__`` with its output
captured and the working directory set to a scratch directory —
``wan_topology.py`` and ``tracing_demo.py`` write their artefacts into
the current directory.  A script runs once per session; the table
checks read the output of that run.
"""

from __future__ import annotations

import contextlib
import io
import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))
BY_NAME = {script.name: script for script in EXAMPLES}


@pytest.fixture(scope="session")
def example_output(tmp_path_factory):
    """``run(script)``: the script's standard output, from its one run."""
    outputs: dict[Path, str] = {}

    def run(script: Path) -> str:
        if script not in outputs:
            stdout = io.StringIO()
            with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(stdout):
                patch.chdir(tmp_path_factory.mktemp(script.stem))
                patch.setattr("sys.argv", [str(script)])
                try:
                    runpy.run_path(str(script), run_name="__main__")
                except SystemExit as exit_:
                    assert not exit_.code
            outputs[script] = stdout.getvalue()
        return outputs[script]

    return run


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, example_output):
    assert example_output(script)


def rows_under(output: str, title: str) -> list[str]:
    """The lines after the one starting with ``title``, up to a blank line."""
    lines = output.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(title)) + 1
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        rows.append(line)
    return rows


def numeric_rows(rows: list[str], columns: int) -> dict[str, list[float]]:
    """``label -> values`` for rows that end in ``columns`` numbers."""
    table = {}
    for row in rows:
        tokens = row.split()
        table[" ".join(tokens[:-columns])] = [float(value) for value in tokens[-columns:]]
    return table


@pytest.fixture(scope="module")
def resilience(example_output):
    return example_output(BY_NAME["data_center_resilience.py"])


def test_resilience_example_prints_the_published_figure_11b(resilience):
    header, *rows = rows_under(resilience, "Figure 11(b)")
    assert header.split("\t")[1:] == [f"{s} ≡ teleport" for s in ("f10_0", "f10_3", "f10_3_5")]
    assert {row.split("\t")[0]: "".join(row.split("\t")[1:]) for row in rows} == {
        "0": "✓✓✓",
        "1": "✗✓✓",
        "2": "✗✓✓",
        "3": "✗✗✓",
        "4": "✗✗✗",
        "∞": "✗✗✗",
    }


def test_resilience_example_prints_the_published_figure_11c(resilience):
    _, *rows = rows_under(resilience, "Figure 11(c)")
    assert {row.split("\t")[0]: "".join(row.split("\t")[1:]) for row in rows} == {
        "0": "≡≡≡",
        "1": "<≡≡",
        "2": "<≡≡",
        "3": "<<≡",
        "4": "<<<",
        "∞": "<<<",
    }


def test_resilience_example_prints_the_figure_12a_sweep(resilience):
    header, *rows = rows_under(resilience, "Figure 12(a)")
    assert header.split()[1:] == ["1/128", "1/64", "1/32", "1/16", "1/8", "1/4"]
    sweep = numeric_rows(rows, 6)
    assert list(sweep) == [
        "AB FatTree, f10_0",
        "AB FatTree, f10_3",
        "AB FatTree, f10_3_5",
        "FatTree, f10_3_5",
    ]
    for label, values in sweep.items():
        assert values == sorted(values, reverse=True), label
    assert sweep["AB FatTree, f10_0"][-1] < 0.85
    assert sweep["AB FatTree, f10_3_5"][-1] > 0.99


def test_path_stretch_example_prints_figure_12b(example_output):
    output = example_output(BY_NAME["path_stretch.py"])
    header, *rows = rows_under(output, "Figure 12(b)")
    assert header.split()[1:] == ["2", "4", "6", "8", "10", "12"]
    cdf = {
        label: dict(zip((2, 4, 6, 8, 10, 12), values))
        for label, values in numeric_rows(rows, 6).items()
    }
    for label, values in cdf.items():
        assert list(values.values()) == sorted(values.values()), label
    # 3-hop detours recover traffic at 6 hops on the AB FatTree; the
    # standard FatTree needs 8.
    assert cdf["AB FatTree, F10_3,5"][6] > cdf["AB FatTree, F10_0"][6]
    assert cdf["FatTree, F10_3,5"][6] == cdf["FatTree, F10_3,5"][4]
    assert cdf["FatTree, F10_3,5"][8] > cdf["FatTree, F10_3,5"][6]


def test_path_stretch_example_prints_figure_12c(example_output):
    output = example_output(BY_NAME["path_stretch.py"])
    hops = {
        label.strip(): float(value)
        for label, value in (row.split(":") for row in rows_under(output, "Figure 12(c)"))
    }
    # Resilience is paid for in path length, more so on the standard FatTree.
    assert 2.0 <= hops["AB FatTree, F10_0"] < hops["AB FatTree, F10_3,5"]
    assert hops["AB FatTree, F10_3,5"] < hops["FatTree, F10_3,5"] <= 10.0


def test_quickstart_prints_the_overview_numbers(example_output):
    """§2: naive 80 %, resilient 96 % under f2, and resilient ≡ teleport under f1."""
    output = example_output(BY_NAME["quickstart.py"])
    assert "M̂(p̂, t̂, f1) ≡ teleport (1-resilience): True" in output
    assert "M̂(p, t̂, f1) ≡ teleport: False" in output
    delivery = rows_under(output, "Delivery probabilities under f2")
    assert [row.split(":")[1].strip() for row in delivery[:2]] == ["80.00%", "96.00%"]
    batched = rows_under(output, "Same query via the batched matrix backend")
    assert batched[0].split(":")[1].strip() == "96.00%"


def test_chain_comparison_example_prints_figure_10(example_output):
    header, *rows = example_output(BY_NAME["chain_comparison.py"]).splitlines()
    assert header.split()[:4] == ["diamonds", "switches", "P[deliver]", "chain"]
    assert rows
    for row in rows:
        diamonds, switches, delivered, states, _lines = row.split()
        d = int(diamonds)
        assert int(switches) == 4 * d
        assert float(delivered) == pytest.approx((1 - 1 / 2000) ** d, abs=5e-7)
        assert int(states) == 5 * d + 1
