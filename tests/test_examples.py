"""Every script under ``examples/`` runs to completion.

Each example is executed in-process as ``__main__`` with its output
captured and the working directory set to a scratch directory —
``wan_topology.py`` and ``tracing_demo.py`` write their artefacts into
the current directory.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", [str(script)])
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exit_:
        assert not exit_.code
    assert capsys.readouterr().out
