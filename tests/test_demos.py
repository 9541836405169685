"""Every demo script runs to completion and prints its golden output.

The demos call the public API directly, so a signature change that breaks
one shows up here, and so does a change to any number they print: each
demo's stdout is compared with tests/golden/<demo>.out.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{path.stem}.out").read_bytes().decode()
