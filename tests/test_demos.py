"""Every demo runs to completion in a fresh interpreter."""

from pathlib import Path

import pytest

from conftest import run_in_fresh_python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(tmp_path, demo):
    # from a scratch directory: a demo may write its outputs where it runs
    assert run_in_fresh_python(
        f"import os, runpy; os.chdir({str(tmp_path)!r}); "
        f"runpy.run_path({str(demo)!r}, run_name='__main__')")
