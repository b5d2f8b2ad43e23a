"""Every script in demos/ runs to completion against the package in src/."""

import pytest

from support import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = run_python(str(demo), timeout=120)
    assert proc.returncode == 0, proc.stderr
