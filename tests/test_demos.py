"""Every script in demos/ and every python block of README.md runs to
completion against the package in src/, and `from tropspan import *`
binds exactly the names of `tropspan.__all__`."""

import re

import pytest

import tropspan

from support import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = run_python(str(demo), timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(block):
    proc = run_python("-c", block, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_star_import_binds_every_name_of_all():
    namespace = {}
    exec("from tropspan import *", namespace)
    del namespace["__builtins__"]
    # a name of __all__ that does not resolve makes the import raise
    assert namespace.keys() == set(tropspan.__all__)
