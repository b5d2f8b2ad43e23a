"""Every planted fault of `faults.py` still applies to the package: its
old text occurs exactly once in its file.  `python tests/faults.py`
checks that tier-1 catches each one."""

import pytest

from faults import FAULTS, ROOT


def test_fault_names_are_unique():
    names = [fault[0] for fault in FAULTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("fault", FAULTS, ids=[fault[0] for fault in FAULTS])
def test_fault_old_text_occurs_once(fault):
    name, file, old, new, why = fault
    assert old != new and why
    assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1
