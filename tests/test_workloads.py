"""The benchmark's in-process ops run in Tier-1: an API change that breaks
one shows here, not first in a benchmark run."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["cluster-bands", "audit-bulk"])
@pytest.mark.parametrize("seed", [1, 3])
def test_op_passes_its_check_on_the_warmup_input(name, seed):
    wl = workloads.WORKLOADS[name](ROOT, seed)
    x = wl.warmup_input()
    assert wl.check(0, x, wl.op(x)) == []
