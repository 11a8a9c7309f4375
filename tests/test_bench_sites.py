"""Every site the traced benchmark wraps must exist in the program.

``bench/spans.py`` looks each (owner, attribute) pair up with
``vars(owner)[attr]`` when it installs its timers, so renaming or deleting
one of those functions breaks the traced benchmark run.  This test names the
missing site instead.
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if not BENCH.is_dir():
    pytest.skip("bench/ is not present", allow_module_level=True)
sys.path.insert(0, str(BENCH))

from spans import LAYERS  # noqa: E402


@pytest.mark.parametrize("name, sites", [(name, sites) for name, _, sites in LAYERS])
def test_wrapped_sites_exist(name, sites):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in sites
               if attr not in vars(owner)]
    assert not missing, f"span {name}: no such site {missing}"
