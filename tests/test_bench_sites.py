"""Every site the traced benchmark wraps must exist in the program.

``bench/spans.py`` looks each (owner, attribute) pair up with
``vars(owner)[attr]`` when it installs its timers, so renaming or deleting
one of those functions breaks the traced benchmark run.  This test names the
missing site instead.  The traced pass below also breaks when a counter the
tracer reads from arguments or results (``Polynomial.terms``, the rows given
to ``solve_linear``) stops being there.
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if not BENCH.is_dir():
    pytest.skip("bench/ is not present", allow_module_level=True)
sys.path.insert(0, str(BENCH))

from spans import LAYERS, Tracer  # noqa: E402
from tamedeg import cli  # noqa: E402


@pytest.mark.parametrize("name, sites", [(name, sites) for name, _, sites in LAYERS])
def test_wrapped_sites_exist(name, sites):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in sites
               if attr not in vars(owner)]
    assert not missing, f"span {name}: no such site {missing}"


def test_traced_pass(tmp_path, capsys):
    plane_map = tmp_path / "plane.json"
    plane_map.write_text(json.dumps(
        {"n": 2, "vars": ["x", "y"], "components": ["x + y^2 + 1", "y + (x + y^2)^3"]}))
    # X = x + y has the target's degree 1, so the search solves the class of
    # Y-degree 0 (Y = x^2 + y); the SU bound prunes the later classes
    reduce_map = tmp_path / "reduce.json"
    reduce_map.write_text(json.dumps({"n": 3, "components": ["z", "x + y", "x^2 + y"]}))
    with Tracer() as tracer:
        codes = [cli.main(["decide", "5", "7", "24", "--witness", "--json"]),
                 cli.main(["analyze2", "--map", str(plane_map), "--decompose",
                           "--inverse", "--json"]),
                 cli.main(["reduce", "--map", str(reduce_map), "--target", "1",
                           "--json"])]
    capsys.readouterr()
    assert codes == [0, 0, 1]
    assert tracer.counts.get("poly.mul.term_pairs", 0) > 0
    assert tracer.counts.get("linalg.solve_linear.cells", 0) > 0
    assert tracer.spans["cli.main"][0] == 3
