import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedeg import classify as classify_module
from tamedeg import cli, reductions, semigroup
from tamedeg.classify import MAX_ENUMERATE, PRIME_TEST_BOUND
from tamedeg.cli import EXIT_USAGE, main
from tamedeg.maps import PolyMap, compose_all, elementary, gallery
from tamedeg.plane import Decomposition
from tamedeg.poly import MAX_EXPONENT, parse_poly
from tamedeg.reductions import MAX_DEG_BOUND
from tamedeg.semigroup import MAX_GAP_SCAN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def p3(text):
    return parse_poly(text, n=3)


def m3(*components):
    return PolyMap(tuple(map(p3, components)))


def refuse(*args):
    """Stands in for work a call past a limit must never start."""
    raise AssertionError("called past the limit")


class TestDecide:
    def test_realizable_exit_zero(self, capsys):
        code, out, _ = run(capsys, "decide", "5", "7", "24")
        assert code == 0
        assert "Realizable" in out

    def test_not_realizable_exit_one(self, capsys):
        code, out, _ = run(capsys, "decide", "3", "4", "5")
        assert code == 1
        assert "NotRealizable" in out

    def test_unknown_exit_two(self, capsys):
        code, _, _ = run(capsys, "decide", "4", "9", "10")
        assert code == 2

    def test_conditional_exit_three(self, capsys):
        code, out, _ = run(capsys, "decide", "37", "70", "105")
        assert code == 3
        assert "ConditionalOnJC2" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "decide", "7", "5", "24", "--json")
        data = json.loads(out)
        assert data["input"] == [7, 5, 24]
        assert data["sorted"] == [5, 7, 24]
        assert data["status"] == "Realizable"

    def test_witness_flag(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decide", "5", "7", "24",
                           "--witness", "--json")
        assert code == 0
        witness = json.loads(out)["witness"]
        assert witness["target"] == [5, 7, 24]
        assert witness["factors"]
        # persisted witness re-verifies through the verify subcommand
        path = tmp_path / "w.json"
        path.write_text(json.dumps(witness))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert out.strip() == "OK"


    def test_large_prime_degrees(self, capsys):
        # primality of 10^18 + 3 must not take trial division
        p = 10 ** 18 + 3
        start = time.perf_counter()
        code, out, _ = run(capsys, "decide", str(p), str(2 * p), str(3 * p))
        assert time.perf_counter() - start < 2
        assert code == 0
        assert "Realizable [R3: sum rule]" in out

    def test_witness_degree_above_max_exponent_rejected(self, capsys):
        # a witness file may print no exponent above MAX_EXPONENT, so the
        # build is refused before it starts; the verdict alone still answers
        big = str(MAX_EXPONENT + 1)
        code, out, err = run(capsys, "decide", "1", "1", big, "--witness")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: --witness needs every degree at most {MAX_EXPONENT}\n"
        code, out, _ = run(capsys, "decide", "1", "1", big)
        assert code == 0 and out.startswith(f"(1, 1, {big}): Realizable")
        assert run(capsys, "decide", "1", "1", str(MAX_EXPONENT), "--witness")[0] == 0

    def test_witness_at_max_exponent_verifies(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decide", "1", "1", str(MAX_EXPONENT), "--witness", "--json")
        assert code == 0
        path = tmp_path / "w.json"
        path.write_text(json.dumps(json.loads(out)["witness"]))
        assert run(capsys, "verify", str(path)) == (0, "OK\n", "")

    def test_degree_beyond_proven_primality_rejected(self, capsys):
        code, out, err = run(capsys, "decide", "5", "7", str(PRIME_TEST_BOUND))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: degrees must be below {PRIME_TEST_BOUND}\n"


class TestVerify:
    def test_mismatch_detected(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decide", "5", "7", "24",
                           "--witness", "--json")
        witness = json.loads(out)["witness"]
        witness["target"] = [5, 7, 25]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(witness))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert out.strip() == "MISMATCH"

    def test_module_entry_point(self, capsys, tmp_path):
        # python -m tamedeg.cli runs main and exits with its code
        code, out, _ = run(capsys, "decide", "5", "7", "24",
                           "--witness", "--json")
        witness = json.loads(out)["witness"]
        witness["target"] = [5, 7, 25]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(witness))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "tamedeg.cli", "verify",
                               str(path)], capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stdout == "MISMATCH\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/w.json")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("factors, expected", [
        # the Nagata map is not tame, though its mdeg is the target
        ([gallery("nagata")], "MISMATCH"),
        ([elementary(3, 2, p3("x^2")).map, gallery("nagata")], "MISMATCH"),
        ([m3("x^2", "y^3", "z^5")], "MISMATCH"),
        ([m3("x + y", "2*x + 2*y", "z")], "MISMATCH"),  # singular affine
        ([m3("x + y^2", "y + x^2", "z")], "MISMATCH"),  # shifts in a cycle
        ([m3("y + 1", "x - 1/2*z", "3*z")], "OK"),      # invertible affine
        ([m3("2*x + y^2", "y", "z")], "OK"),            # scaled elementary
        ([m3("x + z^2", "y + x*z + z^3", "z")], "OK"),  # triangular
        ([m3("2*x + y*z^2", "-y + z^3", "3*z + 1")], "OK"),  # de Jonquieres
    ])
    def test_factors_must_be_generators(self, capsys, tmp_path, factors, expected):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"target": list(compose_all(factors).mdeg()),
                                    "factors": [f.to_json() for f in factors]}))
        code, out, _ = run(capsys, "verify", str(path))
        assert (code, out) == ((0 if expected == "OK" else 1), expected + "\n")


class TestSemigroup:
    def test_gap_list_output(self, capsys):
        code, out, _ = run(capsys, "semigroup", "5", "7", "--gaps", "--min", "7")
        assert code == 0
        assert out.strip() == "8,9,11,13,16,18,23"

    def test_membership_query(self, capsys):
        code, out, _ = run(capsys, "semigroup", "5", "7", "--k", "24")
        assert code == 0
        assert "24 =" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "semigroup", "5", "7", "--json")
        data = json.loads(out)
        assert data["frobenius"] == 23

    @pytest.mark.parametrize("extra", [[], ["--gaps"], ["--k", "5", "--gaps", "--json"]])
    def test_gap_scan_limit(self, capsys, monkeypatch, extra):
        # the Frobenius number of (1001, 1003) is 1,001,999, so --min 1999
        # leaves one candidate more than the limit
        assert semigroup.SemigroupPair(1001, 1003).frobenius() + 1 - 1999 == MAX_GAP_SCAN + 1
        monkeypatch.setattr(semigroup.SemigroupPair, "member", refuse)
        for pair, scanned in [
                (["1001", "1003", "--min", "1999"], MAX_GAP_SCAN + 1),
                # candidate ranges longer than sys.maxsize
                (["3", str(10**27 + 1)], 2 * 10**27),
                ([str(10**27 + 1), str(10**27 + 3)], 10**54 + 2 * 10**27)]:
            code, out, err = run(capsys, "semigroup", *pair, *extra)
            assert (code, out) == (EXIT_USAGE, "")
            assert err == (f"usage error: listing gaps would test {scanned} "
                           f"candidates, more than {MAX_GAP_SCAN}; raise --min\n")

    def test_gap_scan_at_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(semigroup.SemigroupPair, "gaps", lambda pair, min_k: [min_k])
        code, out, _ = run(capsys, "semigroup", "1001", "1003", "--min", "2000")
        assert (code, out) == (0, "2000\n")
        # a membership query alone scans nothing
        code, out, _ = run(capsys, "semigroup", "99989", "99991", "--k", "7")
        assert (code, out) == (0, "7: not a member\n")


class TestGallery:
    def test_mdeg_output(self, capsys):
        code, out, _ = run(capsys, "gallery", "su_example", "--mdeg")
        assert code == 0
        assert out.strip() == "9 6 8"

    def test_listing(self, capsys):
        code, out, _ = run(capsys, "gallery")
        assert code == 0
        assert "nagata" in out.split()

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "gallery", "nagata", "--json")
        assert PolyMap.from_json(json.loads(out)) == gallery("nagata")

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "gallery", "nope")
        assert code == EXIT_USAGE


class TestAnalyze2:
    def test_decompose_and_inverse(self, capsys, tmp_path):
        t1 = elementary(2, 0, parse_poly("y^3", n=2)).map
        t2 = elementary(2, 1, parse_poly("x^2", n=2)).map
        f = t2.compose(t1)
        path = tmp_path / "map.json"
        path.write_text(json.dumps(f.to_json()))
        code, out, _ = run(capsys, "analyze2", "--map", str(path),
                           "--inverse", "--decompose", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["length"] == 2
        assert sorted(data["factor_degrees"]) == [2, 3]
        inv = PolyMap.from_json(data["inverse"])
        assert f.compose(inv).mdeg() == (1, 1)

    def test_text_inverse_computed_once(self, capsys, tmp_path, monkeypatch):
        f = PolyMap((parse_poly("x", n=2), parse_poly("y + x^3", n=2)))
        path = tmp_path / "map.json"
        path.write_text(json.dumps(f.to_json()))
        calls = []
        original = Decomposition.inverse_map

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Decomposition, "inverse_map", counted)
        code, out, _ = run(capsys, "analyze2", "--map", str(path), "--inverse")
        assert code == 0
        assert out.splitlines()[1] == "inverse: (x, -x^3 + y) (mdeg (1, 3))"
        assert len(calls) == 1

    def test_non_automorphism_exit_one(self, capsys, tmp_path):
        bad = PolyMap((parse_poly("x + y^2", n=2), parse_poly("y + x", n=2)))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad.to_json()))
        code, out, _ = run(capsys, "analyze2", "--map", str(path))
        assert code == 1
        assert "not an automorphism" in out


class TestReduce:
    def test_absent_within_bounds(self, capsys, tmp_path):
        path = tmp_path / "su.json"
        path.write_text(json.dumps(gallery("su_example").to_json()))
        for target in ("1", "2", "3"):
            code, out, _ = run(capsys, "reduce", "--map", str(path),
                               "--target", target)
            assert code == 1
            assert "not found" in out

    def test_found(self, capsys, tmp_path):
        f = gallery("su_t1")
        m = PolyMap((f.components[0] + f.components[1] ** 2,
                     f.components[1], f.components[2]))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(m.to_json()))
        code, out, _ = run(capsys, "reduce", "--map", str(path),
                           "--target", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["found"]
        assert data["achieved_degree"] < 4

    def test_one_check_per_found_map(self, capsys, tmp_path, monkeypatch):
        f = gallery("su_t1")
        m = PolyMap((f.components[0] + f.components[1] ** 2,
                     f.components[1], f.components[2]))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(m.to_json()))
        calls = []
        check = reductions.check_elementary_reduction
        monkeypatch.setattr(reductions, "check_elementary_reduction",
                            lambda *a: calls.append(a) or check(*a))
        assert run(capsys, "reduce", "--map", str(path), "--target", "1") == (
            0, "g = X^2 (reduces component 1 to degree 1)\n", "")
        assert len(calls) == 1

    def test_bad_target(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(gallery("su_t1").to_json()))
        code, _, err = run(capsys, "reduce", "--map", str(path), "--target", "4")
        assert code == EXIT_USAGE

    def test_deg_bound_limit(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "su.json"
        path.write_text(json.dumps(gallery("su_example").to_json()))
        argv = ["reduce", "--map", str(path), "--target", "1", "--deg-bound"]
        assert MAX_DEG_BOUND >= 40  # the bound the benchmark searches with
        assert run(capsys, *argv, str(MAX_DEG_BOUND)) == (
            1, "not found within bounds\n", "")
        # above the limit: a usage error before the search builds anything
        monkeypatch.setattr(reductions, "bounded_reduction_search", None)
        code, out, err = run(capsys, *argv, str(MAX_DEG_BOUND + 1))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: --deg-bound must be at most {MAX_DEG_BOUND}\n"

    def test_search_cells_limit(self, capsys, tmp_path):
        # linear components at the largest bounds: refused before the class
        # of Y-degree 3 is set up
        path = tmp_path / "linear.json"
        path.write_text(json.dumps(
            {"n": 3, "components": ["x + y + z", "x + 2*y + 3*z", "z + 5*x + 7*y"]}))
        assert run(capsys, "reduce", "--map", str(path), "--target", "3",
                   "--degy-bound", "40", "--deg-bound", "40") == (
            EXIT_USAGE, "", "error: reduction search may exceed 4000000 cells "
                            "(400 products x 12340 monomials)\n")
        # at the same bounds a search solved in its first class is answered
        path.write_text(json.dumps({"n": 3, "components": ["x + y^2", "y", "z"]}))
        assert run(capsys, "reduce", "--map", str(path), "--target", "1",
                   "--degy-bound", "8", "--deg-bound", "40") == (
            0, "g = X^2 (reduces component 1 to degree 1)\n", "")


class TestEnumerate:
    def test_csv_shape(self, capsys):
        code, out, err = run(capsys, "enumerate", "--max", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d1,d2,d3,status,rule,original"
        expected_rows = sum(1 for a in range(1, 6) for b in range(a, 6)
                            for c in range(b, 6))
        assert len(lines) == expected_rows + 1
        assert "Realizable" in err  # summary counts on stderr

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max", "3",
                           "--format", "json")
        data = json.loads(out)
        assert all({"sorted", "status", "rule", "original"} <= set(r) for r in data)

    def test_json_stream_matches_one_dump(self, capsys):
        rows = [{"sorted": list(c.sorted_mdeg), "status": c.status.value,
                 "rule": c.rule, "original": list(c.original)}
                for c in classify_module.enumerate_classifications(8)]
        code, out, _ = run(capsys, "enumerate", "--max", "8", "--format", "json")
        assert code == 0
        assert out == json.dumps(rows, indent=2) + "\n"

    @pytest.mark.parametrize("count", range(6))
    def test_json_chunks_join_to_one_dump(self, capsys, count):
        items = [{"k": i, "s": [i, "a\nb"]} for i in range(count)]
        cli._print_json_array(iter(items), chunk=2)
        assert capsys.readouterr().out == json.dumps(items, indent=2) + "\n"

    def test_bad_max(self, capsys):
        code, _, err = run(capsys, "enumerate", "--max", "0")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_max_limit(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(classify_module, "classify", refuse)
        monkeypatch.setattr(cli, "classify", refuse)
        code, out, err = run(capsys, "enumerate", "--max", str(MAX_ENUMERATE + 1),
                             "--format", fmt)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: --max must be at most {MAX_ENUMERATE}\n"
        monkeypatch.setattr(cli, "enumerate_classifications", lambda bound: iter(()))
        code, out, _ = run(capsys, "enumerate", "--max", str(MAX_ENUMERATE), "--format", fmt)
        assert code == 0


# strings with quotes, backslashes, control characters, non-ASCII and astral
# characters, and lone surrogates, which json escapes as \uXXXX
json_strings = st.text() | st.text(st.sampled_from(
    '"\\/\x00\x1f\x7f\b\n\t\u00e9\u2028\U0001f600\ud800'))
json_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
                | st.floats() | st.sampled_from([float("inf"), float("-inf"), float("nan")])
                | json_strings)
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(json_strings, inner, max_size=4)),
    max_leaves=20)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        {}, [], (), "", {"a": {}}, [[]], {"": [(), {}]}, True, False, None, -0.0, 10 ** 40,
    ])
    def test_empty_and_edge_values(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_refuses_other_values_and_keys(self):
        # json.dumps would print the key as "1"; no command prints one
        with pytest.raises(TypeError):
            cli._json_text({1, 2})
        with pytest.raises(TypeError):
            cli._json_text({1: "int key"})

    @pytest.mark.parametrize("count", [0, 1, 1000, 1001])
    def test_array_in_default_chunks_is_one_dump(self, capsys, count):
        items = [{"sorted": [i, i + 1, 2 * i], "status": "Realizable", "rule": f"R{i}"}
                 for i in range(count)]
        cli._print_json_array(iter(items))
        assert capsys.readouterr().out == json.dumps(items, indent=2) + "\n"


def usage_calls(tmp_path):
    """Argv lists over every command: answers, usage errors and bad files."""
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({"n": 2, "components": ["x + y^2", "y"]}))
    triangular = tmp_path / "tri.json"
    triangular.write_text(json.dumps({"n": 3, "components": ["x", "y", "z + x^2*y"]}))
    return [
        ["decide", "5", "7", "24", "--json"], ["decide", "3", "4", "5"],
        ["decide", "3", "4"], ["decide", "2", "3", "5", "--witness"],
        ["semigroup", "3", "5", "--k", "7", "--json"], ["semigroup", "3", "5", "--gaps"],
        ["semigroup", "3", "5"], ["enumerate", "--max", "3", "--format", "json"],
        ["enumerate", "--max", "3"], ["enumerate", "--max", "3", "--format", "xml"],
        ["gallery", "--mdeg"], ["gallery", "nagata", "--json"], ["gallery"],
        ["analyze2", "--map", str(plane), "--decompose", "--inverse", "--json"],
        ["analyze2", "--map", str(plane)], ["analyze2"],
        ["reduce", "--map", str(triangular), "--target", "3", "--degy-bound", "2"],
        ["reduce", "--map", str(triangular), "--target", "3", "--json"],
        ["reduce", "--map", str(triangular)], ["bogus"], [], ["decide", "1", "2", "x"],
    ]


# the same argv with the command in front of, inside or beside argparse's
# own handling: help, "--", abbreviations, bad values and unknown words
DISPATCH_CALLS = [
    ["decide", "-h"], ["-h"], ["--", "decide", "5", "7", "24"],
    ["decide", "1", "2", "3", "--bogus"], ["decide", "-3", "4", "5"],
    ["decide", "--wit", "5", "7", "24"], ["semigroup", "3", "5", "--k=7"],
    ["Decide", "5", "7", "24"], ["dec", "5", "7", "24"],
]


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "bogus")[0] == EXIT_USAGE

    def test_missing_arguments(self, capsys):
        assert run(capsys, "decide", "3")[0] == EXIT_USAGE

    def test_cached_parser_matches_fresh_parsers(self, capsys, tmp_path, monkeypatch):
        """The parser is built once per process; no option value, default or
        error state may carry from one call to the next."""
        calls = usage_calls(tmp_path)

        def outcomes():
            return [run(capsys, *argv) for argv in calls]

        cached = outcomes()
        assert outcomes() == cached
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert outcomes() == cached
        assert {code for code, _, _ in cached} >= {0, 1, EXIT_USAGE}

    def test_command_parser_matches_top_level_parser(self, capsys, tmp_path, monkeypatch):
        """An argv that starts with a command goes straight to that command's
        parser; through the top-level parser alone (no command parsers to
        hand argv to) every call must give the same code, stdout and stderr."""
        calls = usage_calls(tmp_path) + DISPATCH_CALLS

        def outcomes():
            results = []
            for argv in calls:
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = ("SystemExit", exc.code)
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results

        direct = outcomes()
        top_level = cli._build_parser.__wrapped__()
        top_level.commands = {}
        monkeypatch.setattr(cli, "_build_parser", lambda: top_level)
        assert outcomes() == direct
        assert {code for code, _, _ in direct} >= {0, 1, EXIT_USAGE, ("SystemExit", 0)}

    def test_command_argv_skips_the_top_level_parser(self, capsys, tmp_path, monkeypatch):
        parser = cli._build_parser.__wrapped__()
        parser.parse_args = refuse
        monkeypatch.setattr(cli, "_build_parser", lambda: parser)
        code, out, _ = run(capsys, "decide", "5", "7", "24", "--witness", "--json")
        assert code == 0
        path = tmp_path / "w.json"
        path.write_text(json.dumps(json.loads(out)["witness"]))
        assert run(capsys, "verify", str(path)) == (0, "OK\n", "")
        with pytest.raises(AssertionError, match="past the limit"):
            main(["--", "verify", str(path)])

    @pytest.mark.parametrize("argv, content", [
        (["analyze2", "--map"], {"n": 2}),
        (["reduce", "--target", "1", "--map"], {"n": 2}),
        (["analyze2", "--map"], [1, 2]),
        (["verify"], {}),
        (["verify"], {"target": [1, 1, 1], "factors": [{"n": 3}]}),
        (["analyze2", "--map"],
         {"n": 2, "components": ["(" * 3000 + "x" + ")" * 3000, "y"]}),
        (["analyze2", "--map"], {"n": 2, "components": ["x", "-" * 3000 + "y"]}),
        (["analyze2", "--map"], {"n": 2, "components": ["x + 1/0", "y"]}),
        (["reduce", "--target", "1", "--map"],
         {"n": 3, "components": ["x", "y", "z + 2/0*x"]}),
        (["analyze2", "--map"], {"n": 2, "components": ["x + y^1000000", "y"]}),
        # each '^' is within MAX_EXPONENT, the exponents they give y are not
        (["analyze2", "--decompose", "--map"], {"n": 2, "components": ["x + (y^10000)^30", "y"]}),
        (["analyze2", "--decompose", "--map"], {"n": 2, "components": ["x + y^10000*y", "y"]}),
        (["analyze2", "--decompose", "--map"], {"n": 2, "components": ["x + y*y^10000", "y"]}),
        (["verify"], {"target": [1, 1, 10001], "recipe": None, "factors": [
            {"n": 3, "components": ["x", "y", "z + x^10001"]}]}),
        (["analyze2", "--map"], {"n": 2, "components": ["x + " + "9" * 5000 + "*y^2", "y"]}),
    ])
    def test_malformed_file(self, capsys, tmp_path, argv, content):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, *argv, str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["analyze2", "--map"], ["reduce", "--target", "1", "--map"], ["verify"]])
    def test_deeply_nested_file(self, capsys, tmp_path, argv):
        path = tmp_path / "in.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert run(capsys, *argv, str(path)) == (
            EXIT_USAGE, "", f"error: {path}: JSON nested too deeply\n")

    @pytest.mark.parametrize("argv", [
        ["analyze2", "--map"], ["reduce", "--target", "1", "--map"], ["verify"]])
    def test_file_not_json(self, capsys, tmp_path, argv):
        path = tmp_path / "in.json"
        path.write_text('{"n": 2,')
        assert run(capsys, *argv, str(path)) == (
            EXIT_USAGE, "", f"error: {path}: Expecting property name enclosed in "
                            "double quotes: line 1 column 9 (char 8)\n")

    @pytest.mark.parametrize("argv, content", [
        # aliased names: both components would read x as the second variable
        (["analyze2", "--map"], {"n": 2, "vars": ["x", "x"], "components": ["x + 1", "x"]}),
        # "1" is no name, so the first variable could not be written
        (["analyze2", "--map"], {"n": 2, "vars": ["1", "y"], "components": ["y + 1", "y"]}),
        (["verify"], {"target": [1, 1, 1], "factors": [
            {"n": 3, "vars": ["x", "y", "x"], "components": ["x", "y", "x"]}]}),
    ])
    def test_vars_must_be_distinct_names(self, capsys, tmp_path, argv, content):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(content))
        assert run(capsys, *argv, str(path)) == (
            EXIT_USAGE, "", "error: map JSON 'vars' must be a list of n distinct "
                            "variable names\n")

    @pytest.mark.parametrize("argv, content", [
        (["analyze2", "--map"], {"n": 2, "components": ["x1 + x2", "x2"]}),
        (["reduce", "--target", "1", "--map"], {"n": 3, "components": ["x1 + x2", "x2", "x3"]}),
        (["verify"], {"target": [1, 1, 1], "factors": [
            {"n": 3, "components": ["x1 + x2", "x2", "x3"]}]}),
    ])
    def test_default_names_are_default_varnames(self, capsys, tmp_path, argv, content):
        # without vars a map's names are default_varnames(n), x, y, z for
        # n <= 3; x1..x9 are parse_poly's alternative spellings only
        path = tmp_path / "in.json"
        path.write_text(json.dumps(content))
        assert run(capsys, *argv, str(path)) == (
            EXIT_USAGE, "", "error: unknown variable 'x1' (at position 0)\n")

    @pytest.mark.parametrize("argv, content", [
        (["analyze2", "--map"], {"n": 10, "components": ["x"] * 10}),
        (["verify"], {"target": [1, 1, 1], "factors": [{"n": 10, "components": ["x"] * 10}]}),
    ])
    def test_default_names_stop_at_nine(self, capsys, tmp_path, argv, content):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(content))
        assert run(capsys, *argv, str(path)) == (
            EXIT_USAGE, "", "error: default variable names support at most 9 variables\n")

    def test_unprintable_coefficient(self, capsys, tmp_path):
        # a valid automorphism whose inverse has a coefficient of more digits
        # than Python converts to text: a message naming the limit, exit 64
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit or limit > 6000:
            pytest.skip("no int-to-text digit limit below 6000 digits")
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"n": 2, "components": [
            "(x + 10^3000*y^2)", "y + 10^1000*(x + 10^3000*y^2)^2"]}))
        code, out, err = run(capsys, "analyze2", "--map", str(path),
                             "--decompose", "--inverse", "--json")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: coefficient longer than {limit} digits cannot be printed\n"
