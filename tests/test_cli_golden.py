"""Byte-identity of the CLI on a fixed corpus.

Each group runs ``cli.main`` in-process on a list of calls and hashes every
(argv, exit code, stdout, stderr) into one SHA-256, so a change to any byte
of any call names the group it sits in.  Map and witness files are written
to the working directory under fixed relative names, so no temporary path
reaches the hash.
"""
import hashlib
import json
import random

import pytest

from conftest import random_plane_chain
from tamedeg.cli import main
from tamedeg.maps import PolyMap, gallery
from tamedeg.poly import Polynomial

GOLDEN = {
    "decide_verify":
        "acba1966ef2a1bb7f9bd95a7890359ad2082ac7ff370e7df98e7f12a8055fb2d",
    "analyze2":
        "660f88879d20ddd1f341fd2027788d3f9f6dffb8dd25677fcc57f84720df5c1c",
    "reduce":
        "d6b570ec83a684f368db40733ed8bd22f1e81b3c7bb50d0f4a86ab9324a67d47",
    "semigroup_enumerate":
        "ed4fb53d203dea981812b093f15e75220ff25fe8ee265f2210be02d3f9afe345",
    "text":
        "b15e26879a3b79c7bf549fb6dc0e077de9944f79c76b2d49960014cc29d47ebd",
}


class _Recorder:
    def __init__(self, capsys):
        self.capsys = capsys
        self.hash = hashlib.sha256()

    def __call__(self, *argv: str):
        code = main(list(argv))
        out, err = self.capsys.readouterr()
        self.hash.update(json.dumps([list(argv), code, out, err]).encode() + b"\n")
        return code, out


def _write(name: str, data: dict) -> str:
    with open(name, "w") as fh:
        json.dump(data, fh)
    return name


def _decide_verify(run):
    for c in range(1, 16):
        for b in range(1, c + 1):
            for a in range(1, b + 1):
                _, out = run("decide", str(a), str(b), str(c), "--witness", "--json")
                built = json.loads(out).get("witness")
                if built is not None:
                    run("verify", _write("w.json", built))


def _analyze2(run):
    # each chain, and its copy with x added to every component: 37 of the 40
    # copies are not automorphisms and take the rejection path
    for s in range(40):
        m = random_plane_chain(random.Random(s))[0]
        x = Polynomial.variable(2, 0)
        shifted = PolyMap(tuple(c + x for c in m.components))
        for case in (m, shifted):
            run("analyze2", "--map", _write("m.json", case.to_json()),
                "--decompose", "--inverse", "--json")


def _reduce(run):
    path = _write("su.json", gallery("su_example").to_json())
    for target in ("1", "2", "3"):
        run("reduce", "--map", path, "--target", target, "--json")


def _semigroup_enumerate(run):
    run("semigroup", "5", "7", "--gaps", "--min", "7")
    run("semigroup", "5", "7", "--k", "24", "--json")
    run("enumerate", "--max", "6")
    run("enumerate", "--max", "6", "--format", "json")


def _text(run):
    # the output without --json: every text branch of every subcommand
    for s in range(6):
        m = random_plane_chain(random.Random(s))[0]
        run("analyze2", "--map", _write("m.json", m.to_json()),
            "--decompose", "--inverse")
    x = Polynomial.variable(2, 0)
    rejected = PolyMap(tuple(c + x for c in m.components))
    run("analyze2", "--map", _write("m.json", rejected.to_json()),
        "--decompose", "--inverse")
    for degrees in (("2", "3", "5"), ("4", "6", "13"), ("5", "7", "24"),
                    ("3", "5", "7")):
        run("decide", *degrees, "--witness")
    run("gallery")
    run("gallery", "su_example")
    run("gallery", "su_example", "--mdeg")
    t1 = gallery("su_t1")
    found = PolyMap((t1.components[0] + t1.components[1] ** 2,
                     t1.components[1], t1.components[2]))
    run("reduce", "--map", _write("m.json", found.to_json()), "--target", "1")
    run("reduce", "--map", _write("su.json", gallery("su_example").to_json()),
        "--target", "2")
    run("semigroup", "5", "7", "--k", "24")
    run("semigroup", "5", "7", "--k", "23")


GROUPS = {
    "decide_verify": _decide_verify,
    "analyze2": _analyze2,
    "reduce": _reduce,
    "semigroup_enumerate": _semigroup_enumerate,
    "text": _text,
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_cli_output_is_byte_identical(group, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run = _Recorder(capsys)
    GROUPS[group](run)
    assert run.hash.hexdigest() == GOLDEN[group]
