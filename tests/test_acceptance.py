"""Acceptance gate: one test per criterion, each printing a single PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""
import random
import time

from conftest import random_plane_chain
from tamedeg.bracket import poisson_degree
from tamedeg.classify import Status, classify, enumerate_classifications
from tamedeg.maps import affine, compose_all, gallery, nagata_power
from tamedeg.plane import inverse_mdeg_prediction, length_bound, peel
from tamedeg.poly import NEG_INF, Polynomial, parse_poly
from tamedeg.reductions import bounded_reduction_search, check_elementary_reduction
from tamedeg.semigroup import SemigroupPair
from tamedeg.witness import build, build_469_family, build_4k2

from test_bracket import random_poly
from test_reductions import planted_map
from test_semigroup import GOLDEN_GAPS, sieve_members


class Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.budget, (
                f"runtime {elapsed:.1f}s exceeds budget {self.budget}s")


def test_criterion_1_gallery_multidegrees():
    with Timer(1.0):
        t1, t2 = gallery("su_t1"), gallery("su_t2")
        assert t2.compose(t1).mdeg() == (9, 6, 3)
        assert gallery("su_example").mdeg() == (9, 6, 8)
    print("[PASS] criterion 1: gallery multidegrees (9,6,3) and (9,6,8)")


def test_criterion_2_nagata_family():
    with Timer(5.0):
        y2zx = parse_poly("y^2 + z*x", n=3)
        for m in range(1, 7):
            # nagata_power itself asserts the invariant at every step
            power = nagata_power(m)
            assert power.mdeg() == (4 * m - 3, 4 * m - 1, 4 * m + 1)
            f, g, h = power.components
            assert g * g + h * f == y2zx
    print("[PASS] criterion 2: Nagata powers (4n-3,4n-1,4n+1) with exact "
          "invariant, n=1..6")


def test_criterion_3_bracket_facts():
    f = gallery("su_example")
    assert poisson_degree(f.components[0], f.components[1]) >= 11
    assert build_469_family(0, 9).cancellation_degree == 9
    assert build_469_family(0, 7).cancellation_degree == 7
    print("[PASS] criterion 3: bracket degree >= 11 on the irreducible "
          "example; cancellation degrees 9 and 7")


def test_criterion_4_semigroup_tables():
    with Timer(10.0):
        for (d1, d2), expected in GOLDEN_GAPS.items():
            assert SemigroupPair(d1, d2).gaps(min_k=d2) == expected
        assert SemigroupPair(5, 7).frobenius() == 23
        for d1 in range(1, 41):
            for d2 in range(d1, 41):
                limit = 2 * d1 * d2
                reachable = sieve_members(d1, d2, limit)
                pair = SemigroupPair(d1, d2)
                for k in range(limit + 1):
                    assert (pair.member(k) is not None) == reachable[k]
    print("[PASS] criterion 4: golden gap tables, Frobenius(5,7)=23, sieve "
          "oracle agreement for all pairs up to 40")


def test_criterion_5_decision_engine():
    assert classify(3, 4, 5).status == Status.NOT_REALIZABLE
    assert classify(5, 6, 9).status == Status.NOT_REALIZABLE
    assert classify(37, 70, 105).status == Status.CONDITIONAL_ON_JC2
    assert classify(4, 9, 10).status == Status.UNKNOWN
    rng = random.Random(1)
    for _ in range(1000):
        triple = [rng.randrange(1, 60) for _ in range(3)]
        base = classify(*triple)
        rng.shuffle(triple)
        assert classify(*triple).status == base.status
    for d2 in range(3, 41):
        for d3 in range(d2, 41):
            expected = (d2 % 3 == 0
                        or SemigroupPair(3, d2).member(d3) is not None)
            assert (classify(3, d2, d3).status == Status.REALIZABLE) == expected
    print("[PASS] criterion 5: fixed verdicts, permutation invariance x1000, "
          "smallest-degree-3 formula up to 40")


def test_criterion_6_end_to_end_soundness():
    with Timer(60.0):
        built = 0
        for c in enumerate_classifications(25):
            if c.status != Status.REALIZABLE:
                continue
            w = build(c.witness_recipe)
            assert w.verified_mdeg == c.sorted_mdeg
            built += 1
        assert built > 500
    print(f"[PASS] criterion 6: {built} realizable triples up to 25 all "
          "witnessed by exact composition")


def test_criterion_7_four_k2_family():
    for k in (3, 4, 5):
        d2 = 4 * k + 2
        for d3 in range(5 * k + 1, 5 * k + 10):
            w = build_4k2(k, d3)
            assert w.verified_mdeg == (4, d2, d3)
            r = next(rr for rr in range(k - 1, k + 3)
                     if (d3 - d2 - rr) % 4 == 0)
            assert w.cancellation_degree == d2 + r
    print("[PASS] criterion 7: (4,4k+2,d3) family verified for k=3,4,5 with "
          "cancellation degree 4k+2+r")


def test_criterion_8_plane_automorphism_theorems():
    with Timer(60.0):
        rng = random.Random(7)
        for _ in range(500):
            f, length, degs = random_plane_chain(rng)
            dec = peel(f)
            assert dec.compose() == f
            inv = dec.inverse_map()
            d1, d2 = sorted(f.mdeg())
            assert inv.deg() == f.deg()
            assert d2 % d1 == 0
            assert tuple(inv.mdeg()) in inverse_mdeg_prediction(d1, d2,
                                                                dec.length)
            assert dec.length <= length_bound(d1, d2)
        assert inverse_mdeg_prediction(60, 120, 5) == {
            (120, 120), (120, 60), (60, 120), (120, 40), (40, 120),
            (120, 24), (24, 120)}
        expected_l3 = {(120, 120)}
        for a in (2, 3, 4, 5, 6, 10, 12, 15, 20, 30):
            expected_l3 |= {(120, 120 // a), (120 // a, 120)}
        assert inverse_mdeg_prediction(60, 120, 3) == expected_l3
    print("[PASS] criterion 8: 500 random plane chains peeled, inverses "
          "predicted; (60,120) prediction sets verbatim")


def test_criterion_9_property_suites():
    rng = random.Random(5)
    # linear invariance on 200 cases
    for _ in range(200):
        f, g = random_poly(rng), random_poly(rng)
        while True:
            rows = [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(3)]
            try:
                lin = affine(rows)
                break
            except Exception:
                continue
        comps = list(lin.map.components)
        assert (poisson_degree(f.substitute(comps), g.substitute(comps))
                == poisson_degree(f, g))
    # subadditivity plus the equality criterion on 200 cases
    for _ in range(200):
        f, g = random_poly(rng), random_poly(rng)
        if f.total_degree() < 1 or g.total_degree() < 1:
            continue
        d = poisson_degree(f, g)
        bound = f.total_degree() + g.total_degree()
        assert d <= bound
        forms_independent = poisson_degree(
            f.leading_form(), g.leading_form()) != NEG_INF
        assert (d == bound) == forms_independent
    # confinement on 100 constructed pairs with unit linear parts: a pair of
    # bracket degree 2 lives in C[x1, x2]
    from tamedeg.maps import elementary
    from fractions import Fraction
    for _ in range(100):
        chain = []
        for step in range(rng.randrange(1, 4)):
            coord = step % 2
            exps = [0, 0, 0]
            exps[1 - coord] = rng.randrange(2, 4)
            chain.append(elementary(3, coord, Polynomial(
                3, {tuple(exps): Fraction(rng.choice([1, -1, 2]))})))
        m = compose_all([c.map for c in chain])
        f, g = m.components[0], m.components[1]
        assert poisson_degree(f, g) != 2 or f.variables() | g.variables() <= {0, 1}
    print("[PASS] criterion 9: linear invariance x200, degree bound with "
          "equality criterion x200, confinement x100")


def test_criterion_10_reduction_checks():
    f = gallery("su_example")
    for i in range(3):
        assert bounded_reduction_search(f, i, 4, 12) is None
    rng = random.Random(3)
    recovered = 0
    while recovered < 100:
        m = planted_map(rng)
        if m is None:
            continue
        cand = bounded_reduction_search(m, 0, 6, 20)
        assert cand is not None
        ok, _ = check_elementary_reduction(m, cand)
        assert ok
        recovered += 1
    print("[PASS] criterion 10: no elementary reduction within bounds on the "
          "irreducible example; plant-and-recover x100")
