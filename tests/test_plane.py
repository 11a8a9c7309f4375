import dataclasses
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import random_plane_chain
from tamedeg import linalg, plane, poly
from tamedeg.maps import Factor, PolyMap, affine, compose_all, elementary, identity
from tamedeg.plane import (InconsistentLengthError, NotKellerError, PeelStuckError,
                           inverse_mdeg_prediction, length_bound,
                           omega, peel)
from tamedeg.poly import Polynomial, parse_poly


def p2(text):
    return parse_poly(text, n=2)


def count_products(monkeypatch):
    """Fail once more than 20 packed products are formed: every
    product, a power's included, runs through ``poly._mul_packed``."""
    products = []
    mul = poly._mul_packed

    def counted(a, b):
        products.append(None)
        if len(products) > 20:
            raise AssertionError("powers of the lower component were built")
        return mul(a, b)

    monkeypatch.setattr(poly, "_mul_packed", counted)


class TestPeel:
    def test_single_triangular_factor(self):
        f = PolyMap((p2("x"), p2("y + x^3")))
        dec = peel(f)
        assert dec.length == 1
        assert dec.factor_degrees == [3]
        assert dec.compose() == f

    def test_two_factor_chain(self):
        t1 = elementary(2, 0, p2("y^3")).map   # (x + y^3, y)
        t2 = elementary(2, 1, p2("x^2")).map   # (x, y + x^2)
        f = t2.compose(t1)
        dec = peel(f)
        assert dec.length == 2
        assert sorted(dec.factor_degrees) == [2, 3]
        assert dec.compose() == f

    def test_affine_map_has_length_zero(self):
        f = PolyMap((p2("y + 1"), p2("x - y")))
        dec = peel(f)
        assert dec.length == 0
        assert dec.compose() == f

    def test_normalized_orientations_alternate(self):
        rng = random.Random(99)
        f, length, _ = random_plane_chain(rng)
        dec = peel(f)
        for i, factor in enumerate(dec.factors, start=1):
            comp = factor.map.components
            if i % 2 == 1:  # odd factors: (x + f(y), y)
                assert comp[1] == p2("y")
            else:           # even factors: (x, y + f(x))
                assert comp[0] == p2("x")

    def test_non_keller_rejected(self):
        with pytest.raises(NotKellerError):
            peel(PolyMap((p2("x + y^2"), p2("y + x"))))

    @pytest.mark.parametrize("p, q, jac", [
        ("x", "1", "0"),              # constant component
        ("0", "x", "0"),              # zero component
        ("x^2", "1", "0"),            # constant component of a non-affine map
        ("x", "x", "0"),              # singular affine map
        ("x + y", "2*x + 2*y", "0"),  # singular affine map
        ("x^2", "y", "2*x"),          # peeling gets stuck
    ])
    def test_not_keller_message(self, p, q, jac):
        with pytest.raises(NotKellerError) as info:
            peel(PolyMap((p2(p), p2(q))))
        assert str(info.value) == (f"Jacobian determinant is {jac}, "
                                   "not a nonzero constant")

    def test_jacobian_of_stuck_remainder(self, monkeypatch):
        # stuck after two strips: T2 . T1 . G with G = (x, y^2 + x)
        t1 = elementary(2, 0, p2("y^3")).map   # (x + y^3, y)
        t2 = elementary(2, 1, p2("x^2")).map   # (x, y + x^2)
        f = compose_all([t2, t1, PolyMap((p2("x"), p2("y^2 + x")))])
        degrees = []
        jacobian = PolyMap.jacobian_determinant
        monkeypatch.setattr(PolyMap, "jacobian_determinant",
                            lambda m: degrees.append(m.deg()) or jacobian(m))
        with pytest.raises(NotKellerError) as info:
            peel(f)
        assert str(info.value) == ("Jacobian determinant is 2*y, "
                                   "not a nonzero constant")
        assert f.deg() == 12 and degrees == [2]

    def test_stuck_first_step_builds_no_powers(self, monkeypatch):
        # lead(y^2000) is no multiple of lead(x^2 + x + y)^1000 = x^2000; the
        # 999 dense powers of x^2 + x + y are above the dense rule's limit, so
        # J(g) stops the step before it builds them
        g = PolyMap((p2("x^2 + x + y"), p2("y^2000")))
        count_products(monkeypatch)
        with pytest.raises(NotKellerError, match="4000\\*x\\*y\\^1999 \\+ 2000\\*y\\^1999"):
            peel(g)

    def test_jacobian_before_large_power_list(self, monkeypatch):
        # lead(x^2000) = lead(x^2 + x + y)^1000, so the strip would build the
        # 999 dense powers of x^2 + x + y; J(g) = -2000*x^1999 stops it first
        g = PolyMap((p2("x^2 + x + y"), p2("x^2000")))
        count_products(monkeypatch)
        with pytest.raises(NotKellerError) as info:
            peel(g)
        assert str(info.value) == ("Jacobian determinant is -2000*x^1999, "
                                   "not a nonzero constant")

    def test_jacobian_first_keeps_the_message(self):
        with pytest.raises(NotKellerError) as info:
            peel(PolyMap((p2("x^2 + x + y"), p2("x^40"))))
        assert str(info.value) == ("Jacobian determinant is -40*x^39, "
                                   "not a nonzero constant")

    def test_jacobian_first_keeps_keller_maps(self, monkeypatch):
        # x^2, ..., x^40 have a dense count above 64 times the map's 3 terms;
        # J = 1, so peeling goes on
        jacobians = []
        jacobian = PolyMap.jacobian_determinant
        monkeypatch.setattr(PolyMap, "jacobian_determinant",
                            lambda m: jacobians.append(m) or jacobian(m))
        f = PolyMap((p2("x"), p2("y + x^40")))
        dec = peel(f)
        assert jacobians == [f]
        assert dec.length == 1 and dec.factor_degrees == [40]

    def test_stuck_strip_step(self):
        # deg q = 2 * deg p, but lead(q) = x^4 + x^3*y is no multiple of x^4
        g = PolyMap((p2("x^2"), p2("y + x^4 + x^3*y")))
        with pytest.raises(PeelStuckError) as info:
            plane._peel_chain(g)
        assert str(info.value) == ("leading form at degree 4 is not proportional "
                                   "to a power of the lower component's form")
        assert info.value.remainder == g

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            peel(identity(3))


class TestInverse:
    def test_simple_inverse(self):
        f = PolyMap((p2("x"), p2("y + x^3")))
        assert peel(f).inverse_map() == PolyMap((p2("x"), p2("y - x^3")))

    def test_wrong_factor_inverse_detected(self):
        dec = peel(PolyMap((p2("x"), p2("y + x^3"))))
        t = dec.factors[0]
        dec = replace(dec, factors=[Factor(t.map, t.map)])  # T in place of T^-1
        with pytest.raises(AssertionError, match="inverse verification failed"):
            dec.inverse_map()

    def test_inverse_degree_equals_degree(self):
        rng = random.Random(3)
        for _ in range(30):
            f, _, _ = random_plane_chain(rng)
            inv = peel(f).inverse_map()
            assert inv.deg() == f.deg()
            # point check F(F^{-1}(pt)) = pt -- the full symbolic composition
            # is prohibitively large, the decomposition is already certified
            for _ in range(3):
                pt = [Polynomial.constant(2, rng.randrange(-50, 50))
                      for _ in range(2)]
                mid = [c.substitute(pt) for c in inv.components]
                assert [c.substitute(mid) for c in f.components] == pt


P = 2 ** 61 - 1


def _edit_top(t: Factor, edit) -> Factor:
    """The elementary factor (x + f(y), y) or (x, y + f(x)) with the
    coefficient c_k of f's top term replaced by edit(c_k)."""
    i = int(t.map.components[0] == p2("x"))  # the coordinate it shifts
    f = t.map.components[i] - Polynomial.variable(2, i)
    e = max(f.numerators, key=sum)
    c = f.coefficient(e)
    return elementary(2, i, f + Polynomial.monomial(2, e, edit(c) - c))


def _drop_flip(dec):
    """Undo the swap conjugation of the strips; L1 and L2 keep theirs."""
    s = affine([[0, 1], [1, 0]]).map
    return replace(dec, factors=[Factor(compose_all([s, t.map, s]),
                                        compose_all([s, t.inverse, s]))
                                 for t in dec.factors])


def _edit_t1(edit):
    def corrupt(dec):
        return replace(dec, factors=[_edit_top(dec.factors[0], edit), *dec.factors[1:]])
    return corrupt


CORRUPTIONS = {
    "c_k off by one": _edit_t1(lambda c: c + 1),
    "c_k sign flipped": _edit_t1(lambda c: -c),
    "flip dropped": _drop_flip,
}


def _flipped(a=1):
    """(x + 2y^3 + y, y) . (x, y + x^2 - x/2) . (a*x + 2, 3x + y): its last
    strip lowers the second component, so its strips are conjugated by the
    swap.  a = 1/P puts P in the denominators of F and of L1, a = P in the
    inverse's only."""
    return compose_all([elementary(2, 0, p2("2*y^3 + y")).map,
                        elementary(2, 1, p2("x^2 - 1/2*x")).map,
                        affine([[a, 0], [3, 1]], [2, 0]).map])


class TestPointCheck:
    """peel and inverse_map check their answers by one evaluation mod P; a
    map with a denominator divisible by P is checked exactly instead."""

    def test_flipped_chain_is_flipped(self):
        dec = peel(_flipped())
        assert dec.factor_degrees == [2, 3]
        assert dec.l2.map == affine([[0, 1], [1, 0]]).map

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("a", [1, Fraction(1, P), P])
    def test_corrupted_decomposition_raises(self, monkeypatch, corruption, a):
        f = _flipped(a)
        chain = plane._peel_chain

        def corrupted(f_map):
            dec = CORRUPTIONS[corruption](chain(f_map))
            assert dec.compose() != f_map
            return dec

        monkeypatch.setattr(plane, "_peel_chain", corrupted)
        with pytest.raises(AssertionError, match="does not recompose"):
            peel(f)

    @pytest.mark.parametrize("which", range(4))
    @pytest.mark.parametrize("a", [1, Fraction(1, P), P])
    def test_corrupted_inverse_raises(self, which, a):
        # the inverse of L1, T_1, T_2 or L2 off by one constant term
        dec = peel(_flipped(a))
        t = dec.chain[which]
        c0, c1 = t.inverse.components
        chain = dec.chain
        chain[which] = Factor(t.map, PolyMap((c0 + Polynomial.constant(2, 1), c1)))
        dec = replace(dec, l1=chain[0], factors=chain[1:-1], l2=chain[-1])
        with pytest.raises(AssertionError, match="inverse verification failed"):
            dec.inverse_map()

    @pytest.mark.parametrize("a", [Fraction(1, P), P])
    def test_denominator_p_takes_exact_check(self, monkeypatch, a):
        f = _flipped(a)
        recomposed, chains = [], []
        recompose = plane.Decomposition.compose
        monkeypatch.setattr(plane.Decomposition, "compose",
                            lambda dec: recomposed.append(dec) or recompose(dec))
        dec = peel(f)
        assert len(recomposed) == (a != P)
        assert recompose(dec) == f
        compose_all = plane.compose_all
        monkeypatch.setattr(plane, "compose_all",
                            lambda maps: chains.append(len(maps)) or compose_all(maps))
        inv = dec.inverse_map()
        # the inverse's one chain, then one check of each factor
        assert chains == [dec.length + 2] + [2] * 4
        monkeypatch.undo()
        assert f.compose(inv) == identity(2) == inv.compose(f)

    def test_no_exact_recomposition(self, monkeypatch):
        # with no denominator divisible by P, peel composes nothing and
        # inverse_map only the inverse, as one chain that neither composes
        # nor substitutes step by step
        f, _, _ = random_plane_chain(random.Random(11))
        chains, stepped = [], []
        compose_all = plane.compose_all
        monkeypatch.setattr(plane, "compose_all",
                            lambda maps: chains.append(len(maps)) or compose_all(maps))
        monkeypatch.setattr(PolyMap, "compose", lambda m, other: stepped.append(m))
        monkeypatch.setattr(Polynomial, "substitute", lambda p, args: stepped.append(p))
        dec = peel(f)
        assert chains == []
        dec.inverse_map()
        assert chains == [dec.length + 2]
        assert stepped == []


    @pytest.mark.parametrize("a", [1, P])
    def test_image_computed_once(self, monkeypatch, a):
        # peel pushes POINT through L1, T_1, T_2, L2 once and inverse_map
        # reuses that image: the only other points are F's and the inverse's
        f = _flipped(a)
        pushed = []
        at = plane._at
        monkeypatch.setattr(plane, "_at", lambda m, pt: pushed.append(m) or at(m, pt))
        dec = peel(f)
        assert pushed == [f, *(t.map for t in dec.chain)]
        inv = dec.inverse_map()
        assert pushed[len(dec.chain) + 1:] == [inv]
        assert dec.image == at(dec.l2.map, at(dec.factors[1].map, at(
            dec.factors[0].map, at(dec.l1.map, plane.POINT))))

    def test_no_image_takes_both_exact_checks(self, monkeypatch):
        # P divides a denominator of L1: no image is kept, so peel and
        # inverse_map both fall back to their exact checks
        f = _flipped(Fraction(1, P))
        recomposed, chains = [], []
        recompose = plane.Decomposition.compose
        monkeypatch.setattr(plane.Decomposition, "compose",
                            lambda dec: recomposed.append(dec) or recompose(dec))
        dec = peel(f)
        assert recomposed == [dec]
        for _ in range(2):
            with pytest.raises(ValueError):
                dec.image
        assert "image" not in vars(dec)
        compose_all = plane.compose_all
        monkeypatch.setattr(plane, "compose_all",
                            lambda maps: chains.append(maps) or compose_all(maps))
        inv = dec.inverse_map()
        assert chains[1:] == [[t.map, t.inverse] for t in dec.chain]
        monkeypatch.undo()
        assert f.compose(inv) == identity(2)

    def test_affine_ends_not_inverted_by_matrix(self, monkeypatch):
        # rational affine ends: peel builds L1 and L2, and inverse_map their
        # inverses, on integer rows, never through linalg.invert_matrix
        half, third = Fraction(1, 2), Fraction(1, 3)
        f = compose_all([affine([[-half, third], [2, 2 * third]], [3, -half]).map,
                         elementary(2, 1, p2("x^2 - 5*x")).map,
                         elementary(2, 0, p2("2/3*y^3 + y")).map,
                         affine([[half, 3], [-1, 2 * third]], [third, -2]).map])

        def refused(rows):
            raise AssertionError("invert_matrix called")

        monkeypatch.setattr(linalg, "invert_matrix", refused)
        dec = peel(f)
        inv = dec.inverse_map()
        monkeypatch.undo()
        assert dec.l1.map.components[0].denominator > 1
        assert dec.l2.map.components[0].denominator > 1
        assert f.compose(inv) == identity(2) == inv.compose(f)

    def test_decomposition_is_frozen(self):
        # the image peel keeps can describe no other factors: a factor is
        # replaced only in a new decomposition, which computes its own image
        f = compose_all([elementary(2, 0, p2("y^3")).map, affine([[1, 2], [0, 1]], [1, 0]).map])
        dec = peel(f)
        assert "image" in vars(dec)
        scaled = affine([[2, 0], [0, 1]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.l2 = scaled
        inv = replace(dec, l2=scaled).inverse_map()
        assert compose_all([scaled.map, f, inv]) == identity(2)


class TestRandomChains:
    def test_roundtrip_suite(self):
        rng = random.Random(7)
        for _ in range(120):
            f, length, degs = random_plane_chain(rng)
            dec = peel(f)
            assert dec.length == length
            assert sorted(dec.factor_degrees) == degs
            d1, d2 = sorted(f.mdeg())
            assert d2 % d1 == 0
            inv = dec.inverse_map()
            assert tuple(inv.mdeg()) in inverse_mdeg_prediction(d1, d2, length)
            assert length <= length_bound(d1, d2)

    def test_length_of(self):
        rng = random.Random(13)
        f, length, _ = random_plane_chain(rng)
        assert peel(f).length == length


class TestOmegaAndBounds:
    def test_omega_values(self):
        assert omega(60) == 4
        assert omega(7) == 1
        assert omega(1) == 0
        with pytest.raises(ValueError):
            omega(0)

    def test_length_bound_values(self):
        assert length_bound(60, 120) == 5
        assert length_bound(2, 2) == 1
        assert length_bound(1, 8) == 1


class TestPredictions:
    def test_affine_case(self):
        assert inverse_mdeg_prediction(1, 1, 0) == {(1, 1)}
        with pytest.raises(InconsistentLengthError):
            inverse_mdeg_prediction(2, 4, 0)

    def test_length_one(self):
        assert inverse_mdeg_prediction(1, 5, 1) == {(1, 5), (5, 1), (5, 5)}
        assert inverse_mdeg_prediction(3, 3, 1) == {(1, 3), (3, 1), (3, 3)}
        with pytest.raises(InconsistentLengthError):
            inverse_mdeg_prediction(2, 4, 1)

    def test_length_two(self):
        assert inverse_mdeg_prediction(2, 6, 2) == {(6, 3), (3, 6), (6, 6)}
        with pytest.raises(InconsistentLengthError):
            inverse_mdeg_prediction(2, 5, 2)

    def test_sixty_onetwenty_length_five(self):
        expected = {(120, 120),
                    (120, 60), (60, 120),
                    (120, 40), (40, 120),
                    (120, 24), (24, 120)}
        assert inverse_mdeg_prediction(60, 120, 5) == expected

    def test_sixty_onetwenty_length_three(self):
        got = inverse_mdeg_prediction(60, 120, 3)
        quotients = {2, 3, 4, 5, 6, 10, 12, 15, 20, 30}
        expected = {(120, 120)}
        for a in quotients:
            expected.add((120, 120 // a))
            expected.add((120 // a, 120))
        assert got == expected

    def test_length_exceeding_prime_budget(self):
        with pytest.raises(InconsistentLengthError):
            inverse_mdeg_prediction(4, 4, 3)
        with pytest.raises(InconsistentLengthError):
            inverse_mdeg_prediction(8, 16, 5)

    def test_equal_degrees_general(self):
        # (12,12) at length 2: divisors a with at least one prime left in 12/a
        assert inverse_mdeg_prediction(12, 12, 2) == {
            (12, 12), (12, 6), (6, 12), (12, 4), (4, 12),
            (12, 3), (3, 12), (12, 2), (2, 12)}
