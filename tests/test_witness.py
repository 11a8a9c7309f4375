import graphlib
import json
from fractions import Fraction
from math import comb, gcd

import pytest

from tamedeg.classify import Status, classify
from tamedeg.maps import PolyMap, elementary, gallery
from tamedeg.poly import Polynomial, parse_poly
from tamedeg.semigroup import SemigroupPair
from tamedeg.witness import (ConstructionError, Witness, WitnessRecipe, _is_generator, build,
                             build_469_family, build_4k2, build_sum_rule,
                             build_tab_tail, find_sum_rule, tab_tail_start,
                             verify_witness_json)


class TestSumRule:
    def test_third_degree_is_combination(self):
        w = build_sum_rule((3, 4, 7), 2, [1, 1])
        assert w.verified_mdeg == (3, 4, 7)
        assert len(w.factors) == 3

    def test_equal_degrees(self):
        w = build_sum_rule((5, 5, 5), 1, [1])
        assert w.verified_mdeg == (5, 5, 5)

    def test_mixed_coefficients(self):
        w = build_sum_rule((3, 5, 11), 2, [2, 1])
        assert w.verified_mdeg == (3, 5, 11)

    def test_bad_combination_rejected(self):
        with pytest.raises(ConstructionError):
            build_sum_rule((3, 4, 6), 2, [1, 1])

    def test_find_sum_rule(self):
        dec = SemigroupPair(5, 7).member(24)
        assert find_sum_rule((5, 7, 24), dec) is not None
        assert build(find_sum_rule((5, 7, 24), dec)).verified_mdeg == (5, 7, 24)
        assert find_sum_rule((5, 7, 23), SemigroupPair(5, 7).member(23)) is None
        # divisible middle degree short-circuits at index 1
        recipe = find_sum_rule((3, 6, 7), SemigroupPair(3, 6).member(7))
        assert recipe.params["index"] == 1

    def test_plane_divisible_pair(self):
        for d1, d2 in [(1, 10), (2, 6), (3, 12), (5, 5)]:
            w = build_sum_rule((d1, d2), 1, [d2 // d1])
            assert w.verified_mdeg == (d1, d2)

    def test_every_divisible_triple_has_a_sum_rule(self):
        # in a sorted triple, d_a | d_b with a < b puts d_b in the semigroup
        # of the earlier degrees
        for d3 in range(1, 41):
            for d2 in range(1, d3 + 1):
                for d1 in range(1, d2 + 1):
                    d = (d1, d2, d3)
                    if any(d[b] % d[a] == 0 for a in range(3) for b in range(a + 1, 3)):
                        assert find_sum_rule(d, SemigroupPair(d1, d2).member(d3)) is not None, d

    @pytest.mark.parametrize("kind", ["padding", "plane", "nope"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ConstructionError, match="unknown recipe kind"):
            build(WitnessRecipe(kind, {}))


def measured_cancellation(w, at, bt):
    """deg(F1^bt - F2^at) for F = factors[1] . factors[2], computed directly."""
    f1, f2, _ = w.factors[1].map.compose(w.factors[2].map).components
    return int((f1 ** bt - f2 ** at).total_degree())


class TestFourSix:
    def test_both_variants(self):
        for variant, cancel in [(9, 9), (7, 7)]:
            for k in range(0, 4):
                w = build_469_family(k, variant)
                assert w.verified_mdeg == (4, 6, variant + 4 * k)
                assert w.cancellation_degree == cancel
                assert measured_cancellation(w, 2, 3) == cancel

    def test_covers_all_odd_tails(self):
        # every odd d3 >= 7 is variant + 4k for exactly one variant in {7, 9}
        for d3 in range(7, 40, 2):
            variant = 9 if d3 % 4 == 1 else 7
            w = build_469_family((d3 - variant) // 4, variant)
            assert w.verified_mdeg == (4, 6, d3)


class TestFourK2:
    def test_full_covered_range(self):
        for k in (3, 4, 5):
            d2 = 4 * k + 2
            for d3 in range(5 * k + 1, 5 * k + 10):
                w = build_4k2(k, d3)
                assert w.verified_mdeg == (4, d2, d3)
                # cancellation degree is d2 + r for the minimal residue r
                r = next(rr for rr in range(k - 1, k + 3)
                         if (d3 - d2 - rr) % 4 == 0)
                assert w.cancellation_degree == d2 + r

    def test_is_the_tail_at_four_4k_plus_2(self):
        for k in range(3, 12):
            assert tab_tail_start(4, 4 * k + 2) == 5 * k + 1
        for k, d3 in [(3, 16), (4, 27), (7, 40)]:
            w, tail = build_4k2(k, d3), build_tab_tail(4, 4 * k + 2, d3)
            assert w.recipe == WitnessRecipe("four_k2", {"k": k, "d3": d3})
            assert w.factors == tail.factors
            assert w.cancellation_degree == tail.cancellation_degree

    def test_first_coefficient_value(self):
        # a_1 = C(2k+1, 1) / 2 shows up as the x z^{4k-2} coefficient
        k = 3
        w = build_4k2(k, 16)
        mid_factor = w.factors[2].map.components[1]
        assert mid_factor.coefficient((1, 0, 4 * k + 2 - 4)) == Fraction(7, 2)

    def test_below_threshold_rejected(self):
        with pytest.raises(ConstructionError):
            build_4k2(3, 15)
        with pytest.raises(ConstructionError):
            build_4k2(2, 20)


class TestTabTail:
    def test_start_values(self):
        assert tab_tail_start(4, 6) <= 7
        assert tab_tail_start(4, 10) <= 11

    def test_small_cases(self):
        w = build_tab_tail(4, 6, 7)
        assert w.verified_mdeg == (4, 6, 7)
        assert w.cancellation_degree == 7

    def test_coprime_pair(self):
        w = build_tab_tail(5, 6, 25)
        assert w.verified_mdeg == (5, 6, 25)
        assert w.cancellation_degree == 25

    def test_cancellation_degree_is_measured(self):
        for a, b, d3 in [(4, 6, 7), (4, 14, 31), (5, 6, 25), (6, 9, 20), (3, 11, 40)]:
            w = build_tab_tail(a, b, d3)
            g = gcd(a, b)
            assert measured_cancellation(w, a // g, b // g) == w.cancellation_degree

    def test_four_ten_tail(self):
        for d3 in range(11, 32, 2):
            w = build_tab_tail(4, 10, d3)
            assert w.verified_mdeg == (4, 10, d3)

    def test_below_tail_rejected(self):
        with pytest.raises(ConstructionError):
            build_tab_tail(4, 10, 9)

    def test_coefficients_match_forward_substitution(self):
        # oracle: a_s read off [X^s](P^at) = C(bt, s), one s at a time
        def forward(a, b):
            g = gcd(a, b)
            at, bt = a // g, b // g
            coeffs = [Fraction(1)]
            for s in range(1, b // a + 1):
                partial = Polynomial(1, {(l,): c for l, c in enumerate(coeffs)})
                got = (partial ** at).coefficient((s,))
                coeffs.append((comb(bt, s) - got) / at)
            return coeffs

        for b in range(3, 41):
            for a in range(2, b):
                w = build_tab_tail(a, b, tab_tail_start(a, b))
                mid = w.factors[2].map.components[1]
                got = [mid.coefficient((l, 0, b - l * a)) for l in range(b // a + 1)]
                assert got == forward(a, b), (a, b)

    def test_cross_oracle_against_sum_rule(self):
        # where both builders apply they must land on the same multidegree
        for a, b in [(4, 6), (4, 10), (5, 6)]:
            for d3 in range(tab_tail_start(a, b), 30):
                recipe = find_sum_rule((a, b, d3), SemigroupPair(a, b).member(d3))
                w = build_tab_tail(a, b, d3)
                assert w.verified_mdeg == (a, b, d3)
                if recipe is not None:
                    assert build(recipe).verified_mdeg == (a, b, d3)


class TestEndToEnd:
    def test_every_realizable_triple_up_to_18(self):
        for d1 in range(1, 19):
            for d2 in range(d1, 19):
                for d3 in range(d2, 19):
                    c = classify(d1, d2, d3)
                    if c.status != Status.REALIZABLE:
                        continue
                    w = build(c.witness_recipe)
                    assert w.verified_mdeg == (d1, d2, d3)


class TestPersistence:
    def test_json_roundtrip_verifies(self):
        w = build_469_family(1, 9)
        data = json.loads(json.dumps(w.to_json()))
        assert data["target"] == [4, 6, 13]
        assert verify_witness_json(data)

    def test_tampered_witness_detected(self):
        w = build_sum_rule((3, 4, 7), 2, [1, 1])
        data = w.to_json()
        data["target"] = [3, 4, 8]
        assert not verify_witness_json(data)

    def test_recipe_roundtrip(self):
        recipe = WitnessRecipe("tab_tail", {"a": 4, "b": 10, "d3": 13})
        assert recipe.to_json() == {"kind": "tab_tail", "a": 4, "b": 10, "d3": 13}
        assert build(recipe).verified_mdeg == (4, 10, 13)

    def test_every_built_witness_verifies(self):
        # every Realizable sorted triple with d3 <= 25: each factor is a
        # generator and the chain has the target mdeg
        for d1 in range(1, 26):
            for d2 in range(d1, 26):
                for d3 in range(d2, 26):
                    c = classify(d1, d2, d3)
                    if c.status == Status.REALIZABLE:
                        data = json.loads(json.dumps(build(c.witness_recipe).to_json()))
                        assert verify_witness_json(data), (d1, d2, d3)

    def test_one_shifted_component_needs_no_topological_sort(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sorted one shifted component")

        cycle = PolyMap(tuple(parse_poly(c, n=3) for c in ("x + y^2", "y + x^2", "z")))
        assert not _is_generator(cycle)  # two shifted components are sorted
        monkeypatch.setattr(graphlib, "TopologicalSorter", refuse)
        for factor in build_sum_rule((3, 4, 7), 2, [1, 1]).factors:
            assert _is_generator(factor.map)
        assert _is_generator(elementary(3, 1, parse_poly("1/2*x^3*z - 5", n=3)).map)

    def test_factorless_witness_fails_verification(self):
        # the target is the true mdeg of the named map, so only the missing
        # factor chain can make verification fail
        data = {"target": list(gallery("nagata").mdeg()),
                "recipe": {"kind": "gallery", "name": "nagata"}, "factors": []}
        assert not verify_witness_json(data)
