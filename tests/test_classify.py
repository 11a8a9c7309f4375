import random

import pytest

from tamedeg import classify as classify_module
from tamedeg.classify import (PRIME_TEST_BOUND, Status, _applicable_rules,
                              _is_prime, classify, enumerate_classifications)
from tamedeg.semigroup import SemigroupPair


class TestFixedVerdicts:
    @pytest.mark.parametrize("triple,status", [
        ((1, 1, 1), Status.REALIZABLE),
        ((1, 5, 9), Status.REALIZABLE),
        ((2, 100, 10001), Status.REALIZABLE),
        ((3, 4, 5), Status.NOT_REALIZABLE),
        ((5, 6, 9), Status.NOT_REALIZABLE),
        ((5, 7, 23), Status.NOT_REALIZABLE),
        ((5, 7, 24), Status.REALIZABLE),
        ((4, 6, 9), Status.REALIZABLE),
        ((4, 9, 10), Status.UNKNOWN),
        ((37, 70, 105), Status.CONDITIONAL_ON_JC2),
    ])
    def test_verdict(self, triple, status):
        assert classify(*triple).status == status

    def test_conditional_note_mentions_jacobian_conjecture(self):
        c = classify(37, 70, 105)
        assert any("Jacobian Conjecture" in note for note in c.notes)

    def test_small_exceptional_family_is_settled(self):
        # same family shape, small prime: unconditionally negative
        c = classify(5, 6, 9)
        assert c.status == Status.NOT_REALIZABLE

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classify(0, 1, 2)


class TestPrimality:
    def test_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        assert [n for n in range(1, 10 ** 5) if _is_prime(n)] == [
            n for n in range(1, 10 ** 5) if trial(n)]

    @pytest.mark.parametrize("n, prime", [
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, False),  # ... to the first 9 prime bases
        (318665857834031151167461, False),  # ... to the first 12 prime bases
        (10 ** 18 + 3, True),
        (2 ** 61 - 1, True),
        (PRIME_TEST_BOUND - 2, False),
    ])
    def test_large_values(self, n, prime):
        assert _is_prime(n) is prime

    def test_bound(self):
        with pytest.raises(ValueError):
            _is_prime(PRIME_TEST_BOUND)
        with pytest.raises(ValueError):
            classify(5, 7, PRIME_TEST_BOUND)


class TestInvariance:
    def test_permutation_invariance(self):
        rng = random.Random(17)
        for _ in range(1000):
            triple = [rng.randrange(1, 60) for _ in range(3)]
            base = classify(*triple)
            shuffled = triple[:]
            rng.shuffle(shuffled)
            other = classify(*shuffled)
            assert other.status == base.status
            assert other.rule == base.rule
            assert other.sorted_mdeg == base.sorted_mdeg
            assert tuple(shuffled) == other.original

    def test_realizable_iff_witness_recipe(self):
        rng = random.Random(31)
        for _ in range(300):
            d = sorted(rng.randrange(1, 40) for _ in range(3))
            c = classify(*d)
            if c.status == Status.REALIZABLE:
                assert c.witness_recipe is not None
            else:
                assert c.witness_recipe is None


class TestSmallestDegreeThree:
    def test_formula_agreement_up_to_40(self):
        # realizable iff 3 | d2 or d3 is in the semigroup generated by 3, d2
        for d2 in range(3, 41):
            for d3 in range(d2, 41):
                expected = (d2 % 3 == 0
                            or SemigroupPair(3, d2).member(d3) is not None)
                got = classify(3, d2, d3).status
                assert got == (Status.REALIZABLE if expected
                               else Status.NOT_REALIZABLE), (d2, d3)


class TestStructuralProperties:
    def test_negative_verdicts_below_frobenius_bound(self):
        # whenever the engine says NotRealizable via a membership rule, the
        # third degree lies at or below the Frobenius number of the pair
        for c in enumerate_classifications(30):
            if c.status != Status.NOT_REALIZABLE:
                continue
            d1, d2, d3 = c.sorted_mdeg
            if c.rule.startswith(("R5", "R8", "R10", "R11")):
                pair_d1 = 3 if c.rule.startswith("R5") else d1
                assert d3 <= SemigroupPair(pair_d1, d2).frobenius(), c

    def test_sum_rule_membership_is_monotone_closed(self):
        # d2 or d3 in the semigroup of the other two degrees => Realizable
        rng = random.Random(47)
        for _ in range(300):
            d1 = rng.randrange(1, 20)
            d2 = rng.randrange(d1, 25)
            pair = SemigroupPair(d1, d2)
            k1 = rng.randrange(0, 4)
            k2 = rng.randrange(0, 4)
            d3 = k1 * d1 + k2 * d2
            if d3 < d2:
                continue
            assert classify(d1, d2, d3).status == Status.REALIZABLE

    def test_enumerate_order_and_coverage(self):
        rows = list(enumerate_classifications(8))
        triples = [r.sorted_mdeg for r in rows]
        assert triples == sorted(triples)
        assert len(rows) == len({t for t in triples})
        assert len(rows) == sum(1 for a in range(1, 9)
                                for b in range(a, 9)
                                for c in range(b, 9))

    def test_rule_ladder_is_consistent(self):
        # no triple has a Realizable hit next to a NotRealizable, Unknown or
        # ConditionalOnJC2 one, so the priority order only picks the label
        count = 0
        for a in range(1, 71):
            for b in range(a, 71):
                for c in range(b, 71):
                    statuses = {h.status for h in _applicable_rules((a, b, c))}
                    assert Status.REALIZABLE not in statuses or len(statuses) == 1, \
                        ((a, b, c), statuses)
                    count += 1
        assert count == 59_640

    def test_one_sum_rule_search_per_triple(self, monkeypatch):
        calls = []
        find = classify_module.find_sum_rule
        monkeypatch.setattr(classify_module, "find_sum_rule",
                            lambda *args: calls.append(args) or find(*args))
        for c in enumerate_classifications(30):
            assert len(calls) <= 1, (c.sorted_mdeg, calls)
            calls.clear()

    def test_one_membership_query_per_triple(self, monkeypatch):
        # the decomposition found for the semigroup test is the recipe's
        calls = []
        member = SemigroupPair.member
        monkeypatch.setattr(SemigroupPair, "member",
                            lambda pair, k: calls.append(k) or member(pair, k))
        for c in enumerate_classifications(30):
            assert len(calls) == 1, (c.sorted_mdeg, calls)
            calls.clear()
