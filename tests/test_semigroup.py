from math import gcd

import pytest

from tamedeg.semigroup import SemigroupPair

# frozen gap lists for the pairs used throughout the degree tables
GOLDEN_GAPS = {
    (5, 7): [8, 9, 11, 13, 16, 18, 23],
    (5, 11): [12, 13, 14, 17, 18, 19, 23, 24, 28, 29, 34, 39],
    (5, 13): [14, 16, 17, 19, 21, 22, 24, 27, 29, 32, 34, 37, 42, 47],
    (7, 11): [12, 13, 15, 16, 17, 19, 20, 23, 24, 26, 27, 30, 31, 34, 37,
              38, 41, 45, 48, 52, 59],
}


def sieve_members(d1, d2, limit):
    """Independent oracle: reachability sieve over 0..limit."""
    reachable = [False] * (limit + 1)
    reachable[0] = True
    for k in range(1, limit + 1):
        if k >= d1 and reachable[k - d1]:
            reachable[k] = True
        if k >= d2 and reachable[k - d2]:
            reachable[k] = True
    return reachable


def refuse(*args):
    raise AssertionError("membership was tested")


class TestMember:
    def test_decomposition_is_valid(self):
        pair = SemigroupPair(5, 7)
        k1, k2 = pair.member(24)
        assert k1 * 5 + k2 * 7 == 24
        assert k1 >= 0 and k2 >= 0

    def test_nonmember(self):
        assert SemigroupPair(5, 7).member(23) is None
        assert SemigroupPair(5, 7).member(-1) is None
        assert 24 in SemigroupPair(5, 7)
        assert 23 not in SemigroupPair(5, 7)

    def test_unsorted_input_degrees(self):
        assert SemigroupPair(7, 5).member(24) is not None

    def test_oracle_equivalence(self):
        # exhaustive cross-check against the sieve for all pairs up to 40
        for d1 in range(1, 41):
            for d2 in range(d1, 41):
                limit = 2 * d1 * d2
                reachable = sieve_members(d1, d2, limit)
                pair = SemigroupPair(d1, d2)
                for k in range(limit + 1):
                    dec = pair.member(k)
                    assert (dec is not None) == reachable[k], (d1, d2, k)
                    if dec is not None:
                        assert dec[0] * pair.d1 + dec[1] * pair.d2 == k


class TestFrobenius:
    def test_formula(self):
        assert SemigroupPair(5, 7).frobenius() == 23
        assert SemigroupPair(2, 3).frobenius() == 1

    def test_degenerate_generator_one(self):
        assert SemigroupPair(1, 9).frobenius() == -1

    def test_common_factor_rejected(self):
        with pytest.raises(ValueError):
            SemigroupPair(4, 6).frobenius()

    def test_everything_above_frobenius_is_member(self):
        for d1, d2 in [(3, 5), (5, 7), (7, 11)]:
            pair = SemigroupPair(d1, d2)
            f = pair.frobenius()
            assert pair.member(f) is None
            for k in range(f + 1, f + d1 + 1):
                assert pair.member(k) is not None


class TestGaps:
    def test_golden_tables(self):
        for (d1, d2), expected in GOLDEN_GAPS.items():
            full = SemigroupPair(d1, d2).gaps()
            assert [g for g in full if g >= d2] == expected
            assert SemigroupPair(d1, d2).gaps(min_k=d2) == expected

    def test_small_pair(self):
        assert SemigroupPair(3, 5).gaps() == [1, 2, 4, 7]

    def test_gaps_test_exactly_the_candidates(self):
        pair = SemigroupPair(3, 5)
        assert pair.gap_candidates() == pair.gap_candidates(-4) == range(0, 8)
        assert len(pair.gap_candidates(10)) == 0
        assert pair.gaps(2) == [k for k in pair.gap_candidates(2) if k not in pair]
        assert pair.gaps(2) == [2, 4, 7]
        assert pair.gaps(10) == []

    def test_sylvester_matches_the_scan(self):
        # the scan gaps() made before it formed Sylvester's numbers directly
        for d1 in range(1, 40):
            for d2 in range(d1, 60):
                if gcd(d1, d2) != 1:
                    continue
                pair = SemigroupPair(d1, d2)
                scan = [k for k in pair.gap_candidates() if k not in pair]
                for min_k in (-3, 0, 1, 5, 37, 500, 10**6):
                    assert pair.gaps(min_k) == [k for k in scan if k >= min_k], \
                        (d1, d2, min_k)

    def test_large_pair_never_tests_membership(self, monkeypatch):
        monkeypatch.setattr(SemigroupPair, "member", refuse)
        pair = SemigroupPair(10**9, 10**9 + 1)
        f = pair.frobenius()
        assert len(pair.gap_candidates(f - 999_999)) == 1_000_000
        assert pair.gaps(f - 999_999) == [f]

    def test_non_coprime_pair_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            SemigroupPair(4, 6).gaps()

    def test_gap_count_is_half_frobenius_interval(self):
        # symmetric numerical semigroups: exactly (d1-1)(d2-1)/2 gaps
        for d1, d2 in [(3, 5), (5, 7), (5, 11), (7, 11)]:
            assert len(SemigroupPair(d1, d2).gaps()) == (d1 - 1) * (d2 - 1) // 2
