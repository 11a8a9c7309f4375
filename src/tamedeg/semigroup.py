"""Two-generator numerical semigroup queries: membership, Frobenius, gaps."""
from __future__ import annotations

from math import gcd
from typing import Optional

# The most gap candidates the CLI lists gaps among: the k from --min to the
# Frobenius number, which grows as d1 * d2, and about half of them are gaps.
MAX_GAP_SCAN = 1_000_000


class SemigroupPair:
    """The additive semigroup d1*N + d2*N, normalized so d1 <= d2."""

    __slots__ = ("d1", "d2")

    def __init__(self, d1: int, d2: int):
        if d1 < 1 or d2 < 1:
            raise ValueError("generators must be positive")
        self.d1, self.d2 = sorted((d1, d2))

    def member(self, k: int) -> Optional[tuple[int, int]]:
        """A decomposition k = k1*d1 + k2*d2 with maximal k2, or None.

        Pairs with gcd g > 1 are handled by reduction to the coprime pair;
        membership then requires g | k.
        """
        if k < 0:
            return None
        d1, d2 = self.d1, self.d2
        g = gcd(d1, d2)
        if k % g:
            return None
        d1, d2, k = d1 // g, d2 // g, k // g
        # maximal k2 with k2*d2 <= k and k2 = k * d2^{-1} (mod d1)
        k2_res = (k * pow(d2, -1, d1)) % d1
        top = k // d2
        if top < k2_res:
            return None
        k2 = k2_res + ((top - k2_res) // d1) * d1
        return ((k - k2 * d2) // d1, k2)

    def __contains__(self, k: int) -> bool:
        return self.member(k) is not None

    def frobenius(self) -> int:
        """(d1-1)(d2-1) - 1, the largest non-member; -1 when d1 = 1."""
        if gcd(self.d1, self.d2) != 1:
            raise ValueError("Frobenius number requires coprime generators")
        if self.d1 == 1:
            return -1
        return (self.d1 - 1) * (self.d2 - 1) - 1

    def gap_candidates(self, min_k: int = 0) -> range:
        """The range gaps(min_k) lies in: 0 <= k, min_k <= k <= frobenius()."""
        return range(max(min_k, 0), self.frobenius() + 1)

    def gaps(self, min_k: int = 0) -> list[int]:
        """All non-members k with min_k <= k <= frobenius(): the positive
        d1*d2 - a*d1 - b*d2 with a, b >= 1, each once (Sylvester).  Only those
        of at least max(min_k, 1) are formed, no more than gap_candidates."""
        self.frobenius()  # raises ValueError on a non-coprime pair
        d1, d2, lo = self.d1, self.d2, max(min_k, 1)
        return sorted(d1 * d2 - a * d1 - b * d2
                      for b in range(1, (d1 * d2 - d1 - lo) // d2 + 1)
                      for a in range(1, (d1 * d2 - b * d2 - lo) // d1 + 1))

    def __repr__(self):
        return f"SemigroupPair({self.d1}, {self.d2})"
