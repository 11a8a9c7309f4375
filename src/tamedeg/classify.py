"""Decision engine for candidate multidegrees (d1, d2, d3) of tame
automorphisms of affine 3-space.

Rules R1..R12 are evaluated in a fixed priority order; the first applicable
rule determines the verdict, and every applicable rule is listed in the
notes for auditability.  Realizable verdicts carry a recipe consumable by
the witness builders; negative and conditional verdicts cite the governing
criterion.  Anything not settled by a known criterion is reported Unknown.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import gcd
from typing import Iterator, Optional

from .semigroup import SemigroupPair
from .witness import WitnessRecipe, find_sum_rule, tab_tail_start


class Status(str, Enum):
    REALIZABLE = "Realizable"
    NOT_REALIZABLE = "NotRealizable"
    UNKNOWN = "Unknown"
    CONDITIONAL_ON_JC2 = "ConditionalOnJC2"


@dataclass
class Classification:
    original: tuple[int, int, int]
    sorted_mdeg: tuple[int, int, int]
    status: Status
    rule: str
    witness_recipe: Optional[WitnessRecipe] = None
    notes: list[str] = field(default_factory=list)


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# for every n below this bound (Sorenson and Webster, arXiv:1509.00864), so
# classify refuses degrees at or above it rather than give an unproven verdict.
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_TEST_BOUND."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality of {n} is not proven by the bases used")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class _Hit:
    code: str
    label: str
    status: Status
    recipe: Optional[WitnessRecipe] = None
    note: Optional[str] = None


def _applicable_rules(d: tuple[int, int, int]) -> list[_Hit]:
    """All rules that apply to the sorted triple, in priority order."""
    d1, d2, d3 = d
    dec = SemigroupPair(d1, d2).member(d3)
    in_sg = dec is not None
    # found exactly when d1 | d2 or d3 is in <d1, d2>
    sum_rule = find_sum_rule(d, dec)
    d1_prime = _is_prime(d1)
    hits = [_Hit(code, label, Status.REALIZABLE, sum_rule) for code, label, applies in (
        ("R1", "smallest degree 1", d1 == 1),
        ("R2", "smallest degree at most n-1", d1 <= 2),
        ("R3", "sum rule", d2 % d1 == 0 or in_sg),
        ("R4", "gcd quotient at most n-1", d1 // gcd(d1, gcd(d2, d3)) <= 2),
    ) if applies]
    if hits and sum_rule is None:
        raise AssertionError(f"sum rule promised but not found for {d}")
    if d1 == 3 and d2 % 3 != 0 and not in_sg:
        hits.append(_Hit("R5", "smallest degree 3 criterion", Status.NOT_REALIZABLE))
    if d1 == 4:
        hits.extend(_rule6(d2, d3, in_sg, sum_rule))
    if d == (5, 6, 9):
        hits.append(_Hit("R7", "exceptional triple (5,6,9)", Status.NOT_REALIZABLE))
    if d1_prime and d1 >= 5 and (2 * d3 != 3 * d2 or d2 > 2 * (d1 - 2)):
        if d2 % d1 != 0 and not in_sg:
            hits.append(_Hit("R8", "prime smallest degree criterion",
                             Status.NOT_REALIZABLE))
    if d1_prime and d1 >= 5 and d2 == 2 * (d1 - 2) and d3 == 3 * (d1 - 2):
        if d1 <= 35:
            hits.append(_Hit("R9", "family (p, 2p-4, 3p-6), p <= 35",
                             Status.NOT_REALIZABLE))
        else:
            hits.append(_Hit(
                "R9", "family (p, 2p-4, 3p-6), p > 35", Status.CONDITIONAL_ON_JC2,
                note="realizability of this triple would refute the "
                     "two-dimensional Jacobian Conjecture"))
    if d1 >= 3 and d1 % 2 == 1 and d2 % 2 == 1 and gcd(d1, d2) == 1 and not in_sg:
        hits.append(_Hit("R10", "odd coprime pair criterion", Status.NOT_REALIZABLE))
    if (d1_prime and _is_prime(d2) and d1 != d2 and d1 >= 3
            and d1 % 2 == 1 and d2 % 2 == 1 and not in_sg):
        hits.append(_Hit("R11", "distinct odd primes criterion",
                         Status.NOT_REALIZABLE,
                         note="refines the odd coprime pair criterion"))
    if 1 < d1 < d2 and d3 >= tab_tail_start(d1, d2):
        hits.append(_Hit("R12", "lcm tail", Status.REALIZABLE,
                         WitnessRecipe("tab_tail",
                                       {"a": d1, "b": d2, "d3": d3})))
    return hits


def _rule6(d2: int, d3: int, in_sg: bool, sum_rule: Optional[WitnessRecipe]) -> list[_Hit]:
    """Subcases for smallest degree 4 (appended under the single code R6)."""
    hits: list[_Hit] = []
    even2, even3 = d2 % 2 == 0, d3 % 2 == 0
    if even2 and even3:
        hits.append(_Hit("R6", "degree 4, both others even", Status.REALIZABLE, sum_rule))
    elif not even2 and not even3:
        if not in_sg:
            hits.append(_Hit("R6", "degree 4, both others odd, not in semigroup",
                             Status.NOT_REALIZABLE))
    elif not even2 and even3:
        if d3 - d2 == 1 and not in_sg:
            hits.append(_Hit("R6", "degree 4, consecutive pair (4k+1, 4k+2)",
                             Status.UNKNOWN,
                             note="not settled by any known criterion"))
        elif not in_sg:
            hits.append(_Hit("R6", "degree 4, odd/even pair, not in semigroup",
                             Status.NOT_REALIZABLE))
    else:  # d2 even, d3 odd
        k, rem = divmod(d2 - 2, 4)
        if rem != 0:
            return hits  # d2 divisible by 4: covered by the sum rule
        if d2 == 6:
            variant = 9 if d3 % 4 == 1 else 7
            hits.append(_Hit("R6", "family (4, 6, d3)", Status.REALIZABLE,
                             WitnessRecipe("four_six",
                                           {"k": (d3 - variant) // 4,
                                            "variant": variant})))
        elif d2 == 10 and d3 >= tab_tail_start(4, 10):
            hits.append(_Hit("R6", "family (4, 10, d3)", Status.REALIZABLE,
                             WitnessRecipe("tab_tail",
                                           {"a": 4, "b": 10, "d3": d3})))
        elif k >= 3 and d3 >= 5 * k + 1:
            hits.append(_Hit("R6", "family (4, 4k+2, d3), d3 >= 5k+1",
                             Status.REALIZABLE,
                             WitnessRecipe("four_k2", {"k": k, "d3": d3})))
        elif k >= 3 and not in_sg:
            hits.append(_Hit("R6", "degree 4, (4, 4k+2, d3) below 5k+1",
                             Status.UNKNOWN,
                             note="region below 5k+1 not settled"))
    return hits


def classify(d1: int, d2: int, d3: int) -> Classification:
    original = (d1, d2, d3)
    if min(original) < 1:
        raise ValueError("degrees must be positive integers")
    if max(original) >= PRIME_TEST_BOUND:
        raise ValueError(f"degrees must be below {PRIME_TEST_BOUND}")
    d = tuple(sorted(original))
    hits = _applicable_rules(d)
    notes: list[str] = []
    if hits:
        first = hits[0]
        status, rule = first.status, f"{first.code}: {first.label}"
        recipe = first.recipe if status is Status.REALIZABLE else None
        if first.note:
            notes.append(first.note)
        also = [f"{h.code}: {h.label}" for h in hits[1:]]
        if also:
            notes.append("also applicable: " + "; ".join(also))
    else:
        status, rule, recipe = Status.UNKNOWN, "none: no applicable criterion", None
        notes.append("no known criterion settles this triple")
    return Classification(original, d, status, rule, recipe, notes)


# The largest --max the CLI enumerates up to: the rows, and the time and
# output, grow as bound^3 / 6.
MAX_ENUMERATE = 100


def enumerate_classifications(bound: int) -> Iterator[Classification]:
    """All sorted triples with d3 <= bound, in lexicographic order."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            for c in range(b, bound + 1):
                yield classify(a, b, c)
