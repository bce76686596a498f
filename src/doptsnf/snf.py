"""Smith normal form over the integers, plus a brute-force minor-gcd oracle.

``smith_normal_form`` is the workhorse used everywhere else; ``minor_gcd``
is deliberately independent of it (it enumerates every i x i minor and takes
gcds), so the two can cross-check each other: the i-th invariant factor
equals minor_gcd(a, i) / minor_gcd(a, i-1) as long as i <= rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from . import kernels
from .exactmat import IntMatrix

#: minor_gcd refuses larger matrices: the number of minors grows as
#: binomial(n, i)^2 and this oracle is meant for desk-scale cross-checks only.
MINOR_GCD_SIZE_LIMIT = 8


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors plus (optionally) the unimodular transforms."""

    factors: tuple[int, ...]
    left: IntMatrix | None = None
    right: IntMatrix | None = None

    def __post_init__(self) -> None:
        for i in range(len(self.factors) - 1):
            a, b = self.factors[i], self.factors[i + 1]
            if a < 0 or b < 0 or (a == 0 and b != 0) or (a != 0 and b % a != 0):
                raise ValueError(f"not a divisibility chain: {self.factors}")

    @property
    def rank(self) -> int:
        return sum(1 for f in self.factors if f)


def smith_normal_form(a: IntMatrix, want_transforms: bool = False) -> SnfResult:
    """Smith normal form of any rectangular integer matrix.

    Factors are nonnegative, each divides the next, and zeros (if any) come
    last. With ``want_transforms=True`` the result carries unimodular left
    and right matrices with ``left @ a @ right == diag(factors)``.
    """
    factors, left, right = kernels.smith_reduce(a.to_rows(), want_transforms)
    return SnfResult(
        factors=tuple(factors),
        left=IntMatrix.from_rows(left) if left is not None else None,
        right=IntMatrix.from_rows(right) if right is not None else None,
    )


def minor_gcd(a: IntMatrix, size: int) -> int:
    """gcd of all size x size minors, by full enumeration.

    ``size == 0`` returns 1 by convention. Returns 0 when every minor of the
    requested size vanishes (rank < size). Refuses matrices with
    min(rows, cols) > MINOR_GCD_SIZE_LIMIT.
    """
    bound = min(a.rows, a.cols)
    if size == 0:
        return 1
    if not 1 <= size <= bound:
        raise ValueError(f"minor size {size} out of range 1..{bound}")
    if bound > MINOR_GCD_SIZE_LIMIT:
        raise ValueError(f"matrix exceeds the {MINOR_GCD_SIZE_LIMIT}-row/col oracle limit")
    g = 0
    for rset in combinations(range(a.rows), size):
        for cset in combinations(range(a.cols), size):
            sub = [[a.at(i, j) for j in cset] for i in rset]
            g = gcd(g, kernels.bareiss_determinant(sub))
            if g == 1:
                return 1
    return g
