"""Smith normal form over the integers, plus a brute-force minor-gcd oracle.

``smith_normal_form`` is the workhorse used everywhere else. It has two
engines, chosen from the input:

- The Euclidean engine (``kernels.smith_reduce``) runs on every input that
  is rectangular, of order below ``LOCAL_MIN_ORDER``, or asks for
  transforms. It diagonalizes by unimodular row and column operations over
  the integers, so its entries can grow far past the final factors.
- The local engine (``local_smith_form``) runs on square inputs of order
  ``LOCAL_MIN_ORDER`` or more without transforms. It computes d = |det| by
  Bareiss, splits d by trial division below ``TRIAL_BOUND``, and for each
  prime p | d eliminates modulo p^k (no entry grows past n*p^2k), doubling
  k until the exponents it sees sum to v_p(d). A cofactor with no prime
  below the bound goes whole into the last factor once elimination modulo
  it finds n - 1 unit pivots. Elimination modulo p^k gives every exponent
  below k exactly, and the exact determinant fixes the ones at k or above,
  so the result is exact, not probabilistic. A singular input, or a
  cofactor without n - 1 unit pivots, goes to the Euclidean engine.

``minor_gcd`` is deliberately independent of both (it enumerates every
i x i minor and takes gcds), so they can cross-check each other: the i-th
invariant factor equals minor_gcd(a, i) / minor_gcd(a, i-1) as long as
i <= rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from . import kernels
from .exactmat import IntMatrix, trial_divide

#: Square inputs of this order or more go to the local engine. On random +-1
#: squares the local engine takes ~1.3x the Euclidean time at order 26, about
#: the same at order 40, ~0.85x at order 66, ~0.7x at 80 and ~0.6x at 100.
LOCAL_MIN_ORDER = 100

#: The local engine trial-divides |det| by every number below this bound.
TRIAL_BOUND = 2**16

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
    and right matrices with ``left @ a @ right == diag(factors)``. Which
    engine runs follows from the shape, the order and ``want_transforms``
    (see the module docstring); both give the same factors.
    """
    if a.rows == a.cols >= LOCAL_MIN_ORDER and not want_transforms:
        factors = local_smith_form(a)
        if factors is not None:
            return SnfResult(factors)
    factors, left, right = kernels.smith_reduce(a.to_rows(), want_transforms)
    return SnfResult(
        factors=tuple(factors),
        left=IntMatrix.from_rows(left) if left is not None else None,
        right=IntMatrix.from_rows(right) if right is not None else None,
    )


def local_smith_form(a: IntMatrix) -> tuple[int, ...] | None:
    """Invariant factors of a square matrix by the local engine, or None.

    None means the engine hands the input back: a is singular, or the part
    of |det| with no prime factor below ``TRIAL_BOUND`` is not proven to
    sit in the last factor alone. Raises ArithmeticError if an elimination
    contradicts the determinant, which no correct kernel does.
    """
    rows = a.to_rows()
    n = len(rows)
    d = abs(kernels.bareiss_determinant(rows))
    if d == 0:
        return None
    powers, c = trial_divide(d, TRIAL_BOUND)
    # n - 1 unit pivots modulo c give rank >= n - 1 modulo each prime of c,
    # so each such prime's whole power in d sits in the last factor.
    if c > 1 and kernels.unit_rank(rows, c) < n - 1:
        return None
    factors = [1] * n
    factors[-1] = c
    for p, v in powers.items():
        for i, e in enumerate(_local_exponents(rows, p, v)):
            factors[i] *= p**e
    return tuple(factors)


def _local_exponents(rows: list[list[int]], p: int, v: int) -> list[int]:
    """The n exponents of p in the invariant factors, given v = v_p(|det|) >= 1.

    Elimination modulo p^k gives the exponents below k exactly; s of them
    saturate at k or more, and their sum r is what v leaves. One saturated
    exponent is r, and r == s*k makes all of them k; otherwise k doubles.
    """
    n = len(rows)
    if v == 1:
        return [0] * (n - 1) + [1]
    k = 1
    while True:
        exps = kernels.local_exponents(rows, p, k)
        s = n - len(exps)
        r = v - sum(exps)
        if r < s * k or (s == 0 and r != 0):
            raise ArithmeticError(
                f"elimination modulo {p}^{k} leaves {s} exponents of at least {k}"
                f" to sum to {r}: it contradicts v_{p}(det) = {v}"
            )
        if s <= 1 or r == s * k:
            return exps + ([r] if s == 1 else [k] * s)
        k *= 2


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
