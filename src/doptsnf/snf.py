"""Smith normal form over the integers, plus a brute-force minor-gcd oracle.

``smith_normal_form`` is the workhorse used everywhere else. Without
transforms, a +-1 input of at least two rows and two columns first reduces
to its 0/1 core. Flipping the signs of rows and columns makes row 0 and
column 0 all ones; subtracting them then leaves diag(1, -2C), where C is
the 0/1 matrix with c_ij = (1 - a_ij a_i0 a_0j a_00) / 2 for i, j >= 1.
So the factors are 1, then twice those of C, which is one order smaller
and carries no common power of 2.

The engine rule: transforms come from the Euclidean engine on the input
itself. Otherwise the engine is chosen from the rows it eliminates (the
input, or its 0/1 core), and from nothing else:

- The local engine (``local_smith_form``) runs on square rows of order
  ``LOCAL_MIN_ORDER`` or more. It computes d = |det| and one (n-1)-minor M
  by Bareiss. One rule places the last factor s_n: the gcd s_1...s_{n-1}
  of the (n-1)-minors divides M, so the part w of d prime to M goes whole
  into s_n. It trial-divides only d // w, below ``TRIAL_BOUND``; each
  prime p it finds divides M, and the engine eliminates modulo p^k (no
  entry grows past n*p^2k), doubling k until the exponents it sees sum to
  v_p(d). Elimination modulo p^k gives every exponent below k exactly, and
  the exact determinant fixes the ones at k or above, so the result is
  exact, not probabilistic. Singular rows, or a d // w with a prime factor
  the trial division does not reach, are handed back.
- The Euclidean engine (``kernels.smith_reduce``) runs on everything else:
  rectangular rows, squares of lower order and the local engine's
  hand-backs. It diagonalizes by unimodular row and column operations over
  the integers, so its entries can grow far past the final factors.

The certificate rule: a caller that has proved |det a| = D passes it as
``abs_det``. A +-1 input hands D >> (n-1) to its 0/1 core, since
|det A| = 2^(n-1) |det C|. The local engine then trial-divides D itself
below ``TRIAL_BOUND`` and eliminates modulo p^k for each prime it finds,
at any order, with no Bareiss determinant and no (n-1)-minor. A D with a
prime factor the trial division does not reach sends the rows on to the
engine rule above. The factors are exact when D is |det|; a wrong D is
the caller's fault, and shows as an ArithmeticError only where an
elimination contradicts it.

``minor_gcd`` is deliberately independent of both (it enumerates every
i x i minor and takes gcds), so they can cross-check each other: the i-th
invariant factor equals minor_gcd(a, i) / minor_gcd(a, i-1) as long as
i <= rank.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from . import kernels
from .exactmat import Frozen, IntMatrix, trial_divide

#: Square rows of this order or more go to the local engine: the 0/1 core of a
#: +-1 input of order 66 or more, or any other square of order 65 or more. Its
#: time over the Euclidean engine's on uncut inputs, best of 9 interleaved, on
#: 6 seeded random +-1 squares per order: 0.51-0.98x at order 50, 0.43-0.51x
#: at 66 and 0.34-0.43x at 80; on the Paley two-block matrices, 0.90-0.95x at
#: order 42 and 0.34-0.46x at 78; 0.68-0.74x on example66.
LOCAL_MIN_ORDER = 65

#: The local engine trial-divides the part of |det| that shares its primes
#: with the (n-1)-minor by every number below this bound.
TRIAL_BOUND = 2**16

#: minor_gcd refuses larger matrices: the number of minors grows as
#: binomial(n, i)^2 and this oracle is meant for desk-scale cross-checks only.
MINOR_GCD_SIZE_LIMIT = 8


class SnfResult(Frozen):
    """Invariant factors plus (optionally) the unimodular transforms."""

    __slots__ = ("factors", "left", "right")

    def __init__(
        self,
        factors: tuple[int, ...],
        left: IntMatrix | None = None,
        right: IntMatrix | None = None,
    ) -> None:
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if a < 0 or b < 0 or (a == 0 and b != 0) or (a != 0 and b % a != 0):
                raise ValueError(f"not a divisibility chain: {factors}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def rank(self) -> int:
        return sum(1 for f in self.factors if f)


def smith_normal_form(
    a: IntMatrix, want_transforms: bool = False, *, abs_det: int | None = None
) -> SnfResult:
    """Smith normal form of any rectangular integer matrix.

    Factors are nonnegative, each divides the next, and zeros (if any) come
    last. With ``want_transforms=True`` the result carries unimodular left
    and right matrices with ``left @ a @ right == diag(factors)``. What runs
    is the module docstring's engine rule, or its certificate rule when
    ``abs_det`` is given; every path gives the same factors.
    """
    if abs_det is not None:
        if want_transforms:
            raise ValueError("abs_det does not apply to transforms")
        if abs_det < 1 or not a.is_square:
            raise ValueError(f"abs_det = {abs_det} is not |det| of a {a.rows}x{a.cols} matrix")
    if want_transforms:
        factors, left, right = kernels.smith_reduce(a.to_rows(), True)
        return SnfResult(tuple(factors), IntMatrix.from_rows(left), IntMatrix.from_rows(right))
    if min(a.rows, a.cols) >= 2 and a.is_pm1:
        if abs_det is not None:
            abs_det, low = divmod(abs_det, 2 ** (a.rows - 1))
            if low:
                raise ValueError(f"a +-1 square of order {a.rows} has 2^{a.rows - 1} | det")
        return SnfResult((1,) + tuple(2 * f for f in _factors(_zero_one_core(a), abs_det)))
    return SnfResult(_factors(a.to_rows(), abs_det))


def _zero_one_core(a: IntMatrix) -> list[list[int]]:
    """The rows of the 0/1 core C of a +-1 matrix A, with A ~ diag(1, -2C).

    c_ij = (1 - a_ij a_i0 a_0j a_00) / 2 is 1 exactly where a_ij differs
    from a_i0 a_00 a_0j, the entry of row 0 scaled to start like row i.
    """
    head, *rows = a.to_rows()
    plus = head[1:]
    minus = [-v for v in plus]
    return [
        [int(v != h) for v, h in zip(r[1:], plus if r[0] == head[0] else minus)]
        for r in rows
    ]


def _factors(rows: list[list[int]], abs_det: int | None = None) -> tuple[int, ...]:
    """Invariant factors of rows, by the rule the module docstring gives."""
    if abs_det is not None:
        factors = local_smith_form(rows, abs_det)
        if factors is not None:
            return factors
    if len(rows) >= LOCAL_MIN_ORDER and len(rows) == len(rows[0]):
        factors = local_smith_form(rows)
        if factors is not None:
            return factors
    return tuple(kernels.smith_reduce(rows, False)[0])


def local_smith_form(
    rows: list[list[int]], abs_det: int | None = None
) -> tuple[int, ...] | None:
    """Invariant factors of square rows by the local engine of the module
    docstring, at any order, or None when it hands them back. Given
    ``abs_det``, it runs the certificate rule: no Bareiss, and all of abs_det
    is trial-divided. Raises ArithmeticError if an elimination contradicts
    the determinant, which no correct kernel does."""
    if abs_det is None:
        det, minor = kernels.bareiss_determinant(rows)
        if det == 0:
            return None
        # w: the part of d prime to minor.
        d = w = abs(det)
        g = gcd(d, minor)
        while g > 1:
            w //= g
            g = gcd(w, g)
    else:
        d, w = abs_det, 1
    powers, c = trial_divide(d // w, TRIAL_BOUND)
    if c > 1:
        return None
    factors = [1] * len(rows)
    factors[-1] = w
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
            g = gcd(g, kernels.bareiss_determinant(sub)[0])
            if g == 1:
                return 1
    return g
