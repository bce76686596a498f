"""Smith normal form over the integers.

``smith_normal_form`` is the workhorse used everywhere else. Without
transforms, a +-1 input of at least two rows and two columns first reduces
to its 0/1 core. Flipping the signs of rows and columns makes row 0 and
column 0 all ones; subtracting them then leaves diag(1, -2C), where C is
the 0/1 matrix with c_ij = (1 - a_ij a_i0 a_0j a_00) / 2 for i, j >= 1.
So the factors are 1, then twice those of C, which is one order smaller
and carries no common power of 2.

The engine rule: transforms come from the Euclidean engine on the input
itself. Otherwise the engine is chosen from the rows it eliminates (the
input, or its 0/1 core), and nothing else; no caller hands it a |det|.

- The local engine runs on square rows of order ``LOCAL_MIN_ORDER`` or
  more, with one proof of d = |det| per input and one attempt. A +-1
  square whose Gram AA^T splits into blocks (the kernels' one Gram-block
  rule) gets d from them (``_gram_abs_det``) and hands d >> (n-1),
  trial-divided whole, to its core, as |det A| = 2^(n-1) |det C|. Other
  rows (``local_smith_form``) get d and one (n-1)-minor M from Bareiss on
  the rows themselves. The part w of d prime to M goes whole into s_n, as
  s_1...s_{n-1} (the gcd of the (n-1)-minors) divides M. Each prime p of
  d // w below ``TRIAL_BOUND`` is eliminated modulo p^k (no entry grows
  past n*p^2k) until the exponents seen sum to v_p(d); while s >= 2 of
  them are k or more and sum to some r != sk, k goes up to
  max(2k, ceil(r/s) + 1). That gives every exponent below k exactly, and
  d fixes the ones at k or above, so the result is exact, not
  probabilistic. Singular rows, or a d // w with a prime factor the trial
  division does not reach, are handed back to the Euclidean engine, with
  no second local attempt.
- The Euclidean engine (``kernels.smith_reduce``) runs on everything else:
  rectangular rows, squares of lower order, and every hand-back. It
  diagonalizes by unimodular row and column operations over the
  integers, so its entries can grow far past the final factors.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, isqrt, prod

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


def smith_normal_form(a: IntMatrix, want_transforms: bool = False) -> SnfResult:
    """Smith normal form of any rectangular integer matrix.

    Factors are nonnegative, each divides the next, and zeros (if any) come
    last. With ``want_transforms=True`` the result carries unimodular left
    and right matrices with ``left @ a @ right == diag(factors)``. The
    module docstring's engine rule picks what runs; every path gives the
    same factors, and each |det| it uses is one it proved itself.
    """
    if want_transforms:
        factors, left, right = kernels.smith_reduce(a.to_rows(), True)
        return SnfResult(tuple(factors), IntMatrix.from_rows(left), IntMatrix.from_rows(right))
    return SnfResult(_factors(a))


def _factors(a: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of a, by the engine rule of the module docstring."""
    rows = a.to_rows()
    pm1 = min(a.rows, a.cols) >= 2 and a.is_pm1
    core = _zero_one_core(rows) if pm1 else rows
    factors = None
    if len(core) >= LOCAL_MIN_ORDER and len(core) == len(core[0]):
        d = _gram_abs_det(rows) if pm1 else None
        if d is None:
            factors = local_smith_form(core)
        elif d:
            factors = _local_factors(core, d >> len(core), 1)
    factors = factors or kernels.smith_reduce(core, False)[0]
    return (1,) + tuple(2 * f for f in factors) if pm1 else tuple(factors)


def _gram_abs_det(rows: list[list[int]]) -> int | None:
    """|det A| of a +-1 square A from the diagonal blocks of its Gram
    G = AA^T, or None when G is one block.

    G_ij = n - 2 popcount(m_i ^ m_j) on the -1 masks, never 0 at odd n.
    The blocks are the components of the graph of nonzero G_ij, by
    ``kernels._components``: a first block that holds every row ends the
    probe, so a random square costs about two Gram rows. Up to a
    permutation G is block diagonal, so det(A)^2 = det G, the product of the
    blocks' determinants (``_block_det``, once per distinct block); |det A|
    is its square root, and a product that is no square raises ArithmeticError.
    """
    n = len(rows)
    masks = kernels._sign_masks(rows)
    blocks = kernels._components(
        n, lambda i, rest: [2 * (masks[i] ^ masks[j]).bit_count() != n for j in rest]
    )
    if len(blocks) == 1:
        return None
    grams = Counter(
        tuple(map(tuple, kernels._mask_gram([masks[i] for i in block], n))) for block in blocks
    )
    square = prod(_block_det(list(map(list, gram))) ** k for gram, k in grams.items())
    d = isqrt(square)
    if d * d != square:
        raise ArithmeticError(f"the Gram blocks' determinants multiply to {square}, no square")
    return d


def _block_det(g: list[list[int]]) -> int:
    """det g of a symmetric Gram block g of order h. When
    ``kernels._clique_break`` finds g to be D(aI + bJ)D, b = |g_0j| and
    a = g_00 - b (at h = 1, b = |g_00|), no elimination runs: aI + bJ has
    eigenvalues a + hb (on the all-ones vector) and a (h - 1 times), so
    det g = a^(h-1) (a + hb). Any other block gets Bareiss."""
    if kernels._clique_break(g, range(len(g))):
        return kernels.bareiss_determinant(g)[0]
    h, b = len(g), abs(g[0][-1])
    a = g[0][0] - b
    return a ** (h - 1) * (a + h * b)


def _zero_one_core(rows: list[list[int]]) -> list[list[int]]:
    """The rows of the 0/1 core C of the +-1 matrix A with the rows given,
    with A ~ diag(1, -2C).

    c_ij = (1 - a_ij a_i0 a_0j a_00) / 2 is 1 exactly where a_ij differs
    from a_i0 a_00 a_0j, the entry of row 0 scaled to start like row i.
    """
    head = rows[0]
    plus = head[1:]
    minus = [-v for v in plus]
    return [
        [int(v != h) for v, h in zip(r[1:], plus if r[0] == head[0] else minus)]
        for r in rows[1:]
    ]


def local_smith_form(rows: list[list[int]]) -> tuple[int, ...] | None:
    """Invariant factors of square rows by the local engine's Bareiss route
    (module docstring), at any order, or None when it hands them back.
    Raises ArithmeticError if an elimination contradicts the determinant."""
    det, minor = kernels.bareiss_determinant(rows)
    if det == 0:
        return None
    # w: the part of d prime to minor.
    d = w = abs(det)
    g = gcd(d, minor)
    while g > 1:
        w //= g
        g = gcd(w, g)
    return _local_factors(rows, d, w)


def _local_factors(rows: list[list[int]], d: int, w: int) -> tuple[int, ...] | None:
    """The local engine's tail on d = |det rows| > 0, of which w goes whole
    into s_n; None when trial division leaves a rough part of d // w."""
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
    exponent is r, and r == s*k makes all of them k; otherwise the next k is
    max(2k, ceil(r/s) + 1), above the least of the s, which is at most r/s.
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
        k = max(2 * k, -(-r // s) + 1)

