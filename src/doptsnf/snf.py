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

- The local engine runs once per input, on one proof of d = |det|. A +-1
  square whose Gram AA^T splits into blocks (the kernels' one Gram-block
  rule, on the -1 masks of its rows, off which the core is read too) gets
  d from them (``_gram_abs_det``); when each is group divisible,
  D(aI + bE + cJ)D, their closed-form inverse proves s_n too, and the
  local engine runs at any order, on the core with d >> (n-1) (as
  |det A| = 2^(n-1) |det C|), trial-divided whole, and the top exponent
  K = v_p(s_n / 2) of each prime p of d. Only from core order
  ``LOCAL_MIN_ORDER`` on does a block with no form go to
  ``kernels._symmetric_det`` (below, one such block, found before any
  determinant, sends the input to the Euclidean engine), and only there
  do other square rows (``local_smith_form``) get d and one (n-1)-minor M
  from Bareiss on the rows themselves. The part w of d prime to M goes
  whole into s_n, as s_1...s_{n-1} (the gcd of the (n-1)-minors) divides
  M. Each prime p of d // w below ``TRIAL_BOUND`` is eliminated modulo p^k
  (no entry grows past n*p^2k), from k = K, or 1 with no K, until the
  exponents seen sum to v_p(d); while s >= 2 of them are k or more and sum
  to some r != sk, k goes up to max(2k, ceil(r/s) + 1). That gives every
  exponent below k exactly, and d fixes the ones at k or above, so the
  result is exact, not probabilistic; K = 1 needs no elimination, as
  v_p(d) exponents are then 1 and the rest 0. The core is built only for
  an elimination. Singular rows, or a d // w with a prime factor the trial
  division does not reach, are handed back to the Euclidean engine, with
  no second local attempt.
- The Euclidean engine (``kernels.smith_reduce``) runs on everything else:
  rectangular rows, other squares below the gate, and every hand-back. It
  diagonalizes by unimodular row and column operations over the
  integers, so its entries can grow far past the final factors.
"""

from __future__ import annotations

from functools import cache
from itertools import count, repeat
from math import gcd, isqrt, lcm, prod
from operator import mul

from . import kernels
from .exactmat import Frozen, IntMatrix, trial_divide

#: From this order of the rows it eliminates on, the local engine also takes
#: the Bareiss route, a Gram block with no closed form and a split Gram with
#: no s_n; below it, only an input whose Gram probe proves |det| and s_n.
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
    masks = kernels._sign_masks(rows) if pm1 else None
    core = cache(lambda: _zero_one_core(masks, a.cols) if pm1 else rows)
    n = len(rows) - pm1
    factors = None
    if a.rows == a.cols:
        local = n >= LOCAL_MIN_ORDER
        probe = _gram_abs_det(rows, masks, local) if pm1 else None
        if probe is None:
            factors = local_smith_form(core()) if local else None
        elif probe[0]:
            factors = _local_factors(core, n, probe[0] >> n, 1, probe[1] >> 1)
    factors = factors or kernels.smith_reduce(core(), False)[0]
    return (1,) + tuple(2 * f for f in factors) if pm1 else tuple(factors)


def _gram_abs_det(rows: list[list[int]], masks: list[int], bareiss: bool) -> tuple[int, int] | None:
    """(|det A|, s_n) of a +-1 square A, whose rows have the -1 masks given,
    from the diagonal blocks of its Gram G = AA^T; None when G is one block,
    or, unless bareiss, a block is no D(aI + bE + cJ)D. s_n, A's largest
    invariant factor, is 0 when det A = 0 or a block is no D(aI + bE + cJ)D.

    G_ij = n - 2 popcount(m_i ^ m_j) on the -1 masks, never 0 at odd n.
    The blocks are the components of the graph of nonzero G_ij, by
    ``kernels._components``: a first block that holds every row ends the
    probe, so a random square costs about two Gram rows. Each distinct block
    gets its ``kernels._group_form`` first. Up to a permutation G is block
    diagonal, so det(A)^2 = det G, the product of the blocks' determinants
    (``_block_det``, once per distinct block); |det A| is its square root,
    and a product that is no square raises ArithmeticError.
    s_n, the least denominator of A^-1, is the lcm of the ``_block_sn``.
    """
    n = len(rows)
    blocks = kernels._components(
        n, lambda i, rest: [2 * (masks[i] ^ masks[j]).bit_count() != n for j in rest]
    )
    if len(blocks) == 1:
        return None
    grams = [tuple(map(tuple, kernels._mask_gram([masks[i] for i in block], n))) for block in blocks]
    forms = {gram: kernels._group_form(gram) for gram in dict.fromkeys(grams)}
    if not bareiss and None in forms.values():
        return None
    dets = {gram: _block_det(gram, form) for gram, form in forms.items()}
    square = prod(dets[gram] for gram in grams)
    d = isqrt(square)
    if d * d != square:
        raise ArithmeticError(f"the Gram blocks' determinants multiply to {square}, no square")
    if not d or None in forms.values():
        return d, 0
    return d, lcm(*(_block_sn([rows[i] for i in block], forms[gram]) for block, gram in zip(blocks, grams)))


def _block_det(g: tuple[tuple[int, ...], ...], form: tuple | None) -> int:
    """det of a symmetric Gram block g of order h, as row tuples or lists,
    with its ``kernels._group_form``. When g is D(aI + bE + cJ)D on m
    classes of k, det g = a^(h-m) alpha^(m-1) beta, the eigenvalues of
    aI + bE + cJ, with alpha = a + bk and beta = alpha + ckm. A block with
    no form gets ``kernels._symmetric_det``: g is PSD, so a zero leading
    principal minor, where it stops, already means det g = 0."""
    if form is None:
        return kernels._symmetric_det(g)
    a, b, c, classes, _ = form
    h, m = len(g), len(classes)
    alpha = a + b * (h // m)
    return a ** (h - m) * alpha ** (m - 1) * (alpha + c * h)


def _block_sn(rows: list[list[int]], form: tuple) -> int:
    """The least denominator of a block's columns of A^-1 = A^T G^-1, from
    its rows of A and the ``_block_det`` form of their nonsingular Gram:
    (aI + bE + cJ)^-1 = I/a - b/(a alpha) E - c/(alpha beta) J, so with u_t
    the column sums of the rows d_i a_i of class t and U their sum, column
    i, in class t, is d_i (alpha beta d_i a_i - b beta u_t - a c U) / Delta,
    Delta = a alpha beta. In column j, d_i a_ij = +1 for some i of class t
    iff u_tj > -k, and -1 iff u_tj < k: one gcd per (u_tj, U_j) and sign."""
    a, b, c, classes, signs = form
    k = len(classes[0])
    alpha, beta = a + b * k, a + b * k + c * len(rows)
    us = [list(map(sum, zip(*[map(mul, rows[i], repeat(signs[i])) for i in cl]))) for cl in classes]
    total = list(map(sum, zip(*us)))
    top, bb, ac = alpha * beta, b * beta, a * c
    g = delta = abs(a * top)
    for u in us:
        for uj, tj in set(zip(u, total)):
            base = bb * uj + ac * tj
            if uj > -k:
                g = gcd(g, top - base)
            if uj < k:
                g = gcd(g, top + base)
    return delta // g


def _zero_one_core(masks: list[int], cols: int) -> list[list[int]]:
    """The rows of the 0/1 core C of the +-1 matrix A whose rows, of length
    cols, have the ``kernels._sign_masks`` given, with A ~ diag(1, -2C).

    c_ij = (1 - a_ij a_i0 a_0j a_00) / 2 is 1 exactly where a_ij a_0j and
    a_i0 a_00 differ: on the low cols - 1 bits, row i is m_i ^ m_0,
    complemented when a_i0 != a_00 (the top bit of m_i ^ m_0).
    """
    low, spec, digits = (1 << cols - 1) - 1, f"0{cols - 1}b", bytes.maketrans(b"01", b"\0\1")
    rows = (m ^ masks[0] for m in masks[1:])
    return [list(format(low & (~x if x >> cols - 1 else x), spec).encode().translate(digits)) for x in rows]


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
    return _local_factors(lambda: rows, len(rows), d, w)


def _local_factors(core, n: int, d: int, w: int, top: int = 0) -> tuple[int, ...] | None:
    """The local engine's tail on d = |det| > 0 of the n square rows core()
    builds at the first elimination, of which w goes whole into s_n; None
    when trial division leaves a rough part of d // w. A top other than 0
    is the s_n the Gram probe proved: each prime p of d gets K = v_p(top),
    and 1 <= K <= v_p(d) <= nK or ArithmeticError is raised."""
    powers, c = trial_divide(d // w, TRIAL_BOUND)
    if c > 1:
        return None
    factors = [1] * n
    factors[-1] = w
    for p, v in powers.items():
        k = next(e for e in count() if top % p ** (e + 1)) if top else 1
        if top and not 1 <= k <= v <= n * k:
            raise ArithmeticError(
                f"the Gram probe's s_n = {top} gives {p} the exponent {k}:"
                f" it contradicts v_{p}(det) = {v} at order {n}"
            )
        exps = [0] * (n - v) + [1] * v if v == 1 or top and k == 1 else _local_exponents(core(), p, v, k)
        for i, e in enumerate(exps):
            factors[i] *= p**e
    return tuple(factors)


def _local_exponents(rows: list[list[int]], p: int, v: int, k: int = 1) -> list[int]:
    """The n exponents of p in the invariant factors, given v = v_p(|det|) >= 1.

    Elimination modulo p^k, from the k given on, gives the exponents below k
    exactly; s of them saturate at k or more, and their sum r is what v
    leaves. One saturated exponent is r, and r == s*k makes all of them k;
    otherwise the next k is max(2k, ceil(r/s) + 1), above the least of the
    s, which is at most r/s. Any start is exact; the largest exponent, as
    the Gram probe's s_n gives it, ends the loop after one pass.
    """
    n = len(rows)
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
