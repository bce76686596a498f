"""Pure-Python kernels for the exact linear-algebra hot loops.

This is the package's one kernel implementation. Matrices are lists of row
lists of Python ints, so every result is exact no matter how large
intermediates grow. The modular kernels (``local_exponents``, ``unit_rank``
and ``gf_rank``) pack each row into one int of fixed-width slots, so that a
row operation is a few big-integer operations instead of one interpreted
operation per entry. Callers own all shape validation — kernels assume
well-formed input.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd

#: Name of the kernel implementation; the layered benchmark records it with each run.
BACKEND = "python"


def matmul(a, b):
    """Exact product of an m*k and a k*n matrix (lists of rows)."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def bareiss_determinant(a):
    """Fraction-free determinant.

    Pivoting takes the first nonzero entry in each column, swapping rows and
    tracking the sign explicitly; every intermediate entry is a minor of the
    input, so divisions are exact.
    """
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        mk = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
            mi[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def adjugate(a):
    """Adjugate and determinant via fraction-free Gauss-Jordan elimination.

    Runs the Bareiss recurrence on the augmented block [A | I], eliminating
    above and below each pivot in one sweep, which keeps the arithmetic
    integral throughout (O(n^3) big-int operations rather than the O(n^5)
    of cofactor expansion). Returns ``(adj, det)``; ``(None, 0)`` when the
    matrix is singular.
    """
    n = len(a)
    w = [row[:] + [0] * i + [1] + [0] * (n - 1 - i) for i, row in enumerate(a)]
    width = 2 * n
    sign = 1
    prev = 1
    for k in range(n):
        if w[k][k] == 0:
            for i in range(k + 1, n):
                if w[i][k] != 0:
                    w[k], w[i] = w[i], w[k]
                    sign = -sign
                    break
            else:
                return None, 0
        pivot = w[k][k]
        wk = w[k]
        for i in range(n):
            if i == k:
                continue
            wi = w[i]
            wik = wi[k]
            for j in range(width):
                wi[j] = (wi[j] * pivot - wik * wk[j]) // prev
        prev = pivot
    det = sign * prev
    adj = [[sign * w[i][j] for j in range(n, width)] for i in range(n)]
    return adj, det


def smith_reduce(a, want_transforms):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Strategy: repeatedly move the nonzero entry of minimal absolute value
    into the pivot position, clear its row and column by Euclidean steps
    (any leftover remainder becomes the next, strictly smaller pivot), and
    repair divisibility violations in the trailing block by folding the
    offending row into the pivot row. Each stage therefore ends with the
    pivot equal to the gcd of the trailing block, which makes the diagonal
    a divisibility chain by construction.

    The transforms live in the one working array: with them, each of the
    first m rows is A's row followed by that row of I_m, and n extra rows
    below hold I_n. Row operations run over the array's width and column
    operations over its height, so ``left`` accumulates in columns n.. of
    the first m rows and ``right`` in the last n rows; the pivot search and
    the divisibility test read only A's m x n block.

    Returns ``(factors, left, right)``: nonnegative invariant factors of
    length min(m, n), plus unimodular transforms with
    ``left @ a @ right == diag(factors)`` when requested (else None, None).
    """
    m = len(a)
    n = len(a[0])
    if want_transforms:
        w = [row[:] + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
        w += [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        w = [row[:] for row in a]
    width = len(w[0])
    height = len(w)
    size = m if m < n else n
    for k in range(size):
        while True:
            # Locate the minimal nonzero |entry| of the trailing block.
            pi = pj = -1
            best = 0
            for i in range(k, m):
                wi = w[i]
                for j in range(k, n):
                    v = wi[j]
                    if v != 0:
                        if v < 0:
                            v = -v
                        if pi < 0 or v < best:
                            pi, pj, best = i, j, v
            if pi < 0:
                break  # trailing block is all zero; remaining factors are 0
            if pi != k:
                w[k], w[pi] = w[pi], w[k]
            if pj != k:
                for row in w:
                    row[k], row[pj] = row[pj], row[k]
            if w[k][k] < 0:
                w[k] = [-v for v in w[k]]
            pivot = w[k][k]
            dirty = False
            wk = w[k]
            for i in range(k + 1, m):
                v = w[i][k]
                if v != 0:
                    q = v // pivot
                    if q:
                        wi = w[i]
                        for j in range(k, width):
                            wi[j] -= q * wk[j]
                    if w[i][k]:
                        dirty = True
            if dirty:
                continue
            for j in range(k + 1, n):
                v = wk[j]
                if v != 0:
                    q = v // pivot
                    if q:
                        for i in range(k, height):
                            w[i][j] -= q * w[i][k]
                    if wk[j]:
                        dirty = True
            if dirty:
                continue
            # Row and column k are clear; enforce pivot | trailing block.
            offender = -1
            for i in range(k + 1, m):
                wi = w[i]
                for j in range(k + 1, n):
                    if wi[j] % pivot:
                        offender = i
                        break
                if offender >= 0:
                    break
            if offender < 0:
                break
            wo = w[offender]
            for j in range(width):
                wk[j] += wo[j]
    factors = [w[i][i] for i in range(size)]
    if not want_transforms:
        return factors, None, None
    return factors, [row[n:] for row in w[:m]], w[m:]


def local_exponents(a, p, k):
    """Smith form of a square matrix over Z/p^k, as exponents of the prime p.

    Each step pivots on an entry of least p-adic valuation in the trailing
    block; the pivot's valuation is the step's exponent. The whole block
    stays a multiple of p^e for the current level e, so the exponents come
    out nondecreasing.

    Returns the exponents below k. The other n - len(result) invariant
    factors vanish modulo p^k: their exponents are k or more.
    """
    return _eliminate(a, p**k, p, k)


def unit_rank(a, c):
    """Elimination steps over Z/c that find a unit pivot, for c > 1.

    Each step pivots on an entry x of the trailing block with
    gcd(x, c) == 1; the count stops at the first block without such an
    entry. Unit pivots stay units modulo every prime factor of c, so the
    count is a lower bound on the rank of a modulo each of them, and for
    prime c, where every nonzero entry is a unit, it is the rank.
    """
    return len(_eliminate(a, c, c, 1))


def gf_rank(a, p):
    """Rank over GF(p); p must be prime."""
    return unit_rank(a, p)


def _eliminate(a, q, d, levels):
    """Gaussian elimination over Z/q on packed rows; the level of each pivot.

    At level e (0 <= e < levels) every entry is a multiple of d^e modulo q,
    and an entry x may pivot iff gcd(x, d^(e+1)) == d^e; when none may, the
    level goes up; d^levels divides q.

    Each row is one int of fixed-width byte slots, column 0 in the lowest.
    Only a pivot row is reduced modulo q; every other slot grows by less
    than q^2 a step, and its width leaves room for every step, so no slot
    carries into the next. The pivot is moved into column 0, so one
    ``(r + (q - f) * pivot) >> bits`` clears it from row r and drops the
    column: the pivot divides every entry of its row modulo q, so the
    column operations that would clear that row change nothing else.
    """
    n = len(a[0])
    # A slot starts below q and gains less than q^2 in each of at most
    # min(m, n) steps; one byte more is margin.
    size = (2 * q.bit_length() + min(len(a), n).bit_length() + 7) // 8 + 1
    bits = 8 * size
    mask = (1 << bits) - 1
    rows = [_pack([x % q for x in row], size) for row in a]
    out = []
    pe = 1
    for e in range(levels):
        g = pe * d
        while rows and n:
            for i, r in enumerate(rows):
                if gcd(r & mask, g) == pe:
                    break
            else:
                i = _swap_pivot_in(rows, n, size, g, pe)
                if i < 0:
                    break
            vals = [x % q for x in _unpack(rows.pop(i), n, size)]
            pivot = _pack(vals, size)
            inv = pow(vals[0] // pe, -1, q)
            for t, r in enumerate(rows):
                f = (r & mask) // pe * inv % q
                rows[t] = (r + (q - f) * pivot) >> bits if f else r >> bits
            n -= 1
            out.append(e)
        pe = g
    return out


def _swap_pivot_in(rows, n, size, g, pe):
    """Index of the first row with a pivot, after swapping its column to 0.

    A pivot is an entry x with gcd(x, g) == pe; returns -1 if there is none.
    """
    mask = (1 << 8 * size) - 1
    for i, row in enumerate(rows):
        for j, x in enumerate(_unpack(row, n, size)):
            if gcd(x, g) == pe:
                shift = 8 * size * j
                for t, r in enumerate(rows):
                    x = ((r >> shift) ^ r) & mask
                    rows[t] = r ^ x ^ (x << shift)
                return i
    return -1


def _pack(vals, size):
    """One int holding the nonnegative vals in size-byte slots, first lowest."""
    return int.from_bytes(b"".join(map(int.to_bytes, vals, repeat(size), repeat("little"))), "little")


def _unpack(r, n, size):
    """The n slot values of a packed row."""
    data = r.to_bytes(n * size, "little")
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, n * size, size)]


def autocorrelations(row):
    """Cyclic autocorrelations c_k = sum_i row[i]*row[(i+k) mod n].

    c_k is the (0, k) entry of R*R^T for the circulant R with this first
    row, so a +-1 row generates a Barba Gram iff c_k == 1 for all k != 0.
    """
    n = len(row)
    out = [0] * n
    for k in range(n):
        s = 0
        for i in range(n):
            j = i + k
            if j >= n:
                j -= n
            s += row[i] * row[j]
        out[k] = s
    return out
