"""Pure-Python kernels for the exact linear-algebra hot loops.

This is the package's one kernel implementation. Matrices are lists of row
lists of Python ints, so every result is exact no matter how large
intermediates grow. Callers own all shape validation — kernels assume
well-formed input.
"""

from __future__ import annotations

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

    Each step (``_eliminate``) pivots on an entry of least p-adic valuation
    in the trailing block; the pivot's valuation is the step's exponent.
    The whole block stays a multiple of p^e for the current level e, so the
    exponents come out nondecreasing, and every entry stays below p^k.

    Returns the exponents below k. The other n - len(result) invariant
    factors vanish modulo p^k: their exponents are k or more.
    """
    q = p**k
    w = [[x % q for x in row] for row in a]
    exps = []
    e = 0
    pe = 1  # p**e, which divides every entry of w
    while w and e < k:
        step = pe * p
        pi = pj = -1
        for i, row in enumerate(w):
            for j, x in enumerate(row):
                if x % step:
                    pi, pj = i, j
                    break
            if pi >= 0:
                break
        if pi < 0:
            e += 1
            pe = step
            continue
        _eliminate(w, pi, pj, pe, q)
        exps.append(e)
    return exps


def unit_rank(a, c):
    """Elimination steps over Z/c that find a unit pivot, for c > 1.

    Each step (``_eliminate``) pivots on an entry x of the trailing block
    with gcd(x, c) == 1; the count stops at the first block without such an
    entry. Unit pivots stay units modulo every prime factor of c, so the
    count is a lower bound on the rank of a modulo each of them.
    """
    w = [[x % c for x in row] for row in a]
    steps = 0
    while w:
        pi = pj = -1
        for i, row in enumerate(w):
            for j, x in enumerate(row):
                if gcd(x, c) == 1:
                    pi, pj = i, j
                    break
            if pi >= 0:
                break
        if pi < 0:
            break
        _eliminate(w, pi, pj, 1, c)
        steps += 1
    return steps


def _eliminate(w, pi, pj, pe, q):
    """One elimination step over Z/q on the block w, in place.

    The pivot w[pi][pj] is pe times a unit modulo q, and pe divides every
    entry of w. Clears column pj from the other rows, then drops the
    pivot's row and column: the pivot divides every entry of its row modulo
    q, so the column operations that would clear that row change nothing
    else.
    """
    prow = w.pop(pi)
    inv = pow(prow[pj] // pe, -1, q)
    for row in w:
        f = row[pj] // pe * inv % q
        if f:
            row[:] = [(x - f * y) % q for x, y in zip(row, prow)]
        del row[pj]


def gf_rank(a, p):
    """Rank over GF(p) by forward elimination; p must be prime."""
    m = len(a)
    n = len(a[0])
    w = [[v % p for v in row] for row in a]
    rank = 0
    for col in range(n):
        piv = -1
        for i in range(rank, m):
            if w[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        w[rank], w[piv] = w[piv], w[rank]
        wr = w[rank]
        inv = pow(wr[col], -1, p)
        for i in range(rank + 1, m):
            f = w[i][col]
            if f:
                f = (f * inv) % p
                wi = w[i]
                for j in range(col, n):
                    wi[j] = (wi[j] - f * wr[j]) % p
        rank += 1
        if rank == m:
            break
    return rank


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
