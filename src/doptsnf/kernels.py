"""Pure-Python kernels for the exact linear-algebra hot loops.

This is the package's one kernel implementation. Matrices are lists of row
lists of Python ints, so every result is exact no matter how large
intermediates grow. Two kernels pack each row into one int, so that a row
operation is a few big-integer operations instead of one interpreted
operation per entry: the one modular kernel, ``local_exponents`` (which
``gf_rank`` calls with k = 1), packs fixed-width slots (of 1, 2, 4 or 8
bytes where that is wide enough, so that rows convert in C), and ``sign_gram``
works on the bitmasks of the -1 entries of +-1 rows. ``_sign_masks`` is the
one place that packs them, for ``sign_gram`` and for the SNF engine's Gram
probe; ``_mask_gram``, the popcount loop, serves callers that hold masks
already. Modulo 2^k the slots are read with bit masks alone: one AND tests
bit e of every slot of a row, or keeps every slot's low k bits, so no row
is unpacked. The EW check and that probe split a Gram by one walk,
``_components``; ``_group_form`` is the one block-form test, D(aI + bE +
cJ)D with a clique as its case of one class: the probe reads det and s_n
off each block. The EW check tests its two cliques itself, since a +-1
Gram with entries 0 and +-2 needs none of that generality. ``matmul``
stays the one general product. ``adjugate`` has no caller in the library:
it is kept as the tests' oracle and as a name the layered benchmark traces.
Callers own all shape validation — kernels assume well-formed input.
"""

from __future__ import annotations

import struct
from itertools import compress, repeat
from math import gcd
from operator import mul, neg, not_

#: Name of the kernel implementation; the layered benchmark records it with each run.
BACKEND = "python"

#: The struct format of each slot width, in bytes, that has one. Its standard
#: size holds on every host, and "<" keeps slot 0 lowest on every host.
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def matmul(a, b):
    """Exact product of an m*k and a k*n matrix (lists of rows)."""
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _sign_masks(rows):
    """Each +-1 row packed as one int, the bitmask of its -1 entries (the
    first entry in the highest bit)."""
    return [int("".join(["1" if v < 0 else "0" for v in row]), 2) for row in rows]


def sign_gram(rows):
    """AA^T of a +-1 matrix A given as row lists, by popcount on packed
    rows: _mask_gram on their _sign_masks."""
    return _mask_gram(_sign_masks(rows), len(rows[0]))


def _mask_gram(masks, k):
    """AA^T of the +-1 matrix whose rows, of length k, have the -1 masks
    given: any bit order will do, if it is one order for every row.

    Rows i and j agree in k - popcount(m_i ^ m_j) places and differ in the
    rest, so G_ij = k - 2 * popcount(m_i ^ m_j) exactly. Only the upper
    triangle is computed; the lower one is its mirror.
    """
    n = len(masks)
    g = [[k] * n for _ in range(n)]
    for i, mi in enumerate(masks):
        gi = g[i]
        for j in range(i + 1, n):
            gi[j] = g[j][i] = k - 2 * (mi ^ masks[j]).bit_count()
    return g


def _components(n, joined):
    """The components of a symmetric relation on range(n), sorted, in order
    of least member. Each grows from its least row; a row it reaches is
    tested only against the rows rest not reached yet, by joined(i, rest),
    one truth value per row of rest, so no row is tested once rest is empty."""
    rest = list(range(n))
    blocks = []
    while rest:
        block = [rest.pop(0)]
        for i in block:  # block grows as the loop reaches rows
            if not rest:
                break
            flags = joined(i, rest)
            block += compress(rest, flags)
            rest = list(compress(rest, map(not_, flags)))
        blocks.append(sorted(block))
    return blocks


def _group_form(g):
    """(a, b, c, classes, signs) if the symmetric g is D(aI + bE + cJ)D,
    D = diag(signs), signs[0] = 1, E joining each of m classes of k indices
    (sorted, in order of least member), c = 0 at m = 1 (the clique); else
    None. aI + bE + cJ holds x = b + c off the diagonal within a class and
    y = c across, so |x| is the rarer magnitude in row 0. With s its signs,
    two rows of a class agree in SgS once each holds x on the diagonal (row
    0 up to the sign of x): for x = |x|, then -|x|, the classes are the rows
    that agree, D and y follow, and DgD is compared with the form."""
    head = g[0]
    off = [abs(v) for v in head[1:]]
    mags = sorted(set(off), key=off.count)
    if len(mags) > 2 or 0 in mags:
        return None
    s = [1] + [1 if v > 0 else -1 for v in head[1:]]
    rows = [_signed(gi, s, si) for gi, si in zip(g, s)]
    for x in (mags[0], -mags[0]) if mags else (0,):
        groups, cls = {}, []
        for i, r in enumerate(rows):
            key = r[:i] + (x,) + r[i + 1 :]
            cls.append(groups.setdefault(key if i or x > 0 else tuple(map(neg, key)), len(groups)))
        m = len(groups)
        classes = [[i for i, t in enumerate(cls) if t == u] for u in range(m)]
        y = rows[classes[1][0] if m > 2 else 0][classes[-1][0]] if m > 1 else 0
        if any(len(cl) != len(classes[0]) for cl in classes) or m > 1 and (not y or m == len(g)):
            continue
        d = [sj * ((x > 0) - (x < 0) if not t else (y > 0) - (y < 0)) for sj, t in zip(s, cls)]
        d[0] = 1
        spelled = [tuple(x if u == t else y for u in cls) for t in range(m)]
        for i, gi in enumerate(g):
            if gi[i] != head[0] or _signed(gi, d, d[i])[i + 1 :] != spelled[cls[i]][i + 1 :]:
                break
        else:
            return head[0] - x, x - y, y, classes, d
    return None


def _signed(row, d, di):
    """The tuple of di * row_j * d_j over j."""
    return tuple(map(mul, row, d) if di > 0 else map(neg, map(mul, row, d)))


def bareiss_determinant(a):
    """Fraction-free determinant by two-step Bareiss elimination.

    Each pass removes columns k and k+1 together (Bareiss, Math. Comp. 22,
    1968). With prev the divisor of the previous pass (1 at first) and a
    the working entries, the new divisor is
    c0 = (a_kk a_{k+1,k+1} - a_{k,k+1} a_{k+1,k}) / prev; each row
    i >= k+2 gets c1 = (a_{k,k+1} a_ik - a_kk a_{i,k+1}) / prev and
    c2 = (a_{k+1,k} a_{i,k+1} - a_{k+1,k+1} a_ik) / prev, and each of its
    trailing entries becomes (a_ij c0 + a_{k+1,j} c1 + a_kj c2) / prev. By
    Sylvester's identity every one of these quotients is a minor of the
    input (c0 the leading minor of order k+2, a_ij the minor on the
    leading k rows and columns plus row i and column j), so each division
    is exact; the last divisor is the determinant, or, at odd order, the
    last entry is. A pass costs three products per entry where two
    one-column passes cost four, and one exact division where they cost
    two.

    Returns ``(det, minor)``, where minor is the leading (n-1)-minor of
    the row-permuted input, so up to sign an (n-1)-minor of the input
    itself (its last column and one row deleted). The elimination holds it
    already, so it costs nothing: at even order it is a_kk of the last
    pass, and at odd order it is the last divisor. It is 1 at order 1, and
    ``(0, 0)`` is returned when det is 0.

    Pivoting: row k is the first row from k on with a nonzero entry in
    column k; if c0 is 0, row k+1 swaps with the first later row that
    makes it nonzero. Each swap flips the sign. When column k has no
    nonzero entry, or no row makes c0 nonzero, the first k+2 columns are
    dependent and the determinant is 0.
    """
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    k = 0
    while k < n - 1:
        mk = m[k]
        if mk[k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], mk
                    mk = m[k]
                    sign = -sign
                    break
            else:
                return 0, 0
        a00, a01 = mk[k], mk[k + 1]
        ml = m[k + 1]
        c0 = a00 * ml[k + 1] - a01 * ml[k]
        if c0 == 0:
            for i in range(k + 2, n):
                mi = m[i]
                c0 = a00 * mi[k + 1] - a01 * mi[k]
                if c0 != 0:
                    m[k + 1], m[i] = mi, ml
                    ml = mi
                    sign = -sign
                    break
            else:
                return 0, 0
        c0 //= prev
        a10, a11 = ml[k], ml[k + 1]
        for i in range(k + 2, n):
            mi = m[i]
            x0, x1 = mi[k], mi[k + 1]
            c1 = (a01 * x0 - a00 * x1) // prev
            c2 = (a10 * x1 - a11 * x0) // prev
            for j in range(k + 2, n):
                mi[j] = (mi[j] * c0 + ml[j] * c1 + mk[j] * c2) // prev
        prev = c0
        k += 2
    if k == n:
        return sign * prev, a00
    det = sign * m[k][k]
    return (det, prev) if det else (0, 0)


def adjugate(a):
    """Adjugate and determinant via fraction-free Gauss-Jordan elimination.

    Runs the Bareiss recurrence on the augmented block [A | I], eliminating
    above and below each pivot in one sweep, which keeps the arithmetic
    integral throughout (O(n^3) big-int operations rather than the O(n^5)
    of cofactor expansion). Returns ``(adj, det)``; ``(None, 0)`` when the
    matrix is singular. No library code calls it (see the module docstring).
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
    a divisibility chain by construction. No entry is smaller than a unit,
    so the pivot search stops at the first |entry| = 1 in row-major order,
    the entry a full scan would pick, and a unit pivot skips the
    divisibility test.

    The transforms live in the one working array: with them, each of the
    first m rows is A's row followed by that row of I_m, and n extra rows
    below hold I_n. Row operations run over the array's width, so ``left``
    accumulates in columns n.. of the first m rows. A column operation
    runs only when the row pass has cleared column k below the pivot, so
    it changes only the pivot row and the last n rows, where ``right``
    accumulates. The pivot search and the divisibility test read only A's
    m x n block.

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
    tail = w[m:]
    size = m if m < n else n
    for k in range(size):
        while True:
            # Locate the first minimal nonzero |entry| of the trailing block.
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
                            if v == 1:
                                break
                if best == 1:
                    break
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
            # Column k is 0 below row k in A's block, so a column operation
            # changes only row k and the rows of ``right``.
            for j in range(k + 1, n):
                v = wk[j]
                if v != 0:
                    q = v // pivot
                    if q:
                        wk[j] = v - q * pivot
                        for wi in tail:
                            wi[j] -= q * wi[k]
                    if wk[j]:
                        dirty = True
            if dirty:
                continue
            # Row and column k are clear; enforce pivot | trailing block,
            # which a unit pivot divides.
            if pivot == 1:
                break
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
    """Smith form of a matrix over Z/p^k, as exponents of the prime p.

    Gaussian elimination over Z/q, q = p^k. At level e (0 <= e < k) every
    entry of the trailing block is a multiple of p^e modulo q, and an entry
    x may pivot iff gcd(x, p^(e+1)) == p^e; when none may, the level goes
    up. The pivot's level is the step's exponent, so the exponents come out
    nondecreasing. The pivot is the first eligible entry of column 0 or,
    failing that, the first eligible entry of the rows in order.

    Each row is one int of fixed-width byte slots, column 0 in the lowest.
    Only a pivot row is reduced modulo q; every other slot grows by less
    than q^2 a step, and its width leaves room for every step, so no slot
    carries into the next. A width of up to 8 bytes is rounded up to 1, 2,
    4 or 8, so that ``_pack`` and ``_unpack`` convert a row in C. The pivot
    is moved into column 0, so one ``(r + (q - f) * pivot) >> bits`` clears
    it from row r and drops the column: the pivot divides every entry of
    its row modulo q, so the column operations that would clear that row
    change nothing else.

    For p = 2 no row is unpacked. A slot's low e bits are 0 at level e, so
    it may pivot iff its bit e is set, and its residue modulo q is its low
    k bits. With ``ones`` holding a 1 in every slot, ``r & 2**e`` tests
    column 0, the lowest set bit of ``r & (ones << e)`` is the row's first
    eligible column, and ``r & (ones * (q - 1))`` reduces a pivot row. Odd
    p unpacks a row to test its slots by gcd and to reduce it.

    Returns the exponents below k. The other min(m, n) - len(result)
    invariant factors vanish modulo p^k: their exponents are k or more.
    """
    q = p**k
    n = len(a[0])
    # A slot starts below q and gains less than q^2 in each of at most
    # s = min(m, n) steps, so it stays below s q^2 + q < 2^(2 b(q) + b(s)),
    # b the bit length.
    size = -(-(2 * q.bit_length() + min(len(a), n).bit_length()) // 8)
    if size <= 8:
        size = 1 << (size - 1).bit_length()
    bits = 8 * size
    mask = (1 << bits) - 1
    rows = [_pack([x % q for x in row], size) for row in a]
    # For p = 2: a 1 in every slot, and the low k bits of every slot.
    ones = _pack([1] * n, size)
    low = ones * (q - 1)
    out = []
    pe = 1
    for e in range(k):
        g = pe * p
        while rows and n:
            if p == 2:
                for i, r in enumerate(rows):
                    if r & pe:
                        break
                else:
                    i = _swap_bit_in(rows, ones * pe, bits)
                    if i < 0:
                        break
                pivot = rows.pop(i) & low
            else:
                for i, r in enumerate(rows):
                    if gcd(r & mask, g) == pe:
                        break
                else:
                    i = _swap_pivot_in(rows, n, size, g, pe)
                    if i < 0:
                        break
                pivot = _pack([x % q for x in _unpack(rows.pop(i), n, size)], size)
            inv = pow((pivot & mask) // pe, -1, q)
            for t, r in enumerate(rows):
                f = (r & mask) // pe * inv % q
                rows[t] = (r + (q - f) * pivot) >> bits if f else r >> bits
            n -= 1
            out.append(e)
        pe = g
    return out


def gf_rank(a, p):
    """Rank over GF(p); p must be prime."""
    return len(local_exponents(a, p, 1))


def _swap_pivot_in(rows, n, size, g, pe):
    """Index of the first row with a pivot, after swapping its column to 0.

    A pivot is an entry x with gcd(x, g) == pe; returns -1 if there is none.
    """
    for i, row in enumerate(rows):
        for j, x in enumerate(_unpack(row, n, size)):
            if gcd(x, g) == pe:
                _swap_to_front(rows, 8 * size * j, (1 << 8 * size) - 1)
                return i
    return -1


def _swap_bit_in(rows, sel, bits):
    """Index of the first row with a bit of sel set, after swapping the
    column of its lowest such bit to 0; -1 if no row has one."""
    for i, r in enumerate(rows):
        x = r & sel
        if x:
            _swap_to_front(rows, ((x & -x).bit_length() - 1) // bits * bits, (1 << bits) - 1)
            return i
    return -1


def _swap_to_front(rows, shift, mask):
    """Swap the slot at bit offset shift with slot 0 in every row, by XOR."""
    for t, r in enumerate(rows):
        x = ((r >> shift) ^ r) & mask
        rows[t] = r ^ x ^ (x << shift)


def _pack(vals, size):
    """One int holding the nonnegative vals in size-byte slots, first lowest.
    A width with a struct format is converted in C; a wider one, slot by slot."""
    code = _SLOT_FORMATS.get(size)
    if code is None:
        return int.from_bytes(b"".join(map(int.to_bytes, vals, repeat(size), repeat("little"))), "little")
    return int.from_bytes(struct.pack(f"<{len(vals)}{code}", *vals), "little")


def _unpack(r, n, size):
    """The n slot values of a packed row."""
    data = r.to_bytes(n * size, "little")
    code = _SLOT_FORMATS.get(size)
    if code is None:
        return [int.from_bytes(data[i : i + size], "little") for i in range(0, n * size, size)]
    return struct.unpack(f"<{n}{code}", data)


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
