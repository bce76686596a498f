"""Slow, independent oracles the tests check the library's engines against.

Nothing here imports doptsnf code: a fault in the two-step Bareiss
determinant or in either SNF engine cannot reach the oracle that checks
it. ``minor_gcd`` enumerates every i x i minor and takes gcds, so the
i-th invariant factor of a matrix is minor_gcd(a, i) / minor_gcd(a, i-1)
as long as i <= rank; each minor comes from ``one_step_bareiss``.
``ref_components`` is a union-find, for the library's component walk.
``tournament_rows`` decodes the searches' tournament masks bit by bit.
"""

from itertools import combinations
from math import gcd

#: minor_gcd refuses larger matrices: the number of minors grows as
#: binomial(n, i)^2 and this oracle is meant for desk-scale cross-checks only.
MINOR_GCD_SIZE_LIMIT = 8


def one_step_bareiss(a):
    """Determinant of square rows by one-step Bareiss, one column per pass,
    pivoting on the first nonzero entry of the column."""
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


def minor_gcd(a, size: int) -> int:
    """gcd of all size x size minors of the IntMatrix a, by full enumeration.

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
            g = gcd(g, one_step_bareiss([[a.at(i, j) for j in cset] for i in rset]))
            if g == 1:
                return 1
    return g


def ref_components(items, related):
    """Connected components of an undirected relation, each sorted, in order
    of least element: a union-find, independent of the library's pass."""
    parent = {i: i for i in items}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    items = list(items)
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            if related(items[a], items[b]):
                parent[find(items[a])] = find(items[b])
    comps = {}
    for i in items:
        comps.setdefault(find(i), []).append(i)
    return sorted((sorted(c) for c in comps.values()), key=lambda c: c[0])


def tournament_rows(order, mask):
    """The 0/1 rows of an order-n tournament mask, read literally: the pairs
    i < j in row-major order, the first at the most significant bit, each
    pair's bit set iff i -> j."""
    pairs = list(combinations(range(order), 2))
    rows = [[0] * order for _ in range(order)]
    for k, (i, j) in enumerate(pairs):
        if mask >> (len(pairs) - 1 - k) & 1:
            rows[i][j] = 1
        else:
            rows[j][i] = 1
    return rows
