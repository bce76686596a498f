"""Kernels against independent oracles, and a fresh-process CLI smoke test."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from doptsnf import kernels
from doptsnf.exactmat import format_matrix
from doptsnf.search import _barba_row_from_mask, _circulant_barba_hits

SRC = Path(__file__).resolve().parents[1] / "src"

KERNELS = (
    "matmul",
    "bareiss_determinant",
    "adjugate",
    "smith_reduce",
    "local_exponents",
    "unit_rank",
    "gf_rank",
    "autocorrelations",
)


def test_backend_selection_reports_something_sane():
    assert kernels.BACKEND == "python"


def test_pure_backend_always_available():
    assert not hasattr(kernels, "__path__")  # one module, not a package
    assert all(callable(getattr(kernels, name)) for name in KERNELS)


@pytest.mark.parametrize("order", [5, 9, 13])
def test_popcount_filter_matches_autocorrelations(order):
    """The scan's popcount filter keeps exactly the rows the textbook
    autocorrelation definition accepts, checked on every mask."""
    total = 1 << order
    expected = [
        mask
        for mask in range(total)
        if all(c == 1 for c in kernels.autocorrelations(_barba_row_from_mask(order, mask))[1:])
    ]
    assert list(_circulant_barba_hits(order, 0, total)) == expected


def test_determinant_certificates_on_big_entries(example26):
    """|det| equals the product of the invariant factors, and A adj(A) = det I;
    intermediates here overflow any machine word."""
    x = 3**40
    huge = [[x ** (i + j + 1) for j in range(3)] for i in range(3)]  # x u u^T, rank 1
    shifted = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(huge)]
    assert kernels.bareiss_determinant(shifted) == 1 + x + x**3 + x**5  # det(I + x u u^T)
    for name, a in {"example26": example26.to_rows(), "huge": huge, "huge+I": shifted}.items():
        n = len(a)
        det = kernels.bareiss_determinant(a)
        factors, _, _ = kernels.smith_reduce(a, False)
        assert abs(det) == math.prod(factors), name
        adj, adj_det = kernels.adjugate(a)
        assert adj_det == det, name
        if det == 0:
            assert adj is None, name
            continue
        ident = [[det * (i == j) for j in range(n)] for i in range(n)]
        assert kernels.matmul(a, adj) == ident, name


def test_cli_snf_in_a_fresh_process(tmp_path, example26):
    path = tmp_path / "e26.mat"
    path.write_text(format_matrix(example26))
    out = subprocess.run(
        [sys.executable, "-m", "doptsnf.cli", "snf", str(path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1, 2^13, 12^10, 60^2"


def list_eliminate(a, q, d, levels):
    """Reference for the packed modular elimination: the same steps on lists
    of rows, pivoting on the first eligible entry in row-major order and
    reducing every entry modulo q. Returns the level of each pivot."""
    w = [[x % q for x in row] for row in a]
    out, pe = [], 1
    for e in range(levels):
        while w:
            cells = ((i, j, x) for i, row in enumerate(w) for j, x in enumerate(row))
            pi, pj = next(((i, j) for i, j, x in cells if math.gcd(x, pe * d) == pe), (-1, -1))
            if pi < 0:
                break
            prow = w.pop(pi)
            inv = pow(prow[pj] // pe, -1, q)
            for row in w:
                f = row[pj] // pe * inv % q
                row[:] = [(x - f * y) % q for x, y in zip(row, prow)]
                del row[pj]
            out.append(e)
        pe *= d
    return out


def valuation(x, p):
    """Exponent of p in x; None for x == 0."""
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def matrices(min_rows, max_rows, square):
    """Integer matrices of the given orders; rectangular unless square."""
    dims = st.tuples(st.integers(min_rows, max_rows), st.integers(min_rows, max_rows))
    if square:
        dims = st.integers(min_rows, max_rows).map(lambda n: (n, n))
    entries = st.integers(min_value=-40, max_value=40)
    return dims.flatmap(
        lambda mn: st.lists(st.lists(entries, min_size=mn[1], max_size=mn[1]), min_size=mn[0], max_size=mn[0])
    )


def scale_first_column(a, s):
    """a with its first column times s: no entry there can pivot modulo any
    prime of s, so the elimination must bring a pivot in from another column."""
    return [[row[0] * s] + row[1:] for row in a]


@settings(max_examples=200, deadline=None)
@given(matrices(1, 9, square=True), st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.booleans())
def test_local_exponents_match_references(a, p, k, swap):
    if swap:
        a = scale_first_column(a, p)
    got = kernels.local_exponents(a, p, k)
    assert got == list_eliminate(a, p**k, p, k)
    factors, _, _ = kernels.smith_reduce(a, False)
    vals = [valuation(f, p) for f in factors]
    assert got == [v for v in vals if v is not None and v < k]


@settings(max_examples=200, deadline=None)
@given(matrices(1, 9, square=False), st.sampled_from([2, 3, 4, 6, 7, 12, 30, 65537 * 65539]), st.booleans())
def test_unit_rank_bounds_the_rank_modulo_each_prime(a, c, swap):
    """For prime c the count is the rank; for composite c it is a lower bound
    on the rank modulo each prime of c (the greedy count itself depends on
    the pivot order, so it is not compared with the reference's)."""
    primes = [p for p in (2, 3, 5, 7, 65537, 65539) if c % p == 0]
    if swap:
        a = scale_first_column(a, primes[0])
    got = kernels.unit_rank(a, c)
    ref = len(list_eliminate(a, c, c, 1))
    factors, _, _ = kernels.smith_reduce(a, False)
    ranks = [sum(1 for f in factors if f % p) for p in primes]
    assert got <= min(ranks) and ref <= min(ranks)
    if primes == [c]:
        assert got == ref == kernels.gf_rank(a, c) == ranks[0]


def growth_matrix(n):
    """Order-n matrix whose packed elimination pivots on row 0 with value 1
    at every step, with every other entry of the pivot row -1 and every row
    scaled by f = 1: each step adds (q - 1)^2 to every remaining slot. The
    last pivot block is 0, so the rank is n - 1 modulo every q."""
    a = [[(-1 - i if i < j else 1 - j if i > j else 1 - i) for j in range(n)] for i in range(n)]
    a[-1][-1] -= 1
    return a


@pytest.mark.parametrize("q, prime_power", [(243, (3, 5)), (251, (251, 1)), (255, None), (65521, (65521, 1))])
def test_packed_slots_hold_the_largest_growth(q, prime_power):
    """Entries q - 1 with q just below a byte boundary, at order 100."""
    n = 100
    full = [[q - 1] * n for _ in range(n)]
    growth = growth_matrix(n)
    assert kernels.unit_rank(full, q) == 1
    assert kernels.unit_rank(growth, q) == n - 1
    if prime_power:
        p, k = prime_power
        assert kernels.local_exponents(full, p, k) == [0]
        assert kernels.local_exponents(growth, p, k) == [0] * (n - 1)
        assert kernels.gf_rank(growth, p) == n - 1
