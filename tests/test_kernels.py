"""Kernels against independent oracles, and a fresh-process CLI smoke test."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from doptsnf import kernels
from doptsnf.exactmat import format_matrix
from doptsnf.search import _barba_row_from_mask, _circulant_barba_hits
from oracles import one_step_bareiss, ref_components
from test_snf import paley_two_block

SRC = Path(__file__).resolve().parents[1] / "src"

KERNELS = (
    "matmul",
    "sign_gram",
    "bareiss_determinant",
    "adjugate",
    "smith_reduce",
    "local_exponents",
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
    """The scan's popcount filter yields exactly the rows of the lower half
    that the textbook autocorrelation definition accepts, each with its
    negation, and those negations, reversed, are exactly the accepted rows
    of the upper half: checked on every mask."""
    total = 1 << order
    rows = [_barba_row_from_mask(order, mask) for mask in range(total)]
    accepted = [row for row in rows if all(c == 1 for c in kernels.autocorrelations(row)[1:])]
    pairs = list(_circulant_barba_hits(order, 0, total // 2))
    assert [row for row, _ in pairs] == [row for row in accepted if row[0] == -1]
    assert [twin for _, twin in reversed(pairs)] == [row for row in accepted if row[0] == 1]
    assert all(twin == tuple(-v for v in row) for row, twin in pairs)


def pm1_matrices(max_rows, max_cols):
    """+-1 matrices of 1..max_rows x 1..max_cols, square or rectangular, from
    the bits of one integer."""
    dims = st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))
    return dims.flatmap(
        lambda mn: st.integers(0, (1 << mn[0] * mn[1]) - 1).map(
            lambda bits: [
                [1 - 2 * (bits >> (i * mn[1] + j) & 1) for j in range(mn[1])] for i in range(mn[0])
            ]
        )
    )


@settings(max_examples=200, deadline=None)
@given(pm1_matrices(40, 70))
def test_sign_gram_matches_matmul(a):
    """Rows of more than 64 entries pack into more than one machine word."""
    assert kernels.sign_gram(a) == kernels.matmul(a, list(zip(*a)))


@pytest.mark.parametrize("m, n", [(1, 1), (1, 70), (40, 1), (40, 64), (40, 65), (40, 70), (70, 40)])
def test_sign_gram_matches_matmul_on_extreme_shapes(m, n):
    rng = random.Random(m * 100 + n)
    for a in (
        [[rng.choice((1, -1)) for _ in range(n)] for _ in range(m)],
        [[1] * n for _ in range(m)],
        [[-1] * n for _ in range(m)],
    ):
        assert kernels.sign_gram(a) == kernels.matmul(a, list(zip(*a)))


def symmetric_relations(max_n):
    """(n, adjacency) of a symmetric relation on range(n), 0 <= n <= max_n,
    from the bits of one integer, one bit per pair i < j."""
    return st.integers(0, max_n).flatmap(
        lambda n: st.integers(0, (1 << n * (n - 1) // 2) - 1).map(
            lambda bits: (n, pair_bits(n, bits))
        )
    )


def pair_bits(n, bits):
    """The adjacency lists of range(n) with bit k of bits on the k-th pair."""
    adj = [[False] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k, (i, j) in enumerate(pairs):
        adj[i][j] = adj[j][i] = bool(bits >> k & 1)
    return adj


def walk(n, adj):
    """kernels._components on adj, and the calls of its join test: each
    (i, rest) it was asked."""
    calls = []

    def joined(i, rest):
        calls.append((i, list(rest)))
        return [adj[i][j] for j in rest]

    return kernels._components(n, joined), calls


@settings(max_examples=300, deadline=None)
@given(symmetric_relations(12))
def test_component_walk_matches_the_union_find(relation):
    """The walk's blocks are the union-find's, in the same order and with
    sorted members; a row is asked about only rows not reached yet, so no
    pair is tested twice and no row against itself."""
    n, adj = relation
    blocks, calls = walk(n, adj)
    assert blocks == ref_components(range(n), lambda i, j: adj[i][j])
    tested = [frozenset((i, j)) for i, rest in calls for j in rest]
    assert len(tested) == len(set(tested))
    assert all(len(pair) == 2 for pair in tested)


@settings(max_examples=100, deadline=None)
@given(symmetric_relations(12))
def test_component_walk_asks_one_row_when_the_first_reaches_all(relation):
    n, adj = relation
    for j in range(1, n):
        adj[0][j] = adj[j][0] = True
    blocks, calls = walk(n, adj)
    assert blocks == ([list(range(n))] if n else [])
    assert [i for i, _ in calls] == ([0] if n > 1 else [])


def ref_clique_break(g, idx):
    """The first (i, j), i <= j, in row-major order over the block of g on
    idx where it differs from the literal D(aI + bJ)D that its first row
    spells, with b = |g at its first two indices| and a sign per member
    from that row; a b of 0 fails at once. None if no entry differs."""
    h = len(idx)
    if h == 1:
        return None
    r = idx[0]
    b = abs(g[r][idx[1]])
    signs = [1] + [1 if g[r][k] > 0 else -1 for k in idx[1:]]
    want = [[g[r][r] if p == q else signs[p] * signs[q] * b for q in range(h)] for p in range(h)]
    for p in range(h):
        for q in range(p, h):
            if g[idx[p]][idx[q]] != want[p][q] or (p, q) == (0, 1) and b == 0:
                return idx[p], idx[q]
    return None


CLIQUES_IN_A_MATRIX = st.integers(1, 9).flatmap(
    lambda h: st.tuples(
        st.integers(-6, 40),
        st.integers(-12, 12).filter(bool),
        st.lists(st.sampled_from((1, -1)), min_size=h, max_size=h),
        st.lists(st.integers(0, 2), min_size=h, max_size=h),
        st.integers(0, 2**32),
    )
)


def embedded_clique(a, b, signs, gaps, seed):
    """(g, idx): D(aI + bJ)D with D = diag(signs) on the indices idx of a
    larger symmetric matrix g with seeded entries elsewhere; idx[0] >= 1 and
    gaps[p] more rows precede member p than member p - 1."""
    idx = [p + 1 + sum(gaps[: p + 1]) for p in range(len(signs))]
    size = idx[-1] + 2
    rng = random.Random(seed)
    g = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            g[i][j] = g[j][i] = rng.randint(-9, 9)
    for p, i in enumerate(idx):
        for q, j in enumerate(idx):
            g[i][j] = signs[p] * signs[q] * (a * (p == q) + b)
    return g, idx


@settings(max_examples=300, deadline=None)
@given(CLIQUES_IN_A_MATRIX)
@example((0, -2, [1, 1, -1], [0, 0, 0], 1))
@example((5, 3, [1], [2], 7))
def test_clique_break_passes_exactly_the_clique_blocks(case):
    """D(aI + bJ)D passes iff b > 0, or at any b when h <= 2; at b < 0 and
    h >= 3 it breaks where the literal reference does, at its second and
    third members."""
    a, b, signs, gaps, seed = case
    g, idx = embedded_clique(a, b, signs, gaps, seed)
    got = kernels._clique_break(g, idx)
    assert (got is None) == (b > 0 or len(idx) <= 2)
    assert got == ref_clique_break(g, idx)


@settings(max_examples=400, deadline=None)
@given(CLIQUES_IN_A_MATRIX.filter(lambda case: len(case[2]) >= 2), st.data())
def test_clique_break_finds_the_first_perturbed_entry(case, data):
    """One symmetric pair of the block, or one diagonal entry after its
    first row, moved by a nonzero delta: the break is where the literal
    reference finds it, in the matrix's indices, not the block's positions.
    Only a block of two whose one pair moves to another nonzero value is
    still D(aI + bJ)D."""
    a, b, signs, gaps, seed = case
    g, idx = embedded_clique(a, abs(b), signs, gaps, seed)
    h = len(idx)
    p = data.draw(st.integers(0, h - 1))
    q = data.draw(st.integers(max(p, 1), h - 1))
    delta = data.draw(st.integers(-5, 5).filter(bool))
    i, j = idx[p], idx[q]
    g[i][j] += delta
    if i != j:
        g[j][i] += delta
    got = kernels._clique_break(g, idx)
    assert got == ref_clique_break(g, idx)
    assert (got is None) == (h == 2 and p == 0 and g[i][j] != 0)


def test_determinant_certificates_on_big_entries(example26):
    """|det| equals the product of the invariant factors, and A adj(A) = det I;
    intermediates here overflow any machine word."""
    x = 3**40
    huge = [[x ** (i + j + 1) for j in range(3)] for i in range(3)]  # x u u^T, rank 1
    shifted = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(huge)]
    assert kernels.bareiss_determinant(shifted)[0] == 1 + x + x**3 + x**5  # det(I + x u u^T)
    for name, a in {"example26": example26.to_rows(), "huge": huge, "huge+I": shifted}.items():
        n = len(a)
        det = kernels.bareiss_determinant(a)[0]
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


def matrices(min_rows, max_rows):
    """Integer matrices, square or rectangular, with sides in the given range."""
    dims = st.tuples(st.integers(min_rows, max_rows), st.integers(min_rows, max_rows))
    entries = st.integers(min_value=-40, max_value=40)
    return dims.flatmap(
        lambda mn: st.lists(st.lists(entries, min_size=mn[1], max_size=mn[1]), min_size=mn[0], max_size=mn[0])
    )


def scale_first_column(a, s):
    """a with its first column times s: no entry there can pivot modulo any
    prime of s, so the elimination must bring a pivot in from another column."""
    return [[row[0] * s] + row[1:] for row in a]


@settings(max_examples=200, deadline=None)
@given(matrices(1, 9), st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.booleans())
def test_local_exponents_match_references(a, p, k, swap):
    """Rectangular inputs too, since ``gf_rank`` (k = 1) takes them."""
    if swap:
        a = scale_first_column(a, p)
    got = kernels.local_exponents(a, p, k)
    assert got == list_eliminate(a, p**k, p, k)
    factors, _, _ = kernels.smith_reduce(a, False)
    vals = [valuation(f, p) for f in factors]
    assert got == [v for v in vals if v is not None and v < k]


def test_local_exponents_unpack_no_row_for_p_2(monkeypatch, example66):
    """For p = 2 every slot is read by masks, in column 0, in the swap scan
    and in the pivot row's reduction. On example66, k of 2 or more reaches
    levels where no column-0 entry may pivot; the sparse input, mostly 0 or
    even, needs pivots swapped in at level 0 too."""
    rng = random.Random(1801)
    square = [[rng.choice((1, -1)) for _ in range(20)] for _ in range(20)]
    sparse = [[rng.choice((0, 0, 0, 0, 0, 1, 2, 4, 8, 12)) for _ in range(20)] for _ in range(20)]

    def refuse(*args):
        raise AssertionError("a row was unpacked")

    monkeypatch.setattr(kernels, "_unpack", refuse)
    monkeypatch.setattr(kernels, "_swap_pivot_in", refuse)
    for a in (example66.to_rows(), square, sparse):
        factors, _, _ = kernels.smith_reduce(a, False)
        vals = [valuation(f, 2) for f in factors]
        for k in (1, 2, 4, 8):
            got = kernels.local_exponents(a, 2, k)
            assert got == list_eliminate(a, 2**k, 2, k)
            assert got == [v for v in vals if v is not None and v < k]


def growth_matrix(n):
    """Order-n matrix whose packed elimination pivots on row 0 with value 1
    at every step, with every other entry of the pivot row -1 and every row
    scaled by f = 1: each step adds (q - 1)^2 to every remaining slot. The
    last pivot block is 0, so the rank is n - 1 modulo every q."""
    a = [[(-1 - i if i < j else 1 - j if i > j else 1 - i) for j in range(n)] for i in range(n)]
    a[-1][-1] -= 1
    return a


#: (q, (p, k), order, slot width in bytes). The widths of 8 bytes or less
#: are the rounded ones, which pack by struct formats; at orders 15 and 63
#: the growth (q - 1) + (n - 1)(q - 1)^2 fills 85-87% of the slot. 3^20 and
#: 2^40 need more than 8 bytes, which pack slot by slot.
GROWTH_CASES = [
    (243, (3, 5), 100, 4),
    (251, (251, 1), 100, 4),
    (65521, (65521, 1), 100, 8),
    (2**7, (2, 7), 100, 4),
    (2**15, (2, 15), 100, 8),
    (3, (3, 1), 15, 1),
    (2, (2, 1), 15, 1),
    (31, (31, 1), 63, 2),
    (16381, (16381, 1), 15, 4),
    (2**30 - 35, (2**30 - 35, 1), 15, 8),
    (3**20, (3, 20), 100, 9),
    (2**40, (2, 40), 100, 12),
]


@pytest.mark.parametrize(
    "q, prime_power, n, width",
    [pytest.param(*case, id=f"{case[0]}-prime_power{i}") for i, case in enumerate(GROWTH_CASES)],
)
def test_packed_slots_hold_the_largest_growth(monkeypatch, q, prime_power, n, width):
    """Entries q - 1, and the growth matrix, in slots of the width given;
    for p = 2 the pivot row is reduced by a mask, not modulo q."""
    full = [[q - 1] * n for _ in range(n)]
    growth = growth_matrix(n)
    p, k = prime_power
    sizes = set()
    pack = kernels._pack
    monkeypatch.setattr(kernels, "_pack", lambda vals, size: sizes.add(size) or pack(vals, size))
    assert kernels.local_exponents(full, p, k) == [0]
    assert kernels.local_exponents(growth, p, k) == [0] * (n - 1)
    assert sizes == {width}
    assert kernels.gf_rank(growth, p) == n - 1


@pytest.mark.parametrize("size", range(1, 13))
def test_packed_slots_round_trip_at_each_width(size):
    """_pack and _unpack against little-endian int.to_bytes, slot 0 lowest,
    at the struct widths 1, 2, 4 and 8 and at the byte-loop widths between
    and above them."""
    top = 256**size - 1
    rng = random.Random(size)
    vals = [0, top] + [rng.randrange(top + 1) for _ in range(20)] + [top, 0]
    want = int.from_bytes(b"".join(v.to_bytes(size, "little") for v in vals), "little")
    assert kernels._pack(vals, size) == want
    assert list(kernels._unpack(want, len(vals), size)) == vals


def cofactor_det(a):
    """Determinant by cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * x * cofactor_det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j, x in enumerate(a[0])
        if x
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -2)), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_bareiss_determinant_matches_references(a):
    """Mostly-zero entries make vanishing 2 x 2 pivot blocks, row swaps and
    singular inputs common; odd and even orders both occur. The minor is,
    up to sign, the determinant with the last column and one row deleted."""
    det, minor = kernels.bareiss_determinant(a)
    assert det == one_step_bareiss(a)
    if len(a) <= 6:
        assert det == cofactor_det(a)
    if det == 0:
        assert minor == 0
    elif len(a) == 1:
        assert minor == 1
    else:
        minors = {abs(one_step_bareiss([row[:-1] for row in a[:i] + a[i + 1 :]])) for i in range(len(a))}
        assert minor != 0 and abs(minor) in minors


@pytest.mark.parametrize(
    "a, det",
    [
        ([[7]], 7),
        ([[0]], 0),
        ([[2, 3], [4, 5]], -2),
        ([[0, 1], [1, 0]], -1),
        ([[0, 0], [1, 0]], 0),
        # leading 2 x 2 minor 0: row 1 swaps with row 2
        ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], -1),
        ([[2, 4, 1, 0], [1, 2, 0, 1], [0, 1, 1, 1], [1, 0, 3, 2]], 13),
        # zero first column
        ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 0),
        ([[0, 1, 2, 3], [0, 1, 0, 1], [0, 2, 1, 1], [0, 1, 1, 0]], 0),
    ],
)
def test_bareiss_determinant_hand_cases(a, det):
    assert kernels.bareiss_determinant(a)[0] == det == cofactor_det(a)


def test_bareiss_determinant_of_rank_one_less():
    """Rank n - 1: the last row is 3 times the first minus twice the one
    before it."""
    rng = random.Random(9)
    for n in (2, 5, 8, 11):
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)]
        a.append([3 * x - 2 * y for x, y in zip(a[0], a[-1])])
        factors, _, _ = kernels.smith_reduce(a, False)
        assert factors.count(0) == 1
        assert kernels.bareiss_determinant(a) == (0, 0)
        assert one_step_bareiss(a) == 0


def test_bareiss_determinant_on_a_paley_design():
    """Order 114: |det| is the product of the Euclidean engine's factors."""
    a = paley_two_block(19).to_rows()
    factors, _, _ = kernels.smith_reduce(a, False)
    assert abs(kernels.bareiss_determinant(a)[0]) == math.prod(factors)
