"""Smith normal form engine vs. independent oracles.

The minor-gcd oracle enumerates every i x i minor directly, so it shares no
code with the elimination engine; agreement between the two on random input
is the core soundness argument.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from doptsnf.exactmat import IntMatrix, adjugate_and_det, determinant
from doptsnf.snf import MINOR_GCD_SIZE_LIMIT, SnfResult, minor_gcd, smith_normal_form


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def factors_via_minor_gcds(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors as ratios of consecutive minor gcds."""
    size = min(m.rows, m.cols)
    out = []
    prev = 1
    for i in range(1, size + 1):
        d = minor_gcd(m, i)
        if d == 0:
            out.extend([0] * (size - len(out)))
            break
        out.append(d // prev)
        prev = d
    return tuple(out)


def test_known_forms():
    assert smith_normal_form(IntMatrix.identity(3)).factors == (1, 1, 1)
    assert smith_normal_form(IntMatrix.zeros(2, 3)).factors == (0, 0)
    assert smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])).factors == (1, 6)
    assert smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).factors == (2, 4)
    assert smith_normal_form(IntMatrix.from_rows([[5]])).factors == (5,)
    # sign of entries never leaks into the factors
    assert smith_normal_form(IntMatrix.from_rows([[-7]])).factors == (7,)


def test_rectangular_and_rank():
    m = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    res = smith_normal_form(m)
    assert res.factors == (1, 0)
    assert res.rank == 1


def test_result_validates_chain():
    with pytest.raises(ValueError):
        SnfResult(factors=(2, 3))
    with pytest.raises(ValueError):
        SnfResult(factors=(1, -2))
    with pytest.raises(ValueError):
        SnfResult(factors=(0, 2))
    assert SnfResult(factors=(1, 6, 0)).rank == 2  # the rank follows the factors


def test_matches_minor_gcd_oracle():
    rng = random.Random(201)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        assert smith_normal_form(m).factors == factors_via_minor_gcds(m)


def test_transform_soundness(example26, skew14):
    rng = random.Random(202)
    randoms = [random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(150)]
    for m in randoms + [example26, skew14]:
        res = smith_normal_form(m, want_transforms=True)
        assert res.factors == smith_normal_form(m).factors
        assert determinant(res.left) in (1, -1)
        assert determinant(res.right) in (1, -1)
        prod = res.left @ m @ res.right
        for i in range(m.rows):
            for j in range(m.cols):
                want = res.factors[i] if i == j and i < len(res.factors) else 0
                assert prod.at(i, j) == want


def test_transposition_invariance():
    rng = random.Random(203)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert smith_normal_form(m).factors == smith_normal_form(m.transpose()).factors
        assert smith_normal_form(m).factors == smith_normal_form(-m).factors


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_unimodular_equivalence_fuzz(rows):
    """Left-multiplying by an elementary unimodular matrix never moves the SNF."""
    m = IntMatrix.from_rows(rows)
    base = smith_normal_form(m).factors
    # swap first/last row, then add twice the first row to the last
    e = IntMatrix.identity(m.rows).to_rows()
    e[0], e[-1] = e[-1], e[0]
    swapped = IntMatrix.from_rows(e) @ m
    assert smith_normal_form(swapped).factors == base
    if m.rows > 1:
        e2 = IntMatrix.identity(m.rows).to_rows()
        e2[-1][0] += 2
        sheared = IntMatrix.from_rows(e2) @ m
        assert smith_normal_form(sheared).factors == base


def test_minor_gcd_basics():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert minor_gcd(m, 1) == 2
    assert minor_gcd(m, 2) == 8  # |det| = |16 - 24|
    assert minor_gcd(m, 0) == 1  # documented convention
    with pytest.raises(ValueError):
        minor_gcd(m, -1)
    with pytest.raises(ValueError):
        minor_gcd(m, 3)


def test_minor_gcd_size_guard():
    big = IntMatrix.identity(MINOR_GCD_SIZE_LIMIT + 1)
    with pytest.raises(ValueError):
        minor_gcd(big, 2)
    assert minor_gcd(IntMatrix.identity(MINOR_GCD_SIZE_LIMIT), 2) == 1


def test_jacobi_adjugate_minor_identity():
    """det(adj(A)[I, J]) = (-1)^{sum I + sum J} det(A)^{k-1} det(A[~J, ~I])."""
    rng = random.Random(204)
    n = 5
    trials = 0
    while trials < 40:
        a = random_matrix(rng, n, n, lo=-5, hi=5)
        d = determinant(a)
        if d == 0:
            continue
        adj, _ = adjugate_and_det(a)
        k = rng.randint(1, n - 1)
        ii = tuple(sorted(rng.sample(range(n), k)))
        jj = tuple(sorted(rng.sample(range(n), k)))
        comp_rows = tuple(x for x in range(n) if x not in jj)
        comp_cols = tuple(x for x in range(n) if x not in ii)
        lhs = determinant(adj.submatrix(ii, jj))
        sign = -1 if (sum(ii) + sum(jj)) % 2 else 1
        rhs = sign * d ** (k - 1) * determinant(a.submatrix(list(comp_rows), list(comp_cols)))
        assert lhs == rhs
        trials += 1


def test_minor_gcd_first_level_is_entry_gcd():
    rng = random.Random(205)
    for _ in range(30):
        m = random_matrix(rng, 3, 4)
        assert minor_gcd(m, 1) == math.gcd(*(abs(v) for v in m.entries))
