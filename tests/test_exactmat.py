"""Exact matrix arithmetic and the shared text format."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from doptsnf import kernels
from doptsnf.exactmat import (
    DimensionError,
    IntMatrix,
    block2x2,
    circulant,
    determinant,
    factorize,
    format_matrix,
    is_prime,
    kronecker,
    matmul,
    parse_matrix,
    rank_mod_p,
    trial_divide,
)


def brute_det(m: IntMatrix) -> int:
    """Cofactor expansion along the first row; exponential but obviously right."""
    n = m.rows
    if n == 1:
        return m.at(0, 0)
    total = 0
    cols = list(range(n))
    for j in range(n):
        rest = [c for c in cols if c != j]
        minor = m.submatrix(list(range(1, n)), rest)
        total += (-1) ** j * m.at(0, j) * brute_det(minor)
    return total


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def test_construction_and_accessors():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.at(1, 2) == 6
    assert m.row(0) == (1, 2, 3)
    assert m.to_rows() == [[1, 2, 3], [4, 5, 6]]
    assert not m.is_square
    assert m.transpose().to_rows() == [[1, 4], [2, 5], [3, 6]]
    assert m.row_sums() == (6, 15)


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(IndexError):
        IntMatrix.identity(2).at(2, 0)
    for i in (-1, 2):
        with pytest.raises(IndexError, match=f"^row {i} out of range$"):
            IntMatrix.identity(2).row(i)
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1.5, 2.9]])  # not truncated to [[1, 2]]
    with pytest.raises(TypeError):
        circulant([1.5, 2, 3])  # not the row (1, 2, 3)


def test_identity_zeros_ones():
    assert IntMatrix.identity(3).to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert IntMatrix.zeros(2, 3).to_rows() == [[0, 0, 0], [0, 0, 0]]
    assert IntMatrix.all_ones(2).to_rows() == [[1, 1], [1, 1]]


def test_operators():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[5, 6], [7, 8]])
    assert (a + b).to_rows() == [[6, 8], [10, 12]]
    assert (b - a).to_rows() == [[4, 4], [4, 4]]
    assert (-a).to_rows() == [[-1, -2], [-3, -4]]
    assert (3 * a).to_rows() == [[3, 6], [9, 12]]
    assert (a @ b).to_rows() == [[19, 22], [43, 50]]
    assert a @ b == matmul(a, b)
    with pytest.raises(DimensionError):
        a @ IntMatrix.from_rows([[1, 2, 3]])
    with pytest.raises(DimensionError, match=r"^shape mismatch: 2x2 vs 3x3$"):
        a + IntMatrix.identity(3)


def test_submatrix():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.submatrix([0, 2], [1, 2]).to_rows() == [[2, 3], [8, 9]]


def test_determinant_known_values():
    assert determinant(IntMatrix.identity(4)) == 1
    assert determinant(IntMatrix.from_rows([[2, 1], [7, 4]])) == 1
    assert determinant(IntMatrix.all_ones(3)) == 0
    # permutation matrix with odd sign
    p = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert determinant(p) == -1
    with pytest.raises(DimensionError):
        determinant(IntMatrix.from_rows([[1, 2]]))


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert determinant(m) == brute_det(m)


def test_determinant_multiplicative():
    rng = random.Random(102)
    for _ in range(40):
        a = random_matrix(rng, 4, 4)
        b = random_matrix(rng, 4, 4)
        assert determinant(a @ b) == determinant(a) * determinant(b)


def test_adjugate_identity():
    rng = random.Random(103)
    checked = 0
    while checked < 50:
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n)
        d = determinant(m)
        if d == 0:
            assert kernels.adjugate(m.to_rows()) == (None, 0)
            continue
        adj, det = kernels.adjugate(m.to_rows())
        adj = IntMatrix.from_rows(adj)
        assert det == d
        assert (m @ adj).to_rows() == (d * IntMatrix.identity(n)).to_rows()
        assert adj @ m == d * IntMatrix.identity(n)
        checked += 1


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_factorize():
    limit = 2000
    sieve = [False, False] + [True] * (limit - 1)
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    for n in range(1, limit + 1):
        powers = factorize(n)
        assert all(sieve[p] and e >= 1 for p, e in powers.items())
        assert math.prod(p**e for p, e in powers.items()) == n
        assert trial_divide(n) == (powers, 1)
        for bound in (2, 3, 5, 10, 30):
            small, c = trial_divide(n, bound)
            assert c * math.prod(p**e for p, e in small.items()) == n
            assert all(sieve[p] for p in small)
            assert all(small.get(p, 0) == e for p, e in powers.items() if p < bound)
            # A cofactor is left only when the bound stopped the divisors:
            # then it is at least bound**2 and has no prime factor below it.
            assert c == 1 or (c >= bound**2 and min(factorize(c)) >= bound)
    # Left over below the square of the next divisor: prime, into the powers.
    assert trial_divide(3 * 7, 5) == ({3: 1, 7: 1}, 1)
    assert trial_divide(2**5 * 65537, 2**16) == ({2: 5, 65537: 1}, 1)
    # Stopped by the bound: the cofactor is returned whole, prime or not.
    assert trial_divide(7 * 11 * 13, 5) == ({}, 1001)
    assert trial_divide(3 * 65537**2, 2**16) == ({3: 1}, 65537**2)
    assert trial_divide(65537 * 65539, 2**16) == ({}, 65537 * 65539)
    for n in (0, -1, -12):
        with pytest.raises(ValueError):
            factorize(n)
        with pytest.raises(ValueError):
            trial_divide(n, 10)
    # Non-integers are refused, not factored: 7.5 is not {7.5: 1}, 12.0 not {2: 2, 3.0: 1}.
    for call, message in (
        (lambda: factorize(7.5), "n must be an integer, got 7.5"),
        (lambda: factorize(12.0), "n must be an integer, got 12.0"),
        (lambda: is_prime(7.0), "n must be an integer, got 7.0"),
        (lambda: trial_divide(12, 3.0), "bound must be an integer, got 3.0"),
    ):
        with pytest.raises(TypeError, match=message):
            call()


def test_rank_mod_p():
    m = IntMatrix.from_rows([[1, 2], [2, 4]])
    assert rank_mod_p(m, 3) == 1
    assert rank_mod_p(IntMatrix.identity(5), 7) == 5
    # 3I is invertible mod 5 but vanishes mod 3
    assert rank_mod_p(3 * IntMatrix.identity(4), 5) == 4
    assert rank_mod_p(3 * IntMatrix.identity(4), 3) == 0
    with pytest.raises(ValueError):
        rank_mod_p(m, 6)
    with pytest.raises(TypeError, match="p must be an integer, got 3.0"):
        rank_mod_p(m, 3.0)  # refused before the primality test, which would pass it


def test_rank_mod_p_matches_det():
    rng = random.Random(104)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        for p in (3, 5, 13):
            full = rank_mod_p(m, p) == n
            assert full == (determinant(m) % p != 0)


def test_circulant():
    c = circulant((0, 1, 0))
    assert c.to_rows() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    # powers of the cycle rotate back to the identity
    assert c @ c @ c == IntMatrix.identity(3)
    with pytest.raises(DimensionError):
        circulant(())


def test_circulants_commute():
    rng = random.Random(105)
    for _ in range(20):
        n = rng.randint(1, 8)
        a = circulant([rng.randint(-4, 4) for _ in range(n)])
        b = circulant([rng.randint(-4, 4) for _ in range(n)])
        assert a @ b == b @ a


def test_kronecker():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 5], [6, 7]])
    k = kronecker(a, b)
    assert (k.rows, k.cols) == (4, 4)
    assert k.to_rows()[0] == [0, 5, 0, 10]
    assert kronecker(IntMatrix.identity(2), IntMatrix.identity(3)) == IntMatrix.identity(6)
    # mixed-product property on a small instance
    c = IntMatrix.from_rows([[2, 0], [1, 1]])
    d = IntMatrix.from_rows([[1, 1], [0, 2]])
    assert kronecker(a @ c, b @ d) == kronecker(a, b) @ kronecker(c, d)


def test_block2x2():
    i = IntMatrix.identity(2)
    z = IntMatrix.zeros(2)
    m = block2x2(i, z, z, -i)
    assert m.to_rows() == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, -1, 0],
        [0, 0, 0, -1],
    ]
    with pytest.raises(DimensionError, match="^row counts of horizontal neighbors differ$"):
        block2x2(i, IntMatrix.zeros(3, 2), z, i)
    with pytest.raises(DimensionError, match="^column counts of vertical neighbors differ$"):
        block2x2(i, i, IntMatrix.zeros(2, 3), IntMatrix.zeros(2, 1))


def test_text_format_round_trip():
    m = IntMatrix.from_rows([[1, -2, 3], [-4, 5, -6]])
    text = format_matrix(m, comments=("example",))
    assert text.startswith("# example\n2 3\n")
    assert parse_matrix(text) == m
    assert str(m) == format_matrix(m)
    assert parse_matrix(str(m)) == m


@given(
    st.lists(
        st.lists(st.integers(min_value=-(10**12), max_value=10**12), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_text_format_round_trip_fuzz(rows):
    m = IntMatrix.from_rows(rows)
    assert parse_matrix(format_matrix(m)) == m


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="0123456789 -+_#.x\n\t")))
def test_parse_matrix_only_raises_value_error(text):
    """Any text parses to a matrix or raises ValueError, never another error."""
    try:
        m = parse_matrix(text)
    except ValueError:
        return
    assert isinstance(m, IntMatrix)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only comments\n",
        "2\n1 2\n",
        "2 2\n1 2\n3\n",
        "2 2\n1 2\n",
        "2 2\n1 2\n3 x\n",
        "0 2\n",
        "1 1\n1\nextra row\n",
        "1 1\n1_000\n",
        "1 1\n١٢\n",
        "1_0 1\n1\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_matrix(text)
