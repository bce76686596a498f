"""Constructions: tournaments, bordered skew designs, doubling."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from doptsnf.designs import (
    EXAMPLE_26_CIRCULANT_ROW,
    EXAMPLE_66_CIRCULANT_ROW,
    BlockEwSpec,
    NormalizationError,
    Tournament,
    barba_double,
    is_barba,
    is_skew_type,
    normalize_skew_to_border,
    skew_from_tournament,
    tournament_from_skew,
)
from doptsnf.exactmat import DimensionError, IntMatrix, circulant, determinant, matmul
from doptsnf.snf import smith_normal_form
from doptsnf.verify import ew_gram_check, normalized_block_row_sums, theorem_conformance


def cyclic3() -> Tournament:
    return Tournament(circulant((0, 1, 0)))


def test_tournament_validation():
    assert cyclic3().order == 3  # the 3-cycle is fine
    with pytest.raises(ValueError):
        Tournament(IntMatrix.identity(3))  # diagonal not zero
    with pytest.raises(ValueError):
        Tournament(IntMatrix.zeros(3))  # ties
    with pytest.raises(ValueError):
        Tournament(IntMatrix.from_rows([[0, 2], [-1, 0]]))
    with pytest.raises(ValueError):
        Tournament(IntMatrix.from_rows([[0, 1, 0], [0, 0, 1]]))


def reference_tournament_error(m: IntMatrix):
    """The message of the first offending (i, j) in row-major order, by the n^2 loop of m.at."""
    if not m.is_square:
        return f"matrix is {m.rows}x{m.cols}, not square"
    n = m.rows
    for i in range(n):
        for j in range(n):
            v = m.at(i, j)
            if i == j:
                if v != 0:
                    return "tournament diagonal must be zero"
            elif v not in (0, 1) or v + m.at(j, i) != 1:
                return f"entries ({i},{j})/({j},{i}) do not orient exactly one arc"
    return None


@st.composite
def corrupted_01_matrices(draw):
    """A random tournament or 0/1 matrix of order 1-9 with one entry overwritten."""
    n = draw(st.integers(1, 9))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    if draw(st.booleans()):
        bits = [0 if i == j else bits[i * n + j] if i < j else 1 - bits[j * n + i]
                for i in range(n) for j in range(n)]
    k = draw(st.integers(0, n * n - 1))
    bits[k] = draw(st.sampled_from((-1, 0, 1, 2)))
    return IntMatrix(n, n, bits)


@settings(max_examples=300, deadline=None)
@given(corrupted_01_matrices())
def test_tournament_validation_matches_the_reference_loop(m):
    expected = reference_tournament_error(m)
    if expected is None:
        assert Tournament(m).matrix == m
    else:
        with pytest.raises(ValueError) as exc:
            Tournament(m)
        assert str(exc.value) == expected


def test_tournament_validation_reports_the_first_offender():
    # (1, 1) comes before (1, 2)/(2, 1), and (1, 2) before (2, 2), in row-major order
    cases = (
        ([[0, 1, 1], [0, 3, 0], [0, 0, 0]], "tournament diagonal must be zero"),
        ([[0, 1, 1], [0, 0, 2], [0, 0, 9]], "entries (1,2)/(2,1) do not orient exactly one arc"),
    )
    for rows, message in cases:
        m = IntMatrix.from_rows(rows)
        assert reference_tournament_error(m) == message
        with pytest.raises(ValueError) as exc:
            Tournament(m)
        assert str(exc.value) == message


def test_skew_from_tournament_shape():
    s = skew_from_tournament(cyclic3())
    assert s.rows == 4
    assert s.row(0) == (1, 1, 1, 1)
    assert tuple(s.at(i, 0) for i in range(1, 4)) == (-1, -1, -1)
    assert is_skew_type(s)
    assert all(v in (1, -1) for v in s.entries)


def test_border_round_trip():
    t = cyclic3()
    assert tournament_from_skew(skew_from_tournament(t)).matrix == t.matrix


def test_tournament_from_skew_requires_normal_border():
    s = skew_from_tournament(cyclic3())
    # flip the sign of one non-border row and column: still skew-type,
    # but the border is no longer all-ones
    flipped = [
        [s.at(i, j) * (-1 if i == 2 else 1) * (-1 if j == 2 else 1) for j in range(4)]
        for i in range(4)
    ]
    fm = IntMatrix.from_rows(flipped)
    assert is_skew_type(fm)
    with pytest.raises(NormalizationError, match="^first row must be all ones$"):
        tournament_from_skew(fm)
    # normalization undoes the flip
    assert tournament_from_skew(normalize_skew_to_border(fm)).matrix == cyclic3().matrix


def test_normalize_is_identity_on_bordered(skew14):
    s = normalize_skew_to_border(skew14)
    assert normalize_skew_to_border(s) == s
    assert s.row(0) == tuple([1] * 14)


def test_skew14_fixture_is_skew_ew(skew14):
    assert is_skew_type(skew14)
    assert ew_gram_check(skew14).verdict


def test_tournament13_fixture(tournament13):
    assert tournament13.order == 13
    assert smith_normal_form(tournament13.matrix).factors == (1,) * 8 + (3,) * 4 + (99,)


def test_block_spec_assembly():
    r1 = circulant((1, 1, -1))
    r2 = circulant((1, -1, -1))
    x = BlockEwSpec(r1, r2).assemble()
    assert x.rows == 6
    assert x.submatrix([0, 1, 2], [0, 1, 2]) == r1
    assert x.submatrix([0, 1, 2], [3, 4, 5]) == r2
    assert x.submatrix([3, 4, 5], [0, 1, 2]) == -r2.transpose()
    assert x.submatrix([3, 4, 5], [3, 4, 5]) == r1.transpose()
    with pytest.raises(ValueError):
        BlockEwSpec(r1, circulant((1, -1)))


def test_example_26_structure(example26):
    assert example26.rows == 26
    assert all(v in (1, -1) for v in example26.entries)
    assert example26.row(0)[:13] == EXAMPLE_26_CIRCULANT_ROW
    rep = ew_gram_check(example26)
    assert rep.verdict
    assert rep.row_block_sums == (5, 5)
    assert determinant(example26) == 2 * 25 * 24**12


def test_example_66_structure(example66):
    assert example66.rows == 66
    assert all(v in (1, -1) for v in example66.entries)
    rep = ew_gram_check(example66)
    assert rep.verdict
    assert rep.row_block_sums == (11, 3)


def test_example_66_row_constant():
    assert len(EXAMPLE_66_CIRCULANT_ROW) == 11
    assert EXAMPLE_66_CIRCULANT_ROW[0] == 0
    assert all(v in (0, 1, -1) for v in EXAMPLE_66_CIRCULANT_ROW)


def test_is_barba():
    n = 5
    b = 2 * IntMatrix.identity(n) - IntMatrix.all_ones(n)
    assert is_barba(b)
    assert not is_barba(IntMatrix.all_ones(n))
    with pytest.raises(ValueError):
        is_barba(IntMatrix.zeros(3))


def test_barba_double_is_ew():
    base = circulant((-1, -1, -1, -1, 1))
    assert is_barba(base)
    doubled = barba_double(base)
    assert doubled.rows == 10
    assert ew_gram_check(doubled).verdict
    assert smith_normal_form(doubled).factors == (1,) + (2,) * 5 + (4,) * 2 + (12,) * 2


NON_SQUARE = IntMatrix.all_ones(2, 6)
ZERO_ONE = IntMatrix.identity(6)
ONE = IntMatrix.from_rows([[1]])
MINUS_ONE = IntMatrix.from_rows([[-1]])
NOT_SKEW = "input is not skew-type (S + S^T != 2I)"
MAIN_CLAIM = functools.partial(theorem_conformance, claim="main")


@pytest.mark.parametrize(
    "check, x, error, message",
    [
        (ew_gram_check, NON_SQUARE, DimensionError, "ew_gram_check needs a square matrix"),
        (ew_gram_check, ZERO_ONE, ValueError, "entries must be +-1"),
        (is_barba, NON_SQUARE, DimensionError, "is_barba needs a square matrix"),
        (is_barba, ZERO_ONE, ValueError, "entries must be +-1"),
        (barba_double, NON_SQUARE, DimensionError, "barba_double needs a square matrix"),
        (barba_double, ZERO_ONE, ValueError, "entries must be +-1"),
        (MAIN_CLAIM, NON_SQUARE, DimensionError, "claim main needs a square matrix"),
        (MAIN_CLAIM, ZERO_ONE, ValueError, "entries must be +-1"),
        (is_skew_type, NON_SQUARE, DimensionError, "is_skew_type needs a square matrix"),
        (tournament_from_skew, NON_SQUARE, NormalizationError, "input must be square"),
        (tournament_from_skew, ZERO_ONE, NormalizationError, "entries must be +-1"),
        (tournament_from_skew, ONE, NormalizationError, "input must have order at least 2"),
        (tournament_from_skew, MINUS_ONE, NormalizationError, NOT_SKEW),
        (normalize_skew_to_border, NON_SQUARE, NormalizationError, "input must be square"),
        (normalize_skew_to_border, ZERO_ONE, NormalizationError, "entries must be +-1"),
        (normalize_skew_to_border, MINUS_ONE, NormalizationError, NOT_SKEW),
        (
            normalized_block_row_sums,
            NON_SQUARE,
            DimensionError,
            "normalized_block_row_sums needs a square matrix",
        ),
        (normalized_block_row_sums, ZERO_ONE, ValueError, "entries must be +-1"),
    ],
)
def test_input_checks_raise_the_same_classes_and_messages(check, x, error, message):
    with pytest.raises(ValueError) as exc:
        check(x)
    assert (exc.type, str(exc.value)) == (error, message)


def test_skew_type_conditions_on_small_inputs():
    assert is_skew_type(ONE) and not is_skew_type(MINUS_ONE)
    assert normalize_skew_to_border(ONE) == ONE


def ref_is_skew_type(x: IntMatrix) -> bool:
    """The matrix expression is_skew_type used to build: X + X^T == 2I."""
    return x + x.transpose() == 2 * IntMatrix.identity(x.rows)


def test_is_skew_type_matches_the_matrix_expression(
    witnesses5, skew14, skew26, example26, example66
):
    """The entry test against ref_is_skew_type on the bordered witnesses,
    the fixtures, random +-1 squares, and each skew design with one entry
    negated (which a test that skipped the diagonal or a triangle would pass)."""
    rng = random.Random(4021)
    skew = [skew_from_tournament(w) for w in witnesses5] + [skew14, skew26]
    cases = skew + [example26, example66]
    for x in skew[::6] + [skew14, skew26]:
        n = x.rows
        for k in rng.sample(range(n * n), 6) + [0, n * n - 1]:
            cases.append(IntMatrix(n, n, [-v if i == k else v for i, v in enumerate(x.entries)]))
    for n in range(1, 9):
        for _ in range(20):
            cases.append(IntMatrix(n, n, [rng.choice((1, -1)) for _ in range(n * n)]))
    cases += [IntMatrix.from_rows([[1, 2], [-2, 1]]), IntMatrix.from_rows([[2, 0], [0, 0]])]
    verdicts = [is_skew_type(x) for x in cases]
    assert verdicts == [ref_is_skew_type(x) for x in cases]
    assert verdicts[: len(skew)] == [True] * len(skew)
    assert 0 < sum(verdicts[len(skew) :]) < len(verdicts) - len(skew)


def test_barba_double_rejects_bad_entries():
    with pytest.raises(ValueError):
        barba_double(IntMatrix.zeros(3))
    with pytest.raises(ValueError):
        barba_double(IntMatrix.from_rows([[1, 2], [3, 4]]))


def test_gram_of_barba_base():
    base = circulant((-1, -1, -1, -1, 1))
    target = 4 * IntMatrix.identity(5) + IntMatrix.all_ones(5)
    assert matmul(base, base.transpose()) == target
    assert matmul(base.transpose(), base) == target
