"""Construction of the design families: tournaments, bordered skew matrices,
two-block assemblies, and the doubled constructions.

The two ``build_example_*`` functions reproduce the library's reference
designs of orders 26 and 66 from hard-coded circulant first rows; their
expected Gram identities and Smith normal forms are pinned by the test
suite. Determinant signs are whatever the construction produces — nothing
here normalizes signs.
"""

from __future__ import annotations

from .exactmat import (
    DimensionError,
    Frozen,
    IntMatrix,
    block2x2,
    circulant,
    kronecker,
)
from .kernels import sign_gram


class NormalizationError(ValueError):
    """A matrix is not in the normal form an operation requires."""


#: First row of the order-13 circulant block of the order-26 design.
EXAMPLE_26_CIRCULANT_ROW = (1, 1, 1, 1, -1, 1, -1, -1, 1, 1, 1, -1, 1)

#: First row of the order-11 circulant seed of the order-66 design.
EXAMPLE_66_CIRCULANT_ROW = (0, -1, 1, -1, -1, -1, 1, 1, 1, -1, 1)


class Tournament(Frozen):
    """A 0/1 tournament matrix: A + A^T = J - I, zero diagonal.

    The invariant is enforced at construction time, so any Tournament in
    circulation is valid.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: IntMatrix) -> None:
        if not matrix.is_square:
            raise ValueError(f"matrix is {matrix.rows}x{matrix.cols}, not square")
        n = matrix.rows
        entries = matrix.entries
        transposed = [v for j in range(n) for v in entries[j::n]]  # row-major, like entries
        # One pass in row-major order. A diagonal entry v always enters the
        # branch, since v + v != 1, and passes it iff v == 0.
        for k, v, w in zip(range(n * n), entries, transposed):
            if v + w != 1 or v not in (0, 1):
                i, j = divmod(k, n)
                if i != j:
                    raise ValueError(f"entries ({i},{j})/({j},{i}) do not orient exactly one arc")
                if v != 0:
                    raise ValueError("tournament diagonal must be zero")
        object.__setattr__(self, "matrix", matrix)

    @property
    def order(self) -> int:
        return self.matrix.rows


class BlockEwSpec(Frozen):
    """Two square blocks R1, R2 assembled as [[R1, R2], [-R2^T, R1^T]]."""

    __slots__ = ("r1_block", "r2_block")

    def __init__(self, r1_block: IntMatrix, r2_block: IntMatrix) -> None:
        if not (r1_block.is_square and r2_block.is_square and r1_block.rows == r2_block.rows):
            raise DimensionError("blocks must be square and of equal order")
        object.__setattr__(self, "r1_block", r1_block)
        object.__setattr__(self, "r2_block", r2_block)

    def assemble(self) -> IntMatrix:
        r1, r2 = self.r1_block, self.r2_block
        return block2x2(r1, r2, -(r2.transpose()), r1.transpose())


def bordered_rows(a: list[list[int]]) -> list[list[int]]:
    """The rows of skew_from_tournament's matrix, from the 0/1 rows of A."""
    rows = [[1] * (len(a) + 1)]
    for i, ai in enumerate(a):
        rows.append([-1] + [int(i == j) + v - a[j][i] for j, v in enumerate(ai)])
    return rows


def skew_from_tournament(t: Tournament) -> IntMatrix:
    """Bordered +-1 matrix of order n+1 from a tournament of order n.

    The first row is all ones, the first column below it all minus ones, and
    the trailing block is I + A - A^T. The result always satisfies
    S + S^T = 2I.
    """
    return IntMatrix.from_rows(bordered_rows(t.matrix.to_rows()))


def require_pm1_square(x: IntMatrix, caller: str) -> None:
    """The input check of the +-1 families: a square matrix of +-1 entries."""
    if not x.is_square:
        raise DimensionError(f"{caller} needs a square matrix")
    if not x.is_pm1:
        raise ValueError("entries must be +-1")


def is_skew_type(x: IntMatrix) -> bool:
    """True iff X + X^T = 2I: the diagonal is all ones and x_ij = -x_ji off it.

    The entries are compared with those of -X^T, whose diagonal is set to
    ones first, in one list comparison.
    """
    if not x.is_square:
        raise DimensionError("is_skew_type needs a square matrix")
    n = x.rows
    entries = x.entries
    negated = [-v for j in range(n) for v in entries[j::n]]  # -X^T, row-major
    negated[:: n + 1] = [1] * n
    return list(entries) == negated


def _require_skew(s: IntMatrix, caller: str) -> None:
    """The input check of tournament_from_skew and normalize_skew_to_border:
    a square +-1 matrix with S + S^T = 2I."""
    require_pm1_square(s, caller)
    if not is_skew_type(s):
        raise NormalizationError("input is not skew-type (S + S^T != 2I)")


def tournament_from_skew(s: IntMatrix) -> Tournament:
    """Inverse of skew_from_tournament; rejects anything not in that exact form.

    The input must be a +-1 matrix with S + S^T = 2I and an all-ones first
    row. The first column below the corner is then all minus ones, since
    s_i0 = -s_0i for i >= 1. Other normalizations are rejected rather than
    silently repaired (see normalize_skew_to_border).
    """
    _require_skew(s, "tournament_from_skew")
    if s.rows < 2:
        raise NormalizationError("input must have order at least 2")
    border, *rows = s.to_rows()
    if any(v != 1 for v in border):
        raise NormalizationError("first row must be all ones")
    a_rows = [
        [(m + 1 - 2 * int(i == j)) // 2 for j, m in enumerate(r[1:])]
        for i, r in enumerate(rows)
    ]
    return Tournament(IntMatrix.from_rows(a_rows))


def normalize_skew_to_border(s: IntMatrix) -> IntMatrix:
    """Conjugate a skew-type +-1 matrix by signs into the bordered form.

    Flipping row j and column j together (eps_j = s[0][j]) preserves
    skew-type and Smith normal form while making the first row all ones and
    the first column all minus ones, after which tournament_from_skew
    applies.
    """
    _require_skew(s, "normalize_skew_to_border")
    rows = s.to_rows()
    eps = rows[0]
    return IntMatrix.from_rows(
        [[ei * ej * v for ej, v in zip(eps, r)] for ei, r in zip(eps, rows)]
    )


def build_example_26() -> IntMatrix:
    """Order-26 two-block design from one order-13 circulant."""
    r = circulant(EXAMPLE_26_CIRCULANT_ROW)
    return BlockEwSpec(r, r).assemble()


def build_example_66() -> IntMatrix:
    """Order-66 two-block design from an order-11 circulant seed.

    The seed A satisfies A = -A^T and AA^T = 11I - J; the two order-33
    blocks are Kronecker combinations of A with 3x3 patterns.
    """
    a = circulant(EXAMPLE_66_CIRCULANT_ROW)
    n = a.rows
    i3 = IntMatrix.identity(3)
    j3 = IntMatrix.all_ones(3)
    i11 = IntMatrix.identity(n)
    j11 = IntMatrix.all_ones(n)
    r1 = kronecker(a + i11, j3 - i3) + kronecker(j11 - 2 * i11, i3)
    r2 = kronecker(a + i11, j3 - i3) + kronecker(-a + i11, i3)
    return BlockEwSpec(r1, r2).assemble()


def is_barba(r: IntMatrix) -> bool:
    """Whether RR^T = R^TR = (n-1)I + J (a +-1 matrix is required)."""
    require_pm1_square(r, "is_barba")
    n = r.rows
    ones = [1] * n
    rows = r.to_rows()
    for m in (rows, list(zip(*rows))):
        for i, g in enumerate(sign_gram(m)):
            g[i] -= n - 1  # row i of (n-1)I + J, less (n-1)I, is a row of J
            if g != ones:
                return False
    return True


def barba_double(r: IntMatrix) -> IntMatrix:
    """Double an odd-order +-1 matrix to [[R, R], [-R^T, R^T]] of order 2n."""
    require_pm1_square(r, "barba_double")
    return BlockEwSpec(r, r).assemble()
