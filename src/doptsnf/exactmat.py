"""Dense integer matrices with exact arbitrary-precision arithmetic.

Everything runs on Python ints: determinants like 2*65*64**32 come out
exact, and nothing overflows silently. ``IntMatrix`` is an immutable value
object — operations return fresh matrices, so instances can be shared
freely across threads and processes.

This module also owns the text format shared by all command-line tools:

    # optional comment lines
    <rows> <cols>
    a11 a12 ... a1n
    ...

Entries are space-separated ASCII decimal integers of any magnitude; lines
starting with ``#`` are comments and trailing whitespace is ignored.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import kernels


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class SingularMatrixError(ValueError):
    """A nonsingular matrix was required."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense matrix of arbitrary-precision integers, row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise DimensionError("matrix dimensions must be positive")
        ent = tuple(map(operator.index, self.entries))  # rejects 1.5 rather than truncating it
        if len(ent) != self.rows * self.cols:
            raise ValueError(f"expected {self.rows * self.cols} entries, got {len(ent)}")
        object.__setattr__(self, "entries", ent)

    # ---------- constructors ----------

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        mat = [list(r) for r in rows]
        if not mat:
            raise DimensionError("matrix needs at least one row")
        width = len(mat[0])
        if any(len(r) != width for r in mat):
            raise DimensionError("ragged rows")
        return cls(len(mat), width, tuple(v for r in mat for v in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "IntMatrix":
        cols = rows if cols is None else cols
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def all_ones(cls, rows: int, cols: int | None = None) -> "IntMatrix":
        """The all-ones matrix J."""
        cols = rows if cols is None else cols
        return cls(rows, cols, (1,) * (rows * cols))

    # ---------- element access ----------

    def at(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        e = self.entries
        return [list(e[i * c : (i + 1) * c]) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # ---------- shape-preserving operations ----------

    def transpose(self) -> "IntMatrix":
        e = self.entries
        c = self.cols
        return IntMatrix(
            c, self.rows, tuple(e[i * c + j] for j in range(c) for i in range(self.rows))
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        rows = [[self.at(i, j) for j in col_idx] for i in row_idx]
        return IntMatrix.from_rows(rows)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(self.row(i)) for i in range(self.rows))

    # ---------- arithmetic ----------

    def _require_same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._require_same_shape(other)
        return IntMatrix(
            self.rows, self.cols, tuple(x + y for x, y in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._require_same_shape(other)
        return IntMatrix(
            self.rows, self.cols, tuple(x - y for x, y in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-x for x in self.entries))

    def __rmul__(self, k: int) -> "IntMatrix":
        if not isinstance(k, int):
            return NotImplemented
        return IntMatrix(self.rows, self.cols, tuple(k * x for x in self.entries))

    __mul__ = __rmul__

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return matmul(self, other)

    def __repr__(self) -> str:  # keep 66x66 values out of tracebacks
        head = ", ".join(str(v) for v in self.entries[:6])
        tail = ", ..." if len(self.entries) > 6 else ""
        return f"IntMatrix({self.rows}x{self.cols}: {head}{tail})"

    def __str__(self) -> str:
        return format_matrix(self)


# ---------- core operations ----------


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product."""
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return IntMatrix.from_rows(kernels.matmul(a.to_rows(), b.to_rows()))


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not a.is_square:
        raise DimensionError("determinant needs a square matrix")
    return kernels.bareiss_determinant(a.to_rows())


def adjugate_and_det(a: IntMatrix) -> tuple[IntMatrix, int]:
    """Adjugate matrix together with the determinant.

    Computed by fraction-free Gauss-Jordan elimination on [A | I] in O(n^3)
    big-int operations; satisfies a @ adj == det * I exactly.
    """
    if not a.is_square:
        raise DimensionError("adjugate needs a square matrix")
    adj, det = kernels.adjugate(a.to_rows())
    if adj is None:
        raise SingularMatrixError("matrix is singular")
    return IntMatrix.from_rows(adj), det


def is_prime(n: int) -> bool:
    """Trial-division primality test (operands here are desk-scale)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def rank_mod_p(a: IntMatrix, p: int) -> int:
    """Rank of a over GF(p); p must be prime."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return kernels.gf_rank(a.to_rows(), p)


# ---------- structured constructors ----------


def circulant(first_row: Sequence[int]) -> IntMatrix:
    """Circulant matrix: each row is the cyclic right-shift of the previous.

    Entry (i, j) is first_row[(j - i) mod n], so circulant((0, 1, 0)) is the
    directed 3-cycle.
    """
    row = tuple(first_row)  # IntMatrix refuses non-integral entries
    n = len(row)
    if n == 0:
        raise DimensionError("circulant needs a nonempty first row")
    return IntMatrix.from_rows([[row[(j - i) % n] for j in range(n)] for i in range(n)])


def kronecker(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product a (x) b."""
    out = []
    for i in range(a.rows):
        arow = a.row(i)
        for k in range(b.rows):
            brow = b.row(k)
            out.append([x * y for x in arow for y in brow])
    return IntMatrix.from_rows(out)


def block2x2(a11: IntMatrix, a12: IntMatrix, a21: IntMatrix, a22: IntMatrix) -> IntMatrix:
    """Assemble [[a11, a12], [a21, a22]]; blocks must conform."""
    if a11.rows != a12.rows or a21.rows != a22.rows:
        raise DimensionError("row counts of horizontal neighbors differ")
    if a11.cols != a21.cols or a12.cols != a22.cols:
        raise DimensionError("column counts of vertical neighbors differ")
    out = []
    for i in range(a11.rows):
        out.append(list(a11.row(i)) + list(a12.row(i)))
    for i in range(a21.rows):
        out.append(list(a21.row(i)) + list(a22.row(i)))
    return IntMatrix.from_rows(out)


# ---------- shared text format ----------


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def parse_int(token: str) -> int:
    """An ASCII decimal integer; unlike int(), refuses '1_000' and non-ASCII digits."""
    if not _DECIMAL.fullmatch(token):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def parse_matrix(text: str) -> IntMatrix:
    """Parse the shared text format; raises ValueError on any malformation."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    data = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not data:
        raise ValueError("empty matrix text")
    header = data[0].split()
    if len(header) != 2:
        raise ValueError(f"header must be '<rows> <cols>', got {data[0]!r}")
    try:
        rows, cols = parse_int(header[0]), parse_int(header[1])
    except ValueError as exc:
        raise ValueError(f"bad header {data[0]!r}") from exc
    if rows < 1 or cols < 1:
        raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
    body = data[1:]
    if len(body) != rows:
        raise ValueError(f"expected {rows} data rows, found {len(body)}")
    out = []
    for lineno, ln in enumerate(body, start=1):
        toks = ln.split()
        if len(toks) != cols:
            raise ValueError(f"row {lineno}: expected {cols} entries, found {len(toks)}")
        try:
            out.append([parse_int(t) for t in toks])
        except ValueError as exc:
            raise ValueError(f"row {lineno}: non-integer token") from exc
    return IntMatrix.from_rows(out)


def format_matrix(m: IntMatrix, comments: Sequence[str] = ()) -> str:
    """Render a matrix in the shared text format (inverse of parse_matrix)."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{m.rows} {m.cols}")
    for i in range(m.rows):
        lines.append(" ".join(str(v) for v in m.row(i)))
    return "\n".join(lines) + "\n"
