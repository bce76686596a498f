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
from collections.abc import Iterable, Sequence

from . import kernels


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class PreconditionError(ValueError):
    """Hypotheses of a checker are not satisfied by the input."""


class InfeasibleSearchError(RuntimeError):
    """The candidate space exceeds the configured cap."""


class Frozen:
    """Base of the value classes that validate their fields.

    A subclass names its fields in ``__slots__``, checks its arguments in
    ``__init__`` and stores them with ``object.__setattr__``. Instances
    compare and hash by class and field values, refuse assignment and
    pickle by calling the class again, so an unpickled value passes the
    same checks.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class IntMatrix(Frozen):
    """Immutable dense matrix of arbitrary-precision integers, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]) -> None:
        rows, cols = operator.index(rows), operator.index(cols)
        if rows < 1 or cols < 1:
            raise DimensionError("matrix dimensions must be positive")
        ent = tuple(map(operator.index, entries))  # rejects 1.5 rather than truncating it
        if len(ent) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ent)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
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

    @property
    def is_pm1(self) -> bool:
        """True iff every entry is 1 or -1."""
        return set(self.entries) <= {1, -1}

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
    return kernels.bareiss_determinant(a.to_rows())[0]


def as_integer(name: str, value) -> int:
    """value as an int; like IntMatrix entries, 1.5 is refused rather than truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def trial_divide(n: int, bound: int | None = None) -> tuple[dict[int, int], int]:
    """Split n >= 1 into prime powers {p: e} and a cofactor c by trial division.

    Trial divisors f run while f * f is at most what is left of n, and stop
    early at ``bound`` when one is given. A leftover above 1 whose square
    root the divisors passed is prime and goes into the powers, so c is 1
    unless the bound stopped the loop. Then c >= bound**2 and c has no prime
    factor below the bound: it may be prime or composite.
    ``n == c * prod(p**e)`` always holds.
    """
    n = as_integer("n", n)
    if bound is not None:
        bound = as_integer("bound", bound)
    if n < 1:
        raise ValueError(f"trial division needs n >= 1, got {n}")
    powers: dict[int, int] = {}
    f = 2
    while f * f <= n:
        if bound is not None and f >= bound:
            return powers, n
        while n % f == 0:
            powers[f] = powers.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        powers[n] = 1
    return powers, 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1 by trial division (operands here are desk-scale)."""
    return trial_divide(n)[0]


def is_prime(n: int) -> bool:
    """True iff n is prime."""
    return n >= 2 and factorize(n) == {n: 1}


def rank_mod_p(a: IntMatrix, p: int) -> int:
    """Rank of a over GF(p); p must be prime."""
    p = as_integer("p", p)
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
    # Row i is the first row rotated right by i.
    return IntMatrix(n, n, [v for i in range(n) for v in row[n - i :] + row[: n - i]])


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
