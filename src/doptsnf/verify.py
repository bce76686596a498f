"""Recognition predicates and closed-form conformance checks.

The checkers in this module recognize the Gram block structure of the
design families, extract their structural parameters, and compare computed
Smith normal forms, ranks, determinants and adjugate entries against the
predicted closed forms.

Every checker fails closed: when an input does not satisfy a check's
hypotheses the checker raises PreconditionError instead of reporting a
pass (or a silently meaningless False).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .designs import Tournament, skew_from_tournament
from .exactmat import (
    DimensionError,
    IntMatrix,
    adjugate_and_det,
    determinant,
    is_prime,
    matmul,
    rank_mod_p,
)
from .snf import smith_normal_form


class PreconditionError(ValueError):
    """Hypotheses of a checker are not satisfied by the input."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PreconditionError(message)


# ---------------------------------------------------------------------------
# Gram block structure


@dataclass(frozen=True)
class EwReport:
    """Outcome of the Gram block-structure test.

    clique_partition_rows / clique_partition_cols are the two halves (as
    sorted index tuples) on which XX^T respectively X^TX take the
    (n-2)I + 2J block form up to simultaneous sign switches.
    row_block_sums recovers the pair (r1, r2) of block row sums when the
    rows have constant sums on each half; it is None otherwise.
    """

    verdict: bool
    order: int
    clique_partition_rows: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    clique_partition_cols: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    row_block_sums: Optional[tuple[int, int]] = None
    reason: str = ""


def _components(items: Sequence[int], related: Callable[[int, int], bool]) -> list[list[int]]:
    """Connected components of an undirected relation, each sorted."""
    parent = {i: i for i in items}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    items = list(items)
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            if related(items[a], items[b]):
                parent[find(items[a])] = find(items[b])
    comps: dict[int, list[int]] = {}
    for i in items:
        comps.setdefault(find(i), []).append(i)
    return sorted((sorted(c) for c in comps.values()), key=lambda c: c[0])


def _analyze_gram(g: IntMatrix, n: int):
    """Check one Gram matrix for the switching-consistent two-clique pattern.

    Returns (partition, signs, "") on success, (None, None, reason) on
    failure. signs is a +-1 vector making every within-clique entry +2
    after the switch g[i][j] -> signs[i]*signs[j]*g[i][j].
    """
    for i in range(n):
        if g.at(i, i) != n:
            return None, None, f"Gram diagonal entry {i} is {g.at(i, i)}, not {n}"
    for i in range(n):
        for j in range(i + 1, n):
            if abs(g.at(i, j)) not in (0, 2):
                return None, None, f"off-diagonal Gram entry ({i},{j}) = {g.at(i, j)}"
    blocks = _components(range(n), lambda i, j: abs(g.at(i, j)) == 2)
    if len(blocks) != 2 or any(len(b) != n // 2 for b in blocks):
        sizes = tuple(len(b) for b in blocks)
        return None, None, f"Gram 2-support components have sizes {sizes}, expected two halves"
    signs = [0] * n
    for block in blocks:
        root = block[0]
        signs[root] = 1
        for j in block[1:]:
            v = g.at(root, j)
            if abs(v) != 2:
                return None, None, f"Gram block is not a clique at ({root},{j})"
            signs[j] = v // 2
        for a in block:
            for b in block:
                if a < b and g.at(a, b) != 2 * signs[a] * signs[b]:
                    return None, None, f"Gram signs are not switching-consistent at ({a},{b})"
    return (tuple(blocks[0]), tuple(blocks[1])), tuple(signs), ""


def _block_row_sums(x: IntMatrix, partition) -> Optional[tuple[int, int]]:
    sums = x.row_sums()
    per_block = []
    for block in partition:
        vals = {sums[i] for i in block}
        if len(vals) != 1:
            return None
        per_block.append(vals.pop())
    u, v = abs(per_block[0]), abs(per_block[1])
    if (u + v) % 2 != 0:
        return None
    return (u + v) // 2, (u - v) // 2


def ew_gram_check(x: IntMatrix, strict: bool = False) -> EwReport:
    """Test whether XX^T and X^TX both take the two-block Gram form.

    The default test is permutation-free and sign-aware: off-diagonal
    entries of each Gram matrix must have absolute value 0 or 2, the
    magnitude-2 entries must form exactly two disjoint (n/2)-cliques, and
    the signs must be removable by simultaneous sign switches (designs
    are treated up to equivalence, so rows and columns may arrive negated).
    With strict=True both Gram matrices must literally equal
    blockdiag((n-2)I + 2J, (n-2)I + 2J): both analyses must find the halves
    range(n/2), range(n/2, n) and need no sign switch.
    """
    if not x.is_square:
        raise DimensionError("ew_gram_check needs a square matrix")
    if any(v not in (1, -1) for v in x.entries):
        raise ValueError("entries must be +-1")
    n = x.rows
    if n % 4 != 2:
        return EwReport(False, n, reason=f"order {n} is not 2 (mod 4)")
    rows_part, row_signs, why = _analyze_gram(matmul(x, x.transpose()), n)
    if rows_part is None:
        return EwReport(False, n, reason="rows: " + why)
    cols_part, col_signs, why = _analyze_gram(matmul(x.transpose(), x), n)
    if cols_part is None:
        return EwReport(False, n, reason="columns: " + why)
    if strict:
        halves = (tuple(range(n // 2)), tuple(range(n // 2, n)))
        if rows_part != halves or cols_part != halves or -1 in row_signs + col_signs:
            return EwReport(False, n, reason="Gram matrices differ from the literal block form")
    return EwReport(True, n, rows_part, cols_part, _block_row_sums(x, rows_part))


# ---------------------------------------------------------------------------
# Tournament structure


def degree_classes(a: Tournament) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Vertices grouped by out-degree (2t-1, 2t+1, 2t) for order 4t+1."""
    n = a.order
    if n % 4 != 1 or n < 5:
        raise PreconditionError(f"order {n} is not 4t+1 with t >= 1")
    t = n // 4
    sums = a.matrix.row_sums()
    low = tuple(i for i, s in enumerate(sums) if s == 2 * t - 1)
    high = tuple(i for i, s in enumerate(sums) if s == 2 * t + 1)
    mid = tuple(i for i, s in enumerate(sums) if s == 2 * t)
    if len(low) + len(high) + len(mid) != n:
        raise PreconditionError("out-degrees fall outside {2t-1, 2t, 2t+1}")
    return low, high, mid


def ew_tournament_check(a: Tournament) -> tuple[bool, Optional[int]]:
    """Verdict plus the extracted split parameter of a candidate tournament.

    The verdict is true exactly when the bordered matrix
    skew_from_tournament(a) passes ew_gram_check. On a true verdict the
    out-degree classes must have sizes (t, t, 2t+1), the product AA^T
    must match the class template, and the degree-2t class must split
    into two parts of sizes (a, 2t+1-a) with a solving
    a^2 - (2t+1)a + t(t-1) = 0; the smaller part size is returned.
    A true Gram verdict with a failed template is an internal
    contradiction and raises RuntimeError.
    """
    n = a.order
    if n % 4 != 1 or n < 5:
        return False, None
    if not ew_gram_check(skew_from_tournament(a)).verdict:
        return False, None
    t = n // 4
    try:
        low, high, mid = degree_classes(a)
    except PreconditionError as exc:
        raise RuntimeError(f"Gram verdict true but degree classes malformed: {exc}") from exc
    if (len(low), len(high), len(mid)) != (t, t, 2 * t + 1):
        raise RuntimeError(
            f"Gram verdict true but degree class sizes are {(len(low), len(high), len(mid))}"
        )
    g = matmul(a.matrix, a.matrix.transpose())
    cls = {}
    for i in low:
        cls[i] = "low"
    for i in high:
        cls[i] = "high"
    for i in mid:
        cls[i] = "mid"
    template = {
        ("low", "low"): t - 1,
        ("low", "high"): t - 1,
        ("high", "high"): t + 1,
        ("low", "mid"): t - 1,
        ("high", "mid"): t,
    }
    for i in range(n):
        for j in range(i + 1, n):
            pair = (cls[i], cls[j])
            if pair == ("mid", "mid"):
                if g.at(i, j) not in (t - 1, t):
                    raise RuntimeError(f"mid-class product entry ({i},{j}) = {g.at(i, j)}")
                continue
            value = template.get(pair, template.get((pair[1], pair[0])))
            if g.at(i, j) != value:
                raise RuntimeError(
                    f"product template fails at ({i},{j}): {g.at(i, j)} != {value}"
                )
    parts = _components(mid, lambda i, j: g.at(i, j) == t)
    for part in parts:
        for i in part:
            for j in part:
                if i < j and g.at(i, j) != t:
                    raise RuntimeError("degree-2t class does not split into two cliques")
    if len(parts) > 2:
        raise RuntimeError(f"degree-2t class splits into {len(parts)} parts")
    a_param = 0 if len(parts) == 1 else min(len(p) for p in parts)
    if a_param * a_param - (2 * t + 1) * a_param + t * (t - 1) != 0:
        raise RuntimeError(f"split size {a_param} fails the quadratic at t = {t}")
    return True, a_param


@dataclass(frozen=True)
class PRankReport:
    """Ranks of A and A+I over GF(p) against the predicted values."""

    t_param: int
    prime: int
    rank_a_plus_i: int
    rank_a: int
    expected_a_plus_i: int
    expected_a: int

    @property
    def passed(self) -> bool:
        return (self.rank_a_plus_i, self.rank_a) == (
            self.expected_a_plus_i,
            self.expected_a,
        )


def p_rank_report(a: Tournament, p: int) -> PRankReport:
    """Compute rank_p(A+I) and rank_p(A) for an EW tournament, p | t."""
    ok, _ = ew_tournament_check(a)
    _require(ok, "input is not an EW tournament")
    t = a.order // 4
    _require(is_prime(p), f"{p} is not prime")
    _require(t % p == 0, f"prime {p} does not divide t = {t}")
    aplusi = a.matrix + IntMatrix.identity(a.order)
    return PRankReport(
        t, p, rank_mod_p(aplusi, p), rank_mod_p(a.matrix, p), 2 * t + 1, 2 * t + 2
    )


# ---------------------------------------------------------------------------
# Predicted diagonals


def predicted_snf_skew_ew(t: int) -> tuple[int, ...]:
    """Invariant factors (1, 2^(2t+1), (2t)^(2t-1), 2t(4t+1)) of length 4t+2."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return (1,) + (2,) * (2 * t + 1) + (2 * t,) * (2 * t - 1) + (2 * t * (4 * t + 1),)


def predicted_snf_tournament(t: int) -> tuple[int, ...]:
    """Invariant factors (1^(2t+2), t^(2t-2), t^2(4t-1)) of length 4t+1."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return (1,) * (2 * t + 2) + (t,) * (2 * t - 2) + (t * t * (4 * t - 1),)


def _two_adic(n: int) -> tuple[int, int]:
    """n = 2^ell * q with q odd; returns (ell, q)."""
    ell = 0
    while n % 2 == 0:
        n //= 2
        ell += 1
    return ell, n


def _is_squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1
    return True


@dataclass(frozen=True)
class BlockSnfEvaluation:
    """Result of matching a computed diagonal against block-design constraints."""

    observed: tuple[int, ...]
    expected: tuple[int, ...]
    description: str

    @property
    def passed(self) -> bool:
        return self.observed == self.expected


@dataclass(frozen=True)
class BlockSnfConstraints:
    """Constraints on the invariant factors of a two-block design.

    For 4t+1 square-free (and coprime block row sums) the final two
    factors are pinned and the middle of the diagonal is restricted to a
    power pattern with counting identities; for 4t+1 = p^2 the gcd of the
    row sums selects one of two closed-form diagonals (complete when t is
    square-free).
    """

    t_param: int
    r1: int
    r2: int
    gcd_r: int
    ell: int
    q: int
    case: str
    p: Optional[int] = None
    full_prediction: Optional[tuple[int, ...]] = None

    def evaluate(self, factors: Sequence[int]) -> BlockSnfEvaluation:
        t = self.t_param
        n = 4 * t + 2
        facs = tuple(int(f) for f in factors)
        if len(facs) != n:
            return BlockSnfEvaluation((len(facs),), (n,), "factor count")
        if self.full_prediction is not None:
            return BlockSnfEvaluation(
                facs, self.full_prediction, "complete closed-form diagonal"
            )
        if self.case == "prime-square":
            # Without square-free t only the leading factors are pinned.
            return BlockSnfEvaluation(
                facs[:2], (1, 2), "leading factors only (t is not square-free)"
            )
        allowed_head = {2 ** j for j in range(1, self.ell + 2)}
        allowed_tail = {v * self.q for v in allowed_head}
        head = facs[1 : 2 * t + 2]
        tail = facs[2 * t + 2 : 4 * t]
        observed = (
            facs[0],
            facs[4 * t],
            facs[4 * t + 1],
            sum(1 for v in head if v in allowed_head),
            sum(1 for v in tail if v in allowed_tail),
            sum(_two_adic(v)[0] for v in facs[1 : 4 * t]),
        )
        expected = (
            1,
            2 * t,
            2 * t * (4 * t + 1),
            2 * t + 1,
            2 * t - 2,
            3 + 2 * (self.ell + 2) * (t - 1),
        )
        return BlockSnfEvaluation(
            observed, expected, "tail factors, power patterns and counting identities"
        )


def predicted_block_snf(t: int, r1: int, r2: int) -> BlockSnfConstraints:
    """Constraint record for the invariant factors of a two-block design.

    Requires both block row sums odd with r1^2 + r2^2 = 8t+2, and 4t+1
    either square-free or the square of a prime; anything else raises
    PreconditionError.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if r1 % 2 == 0 or r2 % 2 == 0:
        raise PreconditionError(f"block row sums ({r1}, {r2}) must both be odd")
    if r1 * r1 + r2 * r2 != 8 * t + 2:
        raise PreconditionError(
            f"r1^2 + r2^2 = {r1 * r1 + r2 * r2}, expected 8t+2 = {8 * t + 2}"
        )
    m = 4 * t + 1
    ell, q = _two_adic(t)
    g = math.gcd(abs(r1), abs(r2))
    root = math.isqrt(m)
    if root * root == m and is_prime(root):
        p = root
        _require(g in (1, p), f"gcd(r1, r2) = {g}, expected 1 or {p}")
        full = None
        if _is_squarefree(t):
            if g == 1:
                full = predicted_snf_skew_ew(t)
            else:
                full = (
                    (1,)
                    + (2,) * (2 * t + 1)
                    + (2 * t,) * (2 * t - 2)
                    + (2 * t * p, 2 * t * p)
                )
        return BlockSnfConstraints(t, r1, r2, g, ell, q, "prime-square", p, full)
    if _is_squarefree(m):
        _require(g == 1, f"gcd(r1, r2) = {g}; the square-free case needs coprime row sums")
        return BlockSnfConstraints(t, r1, r2, g, ell, q, "squarefree")
    raise PreconditionError(f"4t+1 = {m} is neither square-free nor the square of a prime")


# ---------------------------------------------------------------------------
# Theorem conformance


@dataclass(frozen=True)
class TheoremCheck:
    """Computed-versus-predicted tuples for one named claim; it passes iff they agree."""

    claim_id: str
    computed: tuple
    predicted: tuple
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.computed == self.predicted


def is_skew_type(x: IntMatrix) -> bool:
    """True iff X + X^T = 2I."""
    if not x.is_square:
        raise DimensionError("is_skew_type needs a square matrix")
    return x + x.transpose() == 2 * IntMatrix.identity(x.rows)


def _skew_ew_t(x: IntMatrix) -> int:
    rep = ew_gram_check(x)
    _require(rep.verdict, f"input lacks the EW Gram structure ({rep.reason})")
    _require(is_skew_type(x), "input is not skew-type")
    return (x.rows - 2) // 4


def scaled_inverse_check(s: IntMatrix) -> TheoremCheck:
    """Adjugate entry analysis for a skew-type EW matrix.

    Checks that every adjugate entry magnitude lies in
    2(4t)^(2t-1) * {4t, 4t+2, 4t+1-sqrt(8t+1), 4t+1+sqrt(8t+1)}, that the
    gcd of all entries is 4(4t)^(2t-1), and that the final invariant
    factor equals det/gcd = 2t(4t+1). computed/predicted carry
    (gcd, last factor, number of out-of-set entries).
    """
    t = _skew_ew_t(s)
    disc = 8 * t + 1
    root = math.isqrt(disc)
    _require(root * root == disc, f"8t+1 = {disc} is not a perfect square")
    base = 2 * (4 * t) ** (2 * t - 1)
    allowed = {
        base * 4 * t,
        base * (4 * t + 2),
        base * (4 * t + 1 - root),
        base * (4 * t + 1 + root),
    }
    adj, det = adjugate_and_det(s)
    bad = sum(1 for v in adj.entries if abs(v) not in allowed)
    g = 0
    for v in adj.entries:
        g = math.gcd(g, v)
    last = smith_normal_form(s).factors[-1]
    seen = sorted({abs(v) // base for v in adj.entries if abs(v) % base == 0})
    return TheoremCheck(
        "scaled-inverse",
        (g, last, bad),
        (4 * (4 * t) ** (2 * t - 1), 2 * t * (4 * t + 1), 0),
        f"det = {det}; |entry|/(2(4t)^(2t-1)) values seen: {seen}",
    )


def normalized_block_row_sums(s: IntMatrix) -> tuple[int, int, int, int]:
    """Block row sums (d11, d22, d12, d21) of a normalized skew-type EW matrix.

    Rows and columns are conjugated by the same signed permutation so the
    Gram cliques become the natural halves with every within-clique Gram
    entry +2; the four returned values are the common row sums of the
    matrix blocks afterwards. The diagonal blocks sum to 1 per row and
    the off-diagonal blocks to opposite values +-sqrt(8t+1); which block
    carries which sign is not canonical, so callers should accept either
    assignment.
    """
    _require(is_skew_type(s), "input is not skew-type")
    if any(v not in (1, -1) for v in s.entries):
        raise PreconditionError("entries must be +-1")
    n = s.rows
    g = matmul(s, s.transpose())
    part, signs, why = _analyze_gram(g, n)
    _require(part is not None, f"input lacks the EW Gram structure ({why})")
    order = list(part[0]) + list(part[1])
    m = [[signs[i] * signs[j] * s.at(i, j) for j in order] for i in order]
    h = n // 2

    def common_sum(rows, cols) -> int:
        vals = {sum(m[i][j] for j in cols) for i in rows}
        _require(len(vals) == 1, "block row sums are not constant")
        return vals.pop()

    d11 = common_sum(range(h), range(h))
    d12 = common_sum(range(h), range(h, n))
    d21 = common_sum(range(h, n), range(h))
    d22 = common_sum(range(h, n), range(h, n))
    return d11, d22, d12, d21


def a2a_check(a: Tournament) -> TheoremCheck:
    """Last two invariant factors of A^2 + A against (t, t^2(16t^2-1))."""
    ok, _ = ew_tournament_check(a)
    _require(ok, "input is not an EW tournament")
    t = a.order // 4
    m = matmul(a.matrix, a.matrix) + a.matrix
    facs = smith_normal_form(m).factors
    return TheoremCheck("a2a-tail", facs[-2:], (t, t * t * (16 * t * t - 1)))


@dataclass(frozen=True)
class ExistenceReport:
    """Necessary-condition filter for orders 4t+2.

    Truthiness follows has_square_discriminant (8t+1 a perfect square,
    required for the skew-type family); has_two_square_norm reports the
    companion condition that 8t+2 is a sum of two squares (required for
    any design of this order).
    """

    t_param: int
    has_square_discriminant: bool
    has_two_square_norm: bool

    def __bool__(self) -> bool:
        return self.has_square_discriminant


def existence_filter(t: int) -> ExistenceReport:
    if t < 1:
        raise ValueError("t must be >= 1")
    disc = 8 * t + 1
    root = math.isqrt(disc)
    norm = 8 * t + 2
    two_sq = any(
        math.isqrt(norm - a * a) ** 2 == norm - a * a
        for a in range(math.isqrt(norm) + 1)
    )
    return ExistenceReport(t, root * root == disc, two_sq)


def block_determinant_formula(alpha: int, beta: int, gamma: int, a: int, b: int) -> int:
    """det of [[alpha*I + beta*J, gamma*J], [gamma*J, alpha*I + beta*J]].

    The diagonal blocks have orders a and b; the closed form is
    alpha^(a+b-2) * (alpha^2 + (a+b)alpha*beta + ab(beta^2 - gamma^2)).
    """
    if a < 1 or b < 1:
        raise ValueError("block sizes must be positive")
    return alpha ** (a + b - 2) * (
        alpha * alpha + (a + b) * alpha * beta + a * b * (beta * beta - gamma * gamma)
    )


def _as_ew_tournament(x: IntMatrix) -> Tournament:
    try:
        a = Tournament(x)
    except ValueError as exc:
        raise PreconditionError(f"not a tournament matrix: {exc}") from exc
    ok, _ = ew_tournament_check(a)
    _require(ok, "not an EW tournament")
    return a


def _skew_claim(
    claim_id: str, part: Callable[[int], slice]
) -> Callable[[IntMatrix], TheoremCheck]:
    """Claim on the slice part(t) of the skew-type diagonal predicted_snf_skew_ew(t)."""

    def check(x: IntMatrix) -> TheoremCheck:
        t = _skew_ew_t(x)
        cut = part(t)
        return TheoremCheck(
            claim_id, smith_normal_form(x).factors[cut], predicted_snf_skew_ew(t)[cut]
        )

    return check


def _claim_ew_head(x: IntMatrix) -> TheoremCheck:
    rep = ew_gram_check(x)
    _require(rep.verdict, f"input lacks the EW Gram structure ({rep.reason})")
    facs = smith_normal_form(x).factors
    return TheoremCheck("ew-head", facs[:2], (1, 2))


def _claim_border_link(x: IntMatrix) -> TheoremCheck:
    a = _as_ew_tournament(x)
    t = a.order // 4
    aplusi = a.matrix + IntMatrix.identity(a.order)
    sf = smith_normal_form(skew_from_tournament(a)).factors
    bf = smith_normal_form(aplusi).factors
    computed = sf + (determinant(aplusi),)
    predicted = (1,) + tuple(2 * b for b in bf) + (t ** (2 * t) * (4 * t + 1),)
    return TheoremCheck("border-link", computed, predicted, "bordered factors, then det(A+I)")


def _claim_aplusi_head(x: IntMatrix) -> TheoremCheck:
    a = _as_ew_tournament(x)
    t = a.order // 4
    bf = smith_normal_form(a.matrix + IntMatrix.identity(a.order)).factors
    return TheoremCheck("aplusi-head", (bf[2 * t],), (1,))


def _claim_tournament_snf(x: IntMatrix) -> TheoremCheck:
    a = _as_ew_tournament(x)
    t = a.order // 4
    return TheoremCheck(
        "tournament-snf", smith_normal_form(a.matrix).factors, predicted_snf_tournament(t)
    )


def _block_claim(case: str) -> Callable[[IntMatrix], TheoremCheck]:
    """Claim "block-<case>": the predicted_block_snf constraints of that case."""

    def check(x: IntMatrix) -> TheoremCheck:
        rep = ew_gram_check(x)
        _require(rep.verdict, f"input lacks the EW Gram structure ({rep.reason})")
        _require(
            rep.row_block_sums is not None,
            "rows do not have constant block sums; cannot recover (r1, r2)",
        )
        r1, r2 = rep.row_block_sums
        constraints = predicted_block_snf((x.rows - 2) // 4, r1, r2)
        _require(
            constraints.case == case,
            f"claim applies to the {case} case, input is {constraints.case}",
        )
        ev = constraints.evaluate(smith_normal_form(x).factors)
        return TheoremCheck(f"block-{case}", ev.observed, ev.expected, ev.description)

    return check


#: Claim id -> (one-line description, checker); the `check` CLI lists these.
CLAIMS: dict[str, tuple[str, Callable[[IntMatrix], TheoremCheck]]] = {
    "main": (
        "full invariant-factor diagonal of a skew-type EW matrix",
        _skew_claim("main", lambda t: slice(None)),
    ),
    "skew-head": (
        "leading factors (1, 2^(2t+1)) of a skew-type EW matrix",
        _skew_claim("skew-head", lambda t: slice(2 * t + 2)),
    ),
    "skew-last": (
        "final invariant factor 2t(4t+1) of a skew-type EW matrix",
        _skew_claim("skew-last", lambda t: slice(-1, None)),
    ),
    "ew-head": ("first two invariant factors (1, 2) of any EW matrix", _claim_ew_head),
    "border-link": (
        "bordering doubles the invariant factors of A+I; det(A+I) = t^2t(4t+1)",
        _claim_border_link,
    ),
    "aplusi-head": ("invariant factor number 2t+1 of A+I equals 1", _claim_aplusi_head),
    "tournament-snf": (
        "full invariant-factor diagonal of an EW tournament matrix",
        _claim_tournament_snf,
    ),
    "a2a-tail": (
        "last two invariant factors of A^2+A are (t, t^2(16t^2-1))",
        lambda x: a2a_check(_as_ew_tournament(x)),
    ),
    "block-squarefree": (
        "two-block design constraints when 4t+1 is square-free",
        _block_claim("squarefree"),
    ),
    "block-prime-square": (
        "two-block design diagonal when 4t+1 is a prime square",
        _block_claim("prime-square"),
    ),
    "scaled-inverse": (
        "adjugate entry set, gcd, and final factor of a skew-type EW matrix",
        scaled_inverse_check,
    ),
}


def theorem_conformance(x: IntMatrix, claim: str) -> TheoremCheck:
    """Check one named closed-form claim against a concrete matrix.

    Raises ValueError for an unknown claim id and PreconditionError when
    the matrix does not belong to the family the claim concerns.
    """
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; known claims: {', '.join(sorted(CLAIMS))}")
    return CLAIMS[claim][1](x)
