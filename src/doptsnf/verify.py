"""Recognition predicates and closed-form conformance checks.

The checkers in this module recognize the Gram block structure of the
design families, extract their structural parameters, and compare computed
Smith normal forms, ranks, determinants and adjugate entries against the
predicted closed forms.

Every checker fails closed: when an input does not satisfy a check's
hypotheses the checker raises PreconditionError instead of reporting a
pass (or a silently meaningless False). Each claim family has one input
check, which raises each of its refusals from one place: _ew_input for
EW matrices (skew-type ones pass the skew-type test first) and
_ew_tournament for EW tournaments (which p_rank_report also runs).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

from .designs import Tournament, bordered_rows, is_skew_type, require_pm1_square
from .exactmat import (
    IntMatrix,
    PreconditionError,
    determinant,
    factorize,
    matmul,
    rank_mod_p,
)
from .kernels import _components, _mask_gram, sign_gram, smith_reduce
from .snf import smith_normal_form


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PreconditionError(message)


# ---------------------------------------------------------------------------
# Gram block structure


class EwReport(NamedTuple):
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


def _analyze_gram(g: list[list[int]], n: int):
    """Check one Gram matrix, as symmetric row lists, for the
    switching-consistent two-clique pattern.

    Returns (partition, signs, "") on success, (None, None, reason) on
    failure. signs is a +-1 vector making every within-clique entry +2
    after the switch g[i][j] -> signs[i]*signs[j]*g[i][j]. g is a +-1 Gram
    (sign_gram or _mask_gram output), so its diagonal is n. The halves are
    the components of the graph of nonzero entries, all +-2 by then; each,
    rooted at its least row r, is no clique at the first (r, j) whose entry
    is 0, and its signs, read off row r, clash at the first later (i, j), in
    row-major order, with 2 g_ij != g_ri g_rj.
    """
    for i in range(n):
        for j in range(i + 1, n):
            if abs(g[i][j]) not in (0, 2):
                return None, None, f"off-diagonal Gram entry ({i},{j}) = {g[i][j]}"
    blocks = _components(n, lambda i, rest: list(map(g[i].__getitem__, rest)))
    if len(blocks) != 2 or any(len(b) != n // 2 for b in blocks):
        sizes = tuple(len(b) for b in blocks)
        return None, None, f"Gram 2-support components have sizes {sizes}, expected two halves"
    signs = [0] * n
    for block in blocks:
        r = block[0]
        head = g[r]
        for j in block:
            if not head[j]:
                return None, None, f"Gram block is not a clique at ({r},{j})"
        for p, i in enumerate(block[1:], 2):
            gi, hi = g[i], head[i]
            for j in block[p:]:
                if 2 * gi[j] != hi * head[j]:
                    return None, None, f"Gram signs are not switching-consistent at ({i},{j})"
        for j in block:
            signs[j] = 1 if head[j] > 0 else -1
    return (tuple(blocks[0]), tuple(blocks[1])), tuple(signs), ""


def _row_analysis(x: IntMatrix):
    """(rows, halves, signs, reason) of the row Gram analysis of a +-1
    square x; reason is "" when the rows pass, and names the failure else."""
    n = x.rows
    if n % 4 != 2:
        return None, None, None, f"order {n} is not 2 (mod 4)"
    rows = x.to_rows()
    halves, signs, why = _analyze_gram(sign_gram(rows), n)
    return rows, halves, signs, why and "rows: " + why


def _block_row_sums(x: IntMatrix, partition) -> Optional[tuple[int, int]]:
    sums = x.row_sums()
    per_block = []
    for block in partition:
        vals = {sums[i] for i in block}
        if len(vals) != 1:
            return None
        per_block.append(vals.pop())
    # Rows of even length sum to even values, so (u + v) / 2 is exact.
    u, v = abs(per_block[0]), abs(per_block[1])
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

    By the equality case of the Ehlich-Wojtas bound (Ehlich, Math. Z. 83,
    1964; Wojtas, Colloq. Math. 12, 1964), X attains the bound iff XX^T
    has the two-clique form, and det X^TX = det XX^T, so the two default
    analyses always agree: columns that fail after the rows passed would
    contradict it and raise RuntimeError, so a report's reason always comes
    from the rows. The columns are analysed here for clique_partition_cols
    and strict mode only; no claim builds X^TX (see _ew_input).
    """
    require_pm1_square(x, "ew_gram_check")
    n = x.rows
    rows, rows_part, row_signs, why = _row_analysis(x)
    if why:
        return EwReport(False, n, reason=why)
    cols_part, col_signs, why = _analyze_gram(sign_gram(list(zip(*rows))), n)
    if cols_part is None:
        raise RuntimeError(f"rows pass the Gram analysis but columns fail it: {why}")
    if strict:
        halves = (tuple(range(n // 2)), tuple(range(n // 2, n)))
        if rows_part != halves or cols_part != halves or -1 in row_signs + col_signs:
            return EwReport(False, n, reason="Gram matrices differ from the literal block form")
    return EwReport(True, n, rows_part, cols_part, _block_row_sums(x, rows_part))


# ---------------------------------------------------------------------------
# Tournament structure


def ew_degree_template(t: int) -> list[int]:
    """The sorted out-degrees [2t-1]^t + [2t]^(2t+1) + [2t+1]^t of an EW
    tournament of order 4t+1 (see ew_tournament_check)."""
    return [2 * t - 1] * t + [2 * t] * (2 * t + 1) + [2 * t + 1] * t


def ew_tournament_check(a: Tournament) -> tuple[bool, Optional[int]]:
    """Verdict plus the extracted split parameter of a candidate tournament.

    The verdict is true exactly when the bordered matrix
    S = skew_from_tournament(a), of order n + 1 = 4t + 2, passes
    ew_gram_check. Row i+1 of S meets the all-ones border row in
    2d_i - 4t, where d_i is the out-degree of vertex i; that entry must be
    0 for the 2t+1 rows outside the border row's half and +-2 for the
    other 2t rows of that half, and the out-degrees sum to 2t(4t+1). So
    an EW tournament has the out-degrees {2t-1}^t, {2t}^(2t+1),
    {2t+1}^t, and the Gram verdict itself rejects any other profile.
    Two identities let one row Gram analysis of S decide the rest:

    1. By the equality case of the Ehlich-Wojtas bound (see
       ew_gram_check), the rows of S pass iff its columns do, so the row
       verdict alone is ew_gram_check(S).verdict.
    2. For i != j, (SS^T)_{i+1,j+1} = 4(AA^T)_ij - 2d_i - 2d_j + 4t + 2.
       The rows i+1 with d_i = 2t are the half of S's rows without the
       border row, and the row verdict's blocks and signs fix every other
       entry of AA^T. Within that half (AA^T)_ij is t where the switching
       signs of rows i+1 and j+1 agree and t - 1 where they differ.

    The smaller sign class has size a, which must solve
    a^2 - (2t+1)a + t(t-1) = 0 (that does not follow from the identities);
    a true Gram verdict with any other a raises RuntimeError. Returns
    (verdict, a), with a None on a false verdict; _ew_split does the work,
    on the columns of A packed as bitmasks.
    """
    n = a.order
    entries = a.matrix.entries
    a_param = _ew_split([sum(v << j for j, v in enumerate(entries[i::n])) for i in range(n)])
    return a_param is not None, a_param


def _ew_split(beaten_by: list[int]) -> Optional[int]:
    """ew_tournament_check's split parameter a, or None on a false verdict,
    for a tournament of order n given by one bitmask per vertex:
    beaten_by[i] has bit j set iff j -> i (not validated: callers build them).

    Vertex i has out-degree n - 1 - popcount(beaten_by[i]). Row i+1 of the
    bordered matrix S is -1 in column 0 and in column j+1 iff j -> i, so
    its -1 mask, column c at bit c, is 1 | beaten_by[i] << 1; the all-ones
    border row has mask 0. SS^T is built from these n + 1 masks by
    popcounts, with no list row. The out-degrees are not tested: the
    border row's Gram entries fix them (see ew_tournament_check).
    """
    n = len(beaten_by)
    if n % 4 != 1 or n < 5:
        return None
    t = n // 4
    masks = [0] + [1 | b << 1 for b in beaten_by]
    part, signs, _ = _analyze_gram(_mask_gram(masks, n + 1), n + 1)
    if part is None:
        return None
    plus = sum(signs[i] == 1 for i in part[1])  # halves are sorted by least index, 0 in the first
    a_param = min(plus, 2 * t + 1 - plus)
    if a_param * a_param - (2 * t + 1) * a_param + t * (t - 1) != 0:
        raise RuntimeError(f"split size {a_param} fails the quadratic at t = {t}")
    return a_param


class PRankReport(NamedTuple):
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
    t, aplusi = _ew_tournament(a.matrix)
    _require(p in factorize(t), f"{p} is not a prime divisor of t = {t}")
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


class TheoremCheck(NamedTuple):
    """Computed-versus-predicted tuples for one named claim; it passes iff they agree."""

    claim_id: str
    computed: tuple
    predicted: tuple
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.computed == self.predicted


class BlockSnfConstraints(NamedTuple):
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

    def evaluate(self, factors: Sequence[int]) -> TheoremCheck:
        """Claim "block-<case>": computed against predicted parts of the diagonal."""
        claim = f"block-{self.case}"
        t = self.t_param
        n = 4 * t + 2
        facs = tuple(int(f) for f in factors)
        if len(facs) != n:
            return TheoremCheck(claim, (len(facs),), (n,), "factor count")
        if self.full_prediction is not None:
            return TheoremCheck(claim, facs, self.full_prediction, "complete closed-form diagonal")
        if self.case == "prime-square":
            # Without square-free t only the leading factors are pinned.
            return TheoremCheck(claim, facs[:2], (1, 2), "leading factors only (t is not square-free)")
        allowed_head = {2 ** j for j in range(1, self.ell + 2)}
        allowed_tail = {v * self.q for v in allowed_head}
        head = facs[1 : 2 * t + 2]
        tail = facs[2 * t + 2 : 4 * t]
        computed = (
            facs[0],
            facs[4 * t],
            facs[4 * t + 1],
            sum(1 for v in head if v in allowed_head),
            sum(1 for v in tail if v in allowed_tail),
            sum((v & -v).bit_length() - 1 for v in facs[1 : 4 * t]),  # 2-adic valuations
        )
        predicted = (
            1,
            2 * t,
            2 * t * (4 * t + 1),
            2 * t + 1,
            2 * t - 2,
            3 + 2 * (self.ell + 2) * (t - 1),
        )
        return TheoremCheck(
            claim, computed, predicted, "tail factors, power patterns and counting identities"
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
    t_powers = factorize(t)
    ell = t_powers.get(2, 0)
    q = t >> ell
    g = math.gcd(abs(r1), abs(r2))
    m_powers = factorize(m)
    if list(m_powers.values()) == [2]:
        (p,) = m_powers
        _require(g in (1, p), f"gcd(r1, r2) = {g}, expected 1 or {p}")
        full = None
        if max(t_powers.values(), default=1) == 1:  # t square-free
            full = predicted_snf_skew_ew(t)
            if g == p:
                full = full[:-2] + (2 * t * p, 2 * t * p)
        return BlockSnfConstraints(t, r1, r2, g, ell, q, "prime-square", p, full)
    if max(m_powers.values()) == 1:
        _require(g == 1, f"gcd(r1, r2) = {g}; the square-free case needs coprime row sums")
        return BlockSnfConstraints(t, r1, r2, g, ell, q, "squarefree")
    raise PreconditionError(f"4t+1 = {m} is neither square-free nor the square of a prime")


# ---------------------------------------------------------------------------
# Theorem conformance


def _ew_abs_det(n: int) -> int:
    """|det X| of an EW matrix X of order n, once its Gram check has passed:
    XX^T = D((n-2)I + 2K)D (see _ew_input), and (n-2)I + 2K has eigenvalues
    2n-2 (twice) and n-2 (n-2 times), so |det X| = (n-2)^(n/2-1) (2n-2)."""
    return (n - 2) ** (n // 2 - 1) * (2 * n - 2)


def _claim_t(n: int) -> int:
    """t = (n-2)/4 of a claim's EW input of order n; the claims need t >= 1."""
    _require(n >= 6, f"the claim needs t >= 1; order {n} gives t = 0")
    return (n - 2) // 4


def _ew_input(x: IntMatrix, name: str, skew: bool = False):
    """(rows, halves, signs) of an EW matrix x: the one input check of the
    EW claims, whose +-1 square check names the caller.

    With skew=True the O(n^2) skew-type test x + x^T = 2I runs next,
    before any Gram product. Then the row Gram analysis decides alone: by
    the equality case (see ew_gram_check) the rows pass iff the columns
    do, so no caller builds X^TX. XX^T = D((n-2)I + 2K)D with
    D = diag(signs) and K_ij = 1 iff i and j lie in the same half.
    """
    require_pm1_square(x, name)
    _require(not skew or is_skew_type(x), "input is not skew-type")
    rows, halves, signs, why = _row_analysis(x)
    _require(not why, f"input lacks the EW Gram structure ({why})")
    return rows, halves, signs


def _tournament(x: IntMatrix) -> Tournament:
    """The tournament with matrix x; a matrix that is none is refused."""
    try:
        return Tournament(x)
    except ValueError as exc:
        raise PreconditionError(f"not a tournament matrix: {exc}") from exc


def _ew_tournament(x: IntMatrix) -> tuple[int, IntMatrix]:
    """(t, A + I) of the EW tournament with matrix A = x, of order 4t+1;
    a matrix that is no tournament is refused before the EW test."""
    a = _tournament(x)
    _require(ew_tournament_check(a)[0], "not an EW tournament")
    return a.order // 4, x + IntMatrix.identity(a.order)


def _scaled_inverse(rows: list[list[int]], halves, signs) -> list[list[int]]:
    """Y = (n-1)(n-2) X^-1 in O(n^2), from the rows of an EW matrix X and
    the halves and signs of its row Gram analysis: XX^T = DLD with
    L = (n-2)I + 2K (see _ew_input) and L^-1 = ((n-1)I - K) / ((n-1)(n-2)),
    so X^-1 = X^T D L^-1 D and Y_ij = (n-1) x_ji - s_j sum_{k in half(j)} s_k x_ki.
    """
    n = len(rows)
    cols = [None] * n
    for half in halves:
        v = [sum(c) for c in zip(*([signs[k] * e for e in rows[k]] for k in half))]
        for j in half:
            cols[j] = [(n - 1) * e - signs[j] * w for e, w in zip(rows[j], v)]
    return [list(r) for r in zip(*cols)]


def scaled_inverse_check(s: IntMatrix) -> TheoremCheck:
    """Adjugate entry analysis for a skew-type EW matrix X of order n = 4t+2.

    No elimination: |det X| = (4t)^(2t) (8t+2) by _ew_abs_det (its sign is
    not computed), so adj X = det X * X^-1 = +-2(4t)^(2t-1) Y with Y from
    _scaled_inverse.
    Checks that every |Y_ij| lies in {4t, 4t+2, 4t+1 -+ sqrt(8t+1)}, that
    the adjugate's gcd 2(4t)^(2t-1) gcd(Y) is 4(4t)^(2t-1), and that the
    last invariant factor is |det|/gcd = 2t(4t+1). That factor comes from
    smith_normal_form, which proves any |det| it uses itself, so neither
    the adjugate nor _ew_abs_det feeds it. computed/predicted carry (gcd,
    last factor, number of out-of-set entries).
    """
    rows, halves, signs = _ew_input(s, "claim scaled-inverse", skew=True)
    t = _claim_t(s.rows)
    _require(existence_filter(t), f"8t+1 = {8 * t + 1} is not a perfect square")
    root = math.isqrt(8 * t + 1)
    base = 2 * (4 * t) ** (2 * t - 1)
    allowed = {4 * t, 4 * t + 2, 4 * t + 1 - root, 4 * t + 1 + root}
    y = [abs(v) for row in _scaled_inverse(rows, halves, signs) for v in row]
    bad = sum(1 for v in y if v not in allowed)
    last = smith_normal_form(s).factors[-1]
    return TheoremCheck(
        "scaled-inverse",
        (base * math.gcd(*y), last, bad),
        (4 * (4 * t) ** (2 * t - 1), 2 * t * (4 * t + 1), 0),
        f"|det| = {_ew_abs_det(s.rows)}; "
        f"|entry|/(2(4t)^(2t-1)) values seen: {sorted(set(y))}",
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
    _, part, signs = _ew_input(s, "normalized_block_row_sums", skew=True)
    n = s.rows
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


class ExistenceReport(NamedTuple):
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


def _skew_claim(
    claim_id: str, part: Callable[[int], slice]
) -> Callable[[IntMatrix], TheoremCheck]:
    """Claim on the slice part(t) of the skew-type diagonal predicted_snf_skew_ew(t)."""

    def check(x: IntMatrix) -> TheoremCheck:
        _ew_input(x, f"claim {claim_id}", skew=True)
        t = _claim_t(x.rows)
        cut = part(t)
        return TheoremCheck(claim_id, smith_normal_form(x).factors[cut], predicted_snf_skew_ew(t)[cut])

    return check


def _claim_ew_head(x: IntMatrix) -> TheoremCheck:
    _ew_input(x, "claim ew-head")
    return TheoremCheck("ew-head", smith_normal_form(x).factors[:2], (1, 2))


def _claim_border_link(x: IntMatrix) -> TheoremCheck:
    t, aplusi = _ew_tournament(x)
    # S is reduced uncut: its 0/1 core is A + I, so smith_normal_form(S)
    # would repeat the computation of bf rather than check it.
    sf = smith_reduce(bordered_rows(x.to_rows()), False)[0]
    bf = smith_normal_form(aplusi).factors
    computed = tuple(sf) + (determinant(aplusi),)
    predicted = (1,) + tuple(2 * b for b in bf) + (t ** (2 * t) * (4 * t + 1),)
    return TheoremCheck("border-link", computed, predicted, "bordered factors, then det(A+I)")


def _claim_aplusi_head(x: IntMatrix) -> TheoremCheck:
    t, aplusi = _ew_tournament(x)
    bf = smith_normal_form(aplusi).factors
    return TheoremCheck("aplusi-head", (bf[2 * t],), (1,))


def _claim_a2a_tail(x: IntMatrix) -> TheoremCheck:
    t, aplusi = _ew_tournament(x)
    facs = smith_normal_form(matmul(x, aplusi)).factors  # A^2 + A = A(A + I)
    return TheoremCheck("a2a-tail", facs[-2:], (t, t * t * (16 * t * t - 1)))


def _claim_tournament_snf(x: IntMatrix) -> TheoremCheck:
    t = _ew_tournament(x)[0]
    facs = smith_normal_form(x).factors
    return TheoremCheck("tournament-snf", facs, predicted_snf_tournament(t))


def _block_claim(case: str) -> Callable[[IntMatrix], TheoremCheck]:
    """Claim "block-<case>": the predicted_block_snf constraints of that case."""

    def check(x: IntMatrix) -> TheoremCheck:
        sums = _block_row_sums(x, _ew_input(x, f"claim block-{case}")[1])
        _require(sums is not None, "rows do not have constant block sums; cannot recover (r1, r2)")
        constraints = predicted_block_snf(_claim_t(x.rows), *sums)
        _require(
            constraints.case == case,
            f"claim applies to the {case} case, input is {constraints.case}",
        )
        return constraints.evaluate(smith_normal_form(x).factors)

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
        _claim_a2a_tail,
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
