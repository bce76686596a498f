"""Recognition predicates and closed-form conformance checks.

The checkers in this module recognize the Gram block structure of the
design families, extract their structural parameters, and compare computed
Smith normal forms, ranks, determinants and adjugate entries against the
predicted closed forms.

Every checker fails closed: when an input does not satisfy a check's
hypotheses the checker raises PreconditionError instead of reporting a
pass (or a silently meaningless False). Each claim family has one input
check, which raises each of its refusals from one place: _skew_ew for
skew-type EW matrices, _ew_design for EW matrices and _ew_tournament for
EW tournaments (which p_rank_report also runs).
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
from .kernels import sign_gram, smith_reduce
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
    after the switch g[i][j] -> signs[i]*signs[j]*g[i][j].
    """
    for i in range(n):
        if g[i][i] != n:
            return None, None, f"Gram diagonal entry {i} is {g[i][i]}, not {n}"
    for i in range(n):
        for j in range(i + 1, n):
            if abs(g[i][j]) not in (0, 2):
                return None, None, f"off-diagonal Gram entry ({i},{j}) = {g[i][j]}"
    # The components of the |entry| = 2 graph, in order of least index:
    # each row is read once, when its vertex is reached.
    blocks = []
    seen = set()
    for root in range(n):
        if root not in seen:
            seen.add(root)
            block = [root]
            for i in block:
                reached = [j for j, v in enumerate(g[i]) if abs(v) == 2 and j not in seen]
                seen.update(reached)
                block += reached
            blocks.append(sorted(block))
    if len(blocks) != 2 or any(len(b) != n // 2 for b in blocks):
        sizes = tuple(len(b) for b in blocks)
        return None, None, f"Gram 2-support components have sizes {sizes}, expected two halves"
    signs = [0] * n
    for block in blocks:
        root = block[0]
        signs[root] = 1
        for j in block[1:]:
            v = g[root][j]
            if abs(v) != 2:
                return None, None, f"Gram block is not a clique at ({root},{j})"
            signs[j] = v // 2
        for a in block:
            for b in block:
                if a < b and g[a][b] != 2 * signs[a] * signs[b]:
                    return None, None, f"Gram signs are not switching-consistent at ({a},{b})"
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


def _require_ew_gram(reason: str) -> None:
    """Refuse an input whose EW Gram analysis failed for reason ("" passes)."""
    _require(not reason, f"input lacks the EW Gram structure ({reason})")


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
    """
    require_pm1_square(x, "ew_gram_check")
    n = x.rows
    rows, rows_part, row_signs, why = _row_analysis(x)
    if why:
        return EwReport(False, n, reason=why)
    cols_part, col_signs, why = _analyze_gram(sign_gram(list(zip(*rows))), n)
    if cols_part is None:
        return EwReport(False, n, reason="columns: " + why)
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
    {2t+1}^t, and any other profile is rejected before a Gram matrix is
    built. Two identities let one row Gram analysis of S decide the rest:

    1. S is skew-type, so S^TS = (2I - S)S = SS^T: the column analysis of
       ew_gram_check repeats the row analysis, so the row verdict alone is
       ew_gram_check(S).verdict.
    2. For i != j, (SS^T)_{i+1,j+1} = 4(AA^T)_ij - 2d_i - 2d_j + 4t + 2.
       The rows i+1 with d_i = 2t are the half of S's rows without the
       border row, and the row verdict's blocks and signs fix every other
       entry of AA^T. Within that half (AA^T)_ij is t where the switching
       signs of rows i+1 and j+1 agree and t - 1 where they differ.

    The smaller sign class has size a, which must solve
    a^2 - (2t+1)a + t(t-1) = 0 (that does not follow from the identities);
    a true Gram verdict with any other a raises RuntimeError. Returns
    (verdict, a), with a None on a false verdict; ew_split does the work.
    """
    a_param = ew_split(a.matrix.to_rows())
    return a_param is not None, a_param


def ew_split(rows: list[list[int]]) -> Optional[int]:
    """ew_tournament_check's split parameter a, or None on a false verdict,
    for a tournament given by its 0/1 rows (which are not validated)."""
    n = len(rows)
    if n % 4 != 1 or n < 5:
        return None
    t = n // 4
    if sorted(map(sum, rows)) != ew_degree_template(t):
        return None
    part, signs, _ = _analyze_gram(sign_gram(bordered_rows(rows)), n + 1)
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


class BlockSnfEvaluation(NamedTuple):
    """Result of matching a computed diagonal against block-design constraints."""

    observed: tuple[int, ...]
    expected: tuple[int, ...]
    description: str

    @property
    def passed(self) -> bool:
        return self.observed == self.expected


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
            sum((v & -v).bit_length() - 1 for v in facs[1 : 4 * t]),  # 2-adic valuations
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


class TheoremCheck(NamedTuple):
    """Computed-versus-predicted tuples for one named claim; it passes iff they agree."""

    claim_id: str
    computed: tuple
    predicted: tuple
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.computed == self.predicted


def _ew_abs_det(n: int) -> int:
    """|det X| of an EW matrix X of order n, once its Gram check has passed:
    XX^T = D((n-2)I + 2K)D (see _skew_ew), and (n-2)I + 2K has eigenvalues
    2n-2 (twice) and n-2 (n-2 times), so |det X| = (n-2)^(n/2-1) (2n-2)."""
    return (n - 2) ** (n // 2 - 1) * (2 * n - 2)


def _ew_factors(x: IntMatrix) -> tuple[int, ...]:
    """The invariant factors of an EW matrix x, whose proved |det| the engine gets."""
    return smith_normal_form(x, abs_det=_ew_abs_det(x.rows)).factors


def _claim_t(n: int) -> int:
    """t = (n-2)/4 of a claim's EW input of order n; the claims need t >= 1."""
    _require(n >= 6, f"the claim needs t >= 1; order {n} gives t = 0")
    return (n - 2) // 4


def _skew_ew(x: IntMatrix, name: str):
    """(t, rows, halves, signs) of a skew-type EW matrix S of order 4t+2.

    After the input check, which names the caller, the O(n^2) skew-type
    test runs before the one Gram product: S + S^T = 2I gives
    S^TS = (2I - S)S = SS^T, so ew_gram_check's column analysis would
    repeat the row one. SS^T = D((n-2)I + 2K)D with D = diag(signs) and
    K_ij = 1 iff i and j lie in the same half.
    """
    require_pm1_square(x, name)
    _require(is_skew_type(x), "input is not skew-type")
    rows, halves, signs, why = _row_analysis(x)
    _require_ew_gram(why)
    return _claim_t(x.rows), rows, halves, signs


def _ew_design(x: IntMatrix, name: str) -> EwReport:
    """ew_gram_check's report on an EW matrix x, after the input check that names the caller."""
    require_pm1_square(x, name)
    rep = ew_gram_check(x)
    _require_ew_gram(rep.reason)
    return rep


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
    L = (n-2)I + 2K (see _skew_ew) and L^-1 = ((n-1)I - K) / ((n-1)(n-2)),
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
    smith_normal_form without the |det| certificate, so it is computed apart
    from the adjugate. computed/predicted carry (gcd, last factor, number
    of out-of-set entries).
    """
    t, rows, halves, signs = _skew_ew(s, "claim scaled-inverse")
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
    _, _, part, signs = _skew_ew(s, "normalized_block_row_sums")
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
        t = _skew_ew(x, f"claim {claim_id}")[0]
        cut = part(t)
        return TheoremCheck(claim_id, _ew_factors(x)[cut], predicted_snf_skew_ew(t)[cut])

    return check


def _claim_ew_head(x: IntMatrix) -> TheoremCheck:
    _ew_design(x, "claim ew-head")
    return TheoremCheck("ew-head", _ew_factors(x)[:2], (1, 2))


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
        rep = _ew_design(x, f"claim block-{case}")
        _require(
            rep.row_block_sums is not None,
            "rows do not have constant block sums; cannot recover (r1, r2)",
        )
        constraints = predicted_block_snf(_claim_t(x.rows), *rep.row_block_sums)
        _require(
            constraints.case == case,
            f"claim applies to the {case} case, input is {constraints.case}",
        )
        ev = constraints.evaluate(_ew_factors(x))
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
