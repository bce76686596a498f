"""Structure recognition and closed-form conformance checks."""

import random

import pytest

from doptsnf.designs import (
    Tournament,
    barba_double,
    skew_from_tournament,
    tournament_from_skew,
    normalize_skew_to_border,
)
from doptsnf.exactmat import IntMatrix, adjugate_and_det, circulant, determinant, matmul
from doptsnf.snf import smith_normal_form
from doptsnf.verify import (
    CLAIMS,
    PreconditionError,
    TheoremCheck,
    block_determinant_formula,
    degree_classes,
    ew_gram_check,
    ew_tournament_check,
    existence_filter,
    normalized_block_row_sums,
    p_rank_report,
    predicted_block_snf,
    predicted_snf_skew_ew,
    predicted_snf_tournament,
    scaled_inverse_check,
    theorem_conformance,
)


# ---------------------------------------------------------------------------
# Gram recognition


def test_gram_check_accepts_examples(example26, example66, skew14):
    for m, sums in ((example26, (5, 5)), (example66, (11, 3)), (skew14, (5, -1))):
        rep = ew_gram_check(m)
        assert rep.verdict, rep.reason
        assert rep.order == m.rows
        assert rep.row_block_sums == sums
        lo, hi = rep.clique_partition_rows
        assert sorted(lo + hi) == list(range(m.rows))
        assert len(lo) == len(hi) == m.rows // 2


def test_gram_check_row_sum_values_are_odd_and_normed(example26, example66, skew14):
    for m in (example26, example66, skew14):
        r1, r2 = ew_gram_check(m).row_block_sums
        n = m.rows
        assert r1 % 2 == 1 and abs(r2) % 2 == 1
        assert r1 * r1 + r2 * r2 == 2 * n - 2


def test_gram_check_wrong_order_parity():
    rep = ew_gram_check(IntMatrix.all_ones(4) - 2 * IntMatrix.identity(4))
    assert not rep.verdict
    assert "order" in rep.reason


def test_gram_check_rejects_non_pm1():
    with pytest.raises(ValueError):
        ew_gram_check(IntMatrix.zeros(2))
    with pytest.raises(Exception):
        ew_gram_check(IntMatrix.from_rows([[1, 1, -1]]))


def test_gram_check_plain_pm1_fails_with_reason():
    rep = ew_gram_check(IntMatrix.all_ones(6))
    assert not rep.verdict
    assert rep.reason


def test_strict_gram_check():
    base = circulant((-1, -1, -1, -1, 1))
    doubled = barba_double(base)
    assert ew_gram_check(doubled, strict=True).verdict
    # conjugating by a signed permutation preserves the default check
    # but breaks the literal two-block layout
    n = doubled.rows
    perm = list(range(n))
    perm[0], perm[5] = perm[5], perm[0]
    sign = [1] * n
    sign[3] = -1
    shuffled = IntMatrix.from_rows(
        [[sign[i] * sign[j] * doubled.at(perm[i], perm[j]) for j in range(n)] for i in range(n)]
    )
    assert ew_gram_check(shuffled).verdict
    assert not ew_gram_check(shuffled, strict=True).verdict
    # a sign switch alone keeps the natural halves but puts -2 in both Gram matrices
    signed = IntMatrix.from_rows(
        [[sign[i] * sign[j] * doubled.at(i, j) for j in range(n)] for i in range(n)]
    )
    assert ew_gram_check(signed).verdict
    assert not ew_gram_check(signed, strict=True).verdict


# ---------------------------------------------------------------------------
# Tournament checks


def test_degree_classes_small(witnesses5):
    for t in witnesses5:
        low, high, mid = degree_classes(t)
        assert (len(low), len(high), len(mid)) == (1, 1, 3)
        row_sums = t.matrix.row_sums()
        assert all(row_sums[i] == 1 for i in low)
        assert all(row_sums[i] == 3 for i in high)
        assert all(row_sums[i] == 2 for i in mid)


def test_degree_classes_13(tournament13):
    low, high, mid = degree_classes(tournament13)
    assert (len(low), len(high), len(mid)) == (3, 3, 7)


def test_degree_classes_rejects_non_ew_profile():
    with pytest.raises(PreconditionError):
        degree_classes(Tournament(circulant((0, 1, 0))))


def test_ew_tournament_check_witnesses(witnesses5):
    for t in witnesses5:
        verdict, a = ew_tournament_check(t)
        assert verdict
        assert a in (0, 3)  # the two roots of a^2 - 3a = 0


def test_ew_tournament_check_13(tournament13):
    verdict, a = ew_tournament_check(tournament13)
    assert verdict
    assert a == 1  # a^2 - 7a + 6 = 0 has roots 1 and 6


def test_ew_tournament_check_rejects_cycle():
    verdict, a = ew_tournament_check(Tournament(circulant((0, 1, 0))))
    assert not verdict
    assert a is None


def test_quadratic_det_identity(witnesses5, tournament13):
    """det(A A^T) equals the closed-form polynomial in (t, a)."""
    for t_param, tourn in [(1, w) for w in witnesses5] + [(3, tournament13)]:
        _, a = ew_tournament_check(tourn)
        poly = (
            (3 - 4 * t_param) * a * a
            + (8 * t_param * t_param - 2 * t_param - 3) * a
            + t_param * (12 * t_param**2 - t_param - 2)
        )
        expected = t_param ** (4 * t_param - 1) * poly
        g = matmul(tourn.matrix, tourn.matrix.transpose())
        assert determinant(g) == expected


# ---------------------------------------------------------------------------
# p-ranks


def test_p_rank_13(tournament13):
    rep = p_rank_report(tournament13, 3)
    assert (rep.rank_a_plus_i, rep.rank_a) == (7, 8)
    assert (rep.expected_a_plus_i, rep.expected_a) == (7, 8)
    assert rep.passed


def test_p_rank_preconditions(witnesses5, tournament13):
    with pytest.raises(PreconditionError):
        p_rank_report(tournament13, 4)  # not prime
    with pytest.raises(PreconditionError):
        p_rank_report(tournament13, 5)  # prime but does not divide t
    with pytest.raises(PreconditionError):
        p_rank_report(witnesses5[0], 3)  # t = 1 has no prime divisor
    with pytest.raises(PreconditionError):
        p_rank_report(Tournament(circulant((0, 1, 0))), 3)


# ---------------------------------------------------------------------------
# Predicted diagonals


def test_predicted_forms():
    assert predicted_snf_skew_ew(1) == (1, 2, 2, 2, 2, 10)
    assert predicted_snf_tournament(1) == (1, 1, 1, 1, 3)
    assert predicted_snf_skew_ew(3) == (1,) + (2,) * 7 + (6,) * 5 + (78,)
    with pytest.raises(ValueError):
        predicted_snf_skew_ew(0)
    with pytest.raises(ValueError):
        predicted_snf_tournament(-1)


def test_predicted_matches_computed(witnesses5, skew14, tournament13):
    for w in witnesses5:
        s = skew_from_tournament(w)
        assert smith_normal_form(s).factors == predicted_snf_skew_ew(1)
        assert smith_normal_form(w.matrix).factors == predicted_snf_tournament(1)
    assert smith_normal_form(skew14).factors == predicted_snf_skew_ew(3)
    assert smith_normal_form(tournament13.matrix).factors == predicted_snf_tournament(3)


# ---------------------------------------------------------------------------
# Block-diagonal constraint sets


def test_block_constraints_squarefree(example66):
    cons = predicted_block_snf(16, 11, 3)
    assert cons.case == "squarefree"
    assert (cons.ell, cons.q, cons.gcd_r) == (4, 1, 1)
    ev = cons.evaluate(smith_normal_form(example66).factors)
    assert ev.passed
    assert ev.observed == (1, 32, 2080, 33, 30, 183)
    assert ev.expected == (1, 32, 2080, 33, 30, 183)


def test_block_constraints_squarefree_14(skew14):
    cons = predicted_block_snf(3, 5, -1)
    assert cons.case == "squarefree"
    assert (cons.ell, cons.q) == (0, 3)
    assert cons.evaluate(smith_normal_form(skew14).factors).passed


def test_block_constraints_prime_square(example26):
    cons = predicted_block_snf(6, 5, 5)
    assert cons.case == "prime-square"
    assert cons.p == 5
    assert cons.gcd_r == 5
    assert cons.full_prediction == (1,) + (2,) * 13 + (12,) * 10 + (60, 60)
    assert cons.evaluate(smith_normal_form(example26).factors).passed


def test_block_constraints_prime_square_unit_gcd():
    # valid parameters with gcd 1 predict the generic skew diagonal instead
    cons = predicted_block_snf(6, 7, 1)
    assert cons.case == "prime-square"
    assert cons.gcd_r == 1
    assert cons.full_prediction == predicted_snf_skew_ew(6)


def test_block_constraints_preconditions():
    with pytest.raises(PreconditionError):
        predicted_block_snf(6, 4, 6)  # even row sums
    with pytest.raises(PreconditionError):
        predicted_block_snf(6, 7, 3)  # wrong norm: 49 + 9 != 50
    with pytest.raises(PreconditionError):
        predicted_block_snf(11, 3, 9)  # 45 = 9 * 5 is neither squarefree nor p^2


def test_evaluation_fails_on_wrong_factors(example26):
    cons = predicted_block_snf(6, 5, 5)
    wrong = predicted_snf_skew_ew(6)
    assert not cons.evaluate(wrong).passed


# ---------------------------------------------------------------------------
# TheoremCheck plumbing and the individual claims


def test_theorem_check_consistency_guard():
    # the verdict is derived from the pair, so it cannot contradict it
    assert not TheoremCheck(claim_id="x", computed=(1,), predicted=(2,)).passed
    assert TheoremCheck(claim_id="x", computed=(1,), predicted=(1,)).passed
    with pytest.raises(TypeError):
        TheoremCheck(claim_id="x", computed=(1,), predicted=(2,), passed=True)


def test_claims_registry():
    assert set(CLAIMS) == {
        "main",
        "skew-head",
        "skew-last",
        "ew-head",
        "border-link",
        "aplusi-head",
        "tournament-snf",
        "a2a-tail",
        "block-squarefree",
        "block-prime-square",
        "scaled-inverse",
    }
    for description, check in CLAIMS.values():
        assert isinstance(description, str) and description
        assert callable(check)


def test_theorem_conformance_unknown_claim(example26):
    with pytest.raises(ValueError, match="main"):
        theorem_conformance(example26, "no-such-claim")


def test_skew_claims_on_witnesses(witnesses5):
    for w in witnesses5[:5]:
        s = skew_from_tournament(w)
        for claim in ("main", "skew-head", "skew-last", "ew-head", "scaled-inverse"):
            chk = theorem_conformance(s, claim)
            assert chk.passed, (claim, chk)


def test_tournament_claims_on_witnesses(witnesses5):
    for w in witnesses5[:5]:
        for claim in ("tournament-snf", "border-link", "aplusi-head", "a2a-tail"):
            chk = theorem_conformance(w.matrix, claim)
            assert chk.passed, (claim, chk)


def test_claims_on_14(skew14, tournament13):
    for claim in ("main", "skew-head", "skew-last", "ew-head", "scaled-inverse"):
        assert theorem_conformance(skew14, claim).passed, claim
    for claim in ("tournament-snf", "border-link", "aplusi-head", "a2a-tail"):
        assert theorem_conformance(tournament13.matrix, claim).passed, claim


def test_block_claims_route_by_case(example26, example66):
    assert theorem_conformance(example26, "block-prime-square").passed
    assert theorem_conformance(example66, "block-squarefree").passed
    with pytest.raises(PreconditionError):
        theorem_conformance(example26, "block-squarefree")
    with pytest.raises(PreconditionError):
        theorem_conformance(example66, "block-prime-square")


def test_claims_precondition_on_wrong_input(example26):
    # example26 is not skew-type, so skew claims must refuse it
    with pytest.raises(PreconditionError):
        theorem_conformance(example26, "main")
    # and it is not a 0/1 tournament either
    with pytest.raises(PreconditionError):
        theorem_conformance(example26, "tournament-snf")


def test_ew_head_claim_on_examples(example26, example66):
    for m in (example26, example66):
        chk = theorem_conformance(m, "ew-head")
        assert chk.passed
        assert chk.computed == (1, 2)


def test_border_link_details(witnesses5):
    """The bordered diagonal doubles the tournament diagonal, shifted one slot."""
    w = witnesses5[0]
    s = skew_from_tournament(w)
    sf = smith_normal_form(s).factors
    bf = smith_normal_form(w.matrix).factors
    assert sf[0] == 1
    assert all(sf[i + 1] == 2 * bf[i] for i in range(len(bf) - 1))


# ---------------------------------------------------------------------------
# Scaled inverse / adjugate structure


def test_scaled_inverse_t1(witnesses5):
    s = skew_from_tournament(witnesses5[0])
    chk = scaled_inverse_check(s)
    assert chk.passed
    assert chk.computed == (16, 10, 0)
    adj, det = adjugate_and_det(s)
    assert det == 2 * 5 * 4**2
    assert {abs(v) for v in adj.entries} <= {16, 32, 48, 64}


def test_scaled_inverse_t3(skew14):
    chk = scaled_inverse_check(skew14)
    assert chk.passed
    # gcd = 4 * (4t)^{2t-1} at t = 3
    assert chk.computed[0] == 4 * 12**5
    assert chk.computed[1] == 6 * 13


def test_scaled_inverse_rejects_non_skew(example26):
    with pytest.raises(PreconditionError):
        scaled_inverse_check(example26)


def test_normalized_block_row_sums(witnesses5, skew14):
    d11, d22, d12, d21 = normalized_block_row_sums(skew_from_tournament(witnesses5[0]))
    assert (d11, d22) == (1, 1)
    assert {d12, d21} == {3, -3}
    d11, d22, d12, d21 = normalized_block_row_sums(skew14)
    assert (d11, d22) == (1, 1)
    assert {d12, d21} == {5, -5}


# ---------------------------------------------------------------------------
# Existence filter and the block determinant formula


def test_existence_filter():
    assert existence_filter(1)
    assert existence_filter(3)
    assert existence_filter(6)
    assert not existence_filter(2)
    assert not existence_filter(4)
    for t in (1, 3, 6, 10):
        rep = existence_filter(t)
        assert rep.has_square_discriminant == bool(rep)
        assert rep.has_two_square_norm


def test_block_determinant_formula_matches_literal():
    rng = random.Random(301)
    for _ in range(80):
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        alpha, beta, gamma = (rng.randint(-6, 6) for _ in range(3))
        top = [
            [alpha * (i == j) + beta for j in range(a)] + [gamma] * b for i in range(a)
        ]
        bot = [
            [gamma] * a + [alpha * (i == j) + beta for j in range(b)] for i in range(b)
        ]
        m = IntMatrix.from_rows(top + bot)
        assert determinant(m) == block_determinant_formula(alpha, beta, gamma, a, b)


def test_block_determinant_formula_validation():
    with pytest.raises(ValueError):
        block_determinant_formula(1, 1, 1, 0, 2)


# ---------------------------------------------------------------------------
# Cross-checks tying tournaments to their bordered doubles


def test_round_trip_preserves_all_claims(witnesses5):
    w = witnesses5[-1]
    s = skew_from_tournament(w)
    back = tournament_from_skew(normalize_skew_to_border(s))
    assert back.matrix == w.matrix


def test_gram_two_sided(skew14):
    """For skew-type X both Gram products coincide: XX^T = X^TX = 2X - X^2."""
    xt = skew14.transpose()
    left = matmul(skew14, xt)
    right = matmul(xt, skew14)
    assert left == right
    assert left == 2 * skew14 - skew14 @ skew14
