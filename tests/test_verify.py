"""Structure recognition and closed-form conformance checks."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from doptsnf import kernels
from doptsnf.designs import (
    Tournament,
    barba_double,
    is_barba,
    is_skew_type,
    skew_from_tournament,
    tournament_from_skew,
    normalize_skew_to_border,
)
from doptsnf import snf, verify
from doptsnf.exactmat import (
    DimensionError,
    IntMatrix,
    PreconditionError,
    circulant,
    determinant,
    matmul,
)
from doptsnf.search import _tournament_from_mask, _tournament_rows, search_circulant_barba
from doptsnf.snf import smith_normal_form
from doptsnf.verify import (
    EwReport,
    CLAIMS,
    TheoremCheck,
    block_determinant_formula,
    ew_degree_template,
    ew_gram_check,
    ew_split,
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


def test_ew_tournament_check_witnesses(witnesses5):
    for t in witnesses5:
        verdict, a = ew_tournament_check(t)
        assert verdict
        assert a in (0, 3)  # the two roots of a^2 - 3a = 0
        assert sorted(t.matrix.row_sums()) == ew_degree_template(1)


def test_ew_tournament_check_13(tournament13):
    verdict, a = ew_tournament_check(tournament13)
    assert verdict
    assert a == 1  # a^2 - 7a + 6 = 0 has roots 1 and 6
    assert sorted(tournament13.matrix.row_sums()) == ew_degree_template(3)


def test_ew_tournament_check_25(tournament25):
    assert ew_tournament_check(tournament25) == (True, 3)  # a^2 - 13a + 30 = 0: 3 and 10
    assert sorted(tournament25.matrix.row_sums()) == ew_degree_template(6)


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


def test_p_rank_25(tournament25):
    for p in (2, 3):
        rep = p_rank_report(tournament25, p)
        assert (rep.rank_a_plus_i, rep.rank_a) == (13, 14)
        assert rep.passed


def test_p_rank_preconditions(witnesses5, tournament13):
    with pytest.raises(TypeError):
        p_rank_report(tournament13, 3.0)  # 3.0 in factorize(3) holds; rank_mod_p refuses it
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


def test_block_constraints_zero_factors_fail():
    # a zero factor has no 2-adic valuation; evaluating one must end in a failed check
    ev = predicted_block_snf(3, 5, -1).evaluate((1,) + (0,) * 13)
    assert not ev.passed


def test_block_constraints_count_the_factors_first():
    ev = predicted_block_snf(3, 5, -1).evaluate((1, 2))
    assert (ev.observed, ev.expected, ev.description) == ((2,), (14,), "factor count")
    assert not ev.passed


def test_block_constraints_prime_square_with_t_not_squarefree():
    """At n = 50, 4t+1 = 49 = 7^2 but t = 12 = 2^2 * 3: only the leading
    factors (1, 2) are predicted."""
    cons = predicted_block_snf(12, 7, 7)
    assert (cons.case, cons.p, cons.gcd_r, cons.full_prediction) == ("prime-square", 7, 7, None)
    ev = cons.evaluate((1, 2) + (4,) * 48)
    assert ev.passed
    assert (ev.observed, ev.expected) == ((1, 2), (1, 2))
    assert ev.description == "leading factors only (t is not square-free)"
    assert not cons.evaluate((1, 4) + (4,) * 48).passed


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


CLAIMS_NEEDING_T = (
    "main", "skew-head", "skew-last", "scaled-inverse", "block-squarefree", "block-prime-square"
)


def test_claims_at_order_2_are_refused_as_preconditions():
    """X = [[1, 1], [-1, 1]] is skew-type and EW at n = 2, where t = 0: every
    claim that predicts from t refuses it, and ew-head's (1, 2) holds."""
    x = IntMatrix.from_rows([[1, 1], [-1, 1]])
    assert is_skew_type(x) and ew_gram_check(x).verdict
    for claim in CLAIMS_NEEDING_T:
        with pytest.raises(PreconditionError, match="order 2 gives t = 0"):
            theorem_conformance(x, claim)
    assert theorem_conformance(x, "ew-head").passed


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


def test_claims_on_26(skew26, tournament25):
    """The first skew-type design of order 26, t = 6, and its bordered tournament."""
    assert smith_normal_form(skew26).factors == predicted_snf_skew_ew(6)
    assert predicted_snf_skew_ew(6) == (1,) + (2,) * 13 + (12,) * 11 + (300,)
    for claim in (
        "main", "skew-head", "skew-last", "ew-head", "scaled-inverse", "block-prime-square"
    ):
        assert theorem_conformance(skew26, claim).passed, claim
    for claim in ("tournament-snf", "border-link", "aplusi-head", "a2a-tail"):
        assert theorem_conformance(tournament25.matrix, claim).passed, claim


def test_every_claim_fails_on_a_wrong_engine(monkeypatch, skew26, tournament25, example66):
    """With every SNF factor tripled (still a divisibility chain), each claim
    that applies to skew26, tournament25 or example66 fails: a claim that
    still passed would be comparing the engine with itself."""
    engine = snf._factors
    monkeypatch.setattr(
        snf, "_factors", lambda rows, *args: tuple(3 * f for f in engine(rows, *args))
    )
    assert smith_normal_form(IntMatrix.identity(2)).factors == (3, 3)
    assert smith_normal_form(IntMatrix.identity(2), abs_det=1).factors == (3, 3)
    applied = set()
    for x in (skew26, tournament25.matrix, example66):
        for claim in CLAIMS:
            try:
                check = theorem_conformance(x, claim)
            except ValueError:  # the claim does not apply to x
                continue
            applied.add(claim)
            assert not check.passed, claim
    assert applied == set(CLAIMS)


@pytest.mark.parametrize(
    "x_name, claim",
    [("skew26", "main"), ("skew26", "skew-last"), ("example66", "block-squarefree")],
)
def test_claims_fail_on_a_wrong_certificate(monkeypatch, request, x_name, claim):
    """With _ew_abs_det off by a factor of 3, each claim that reads the last
    factor fails or meets an elimination that contradicts the certificate."""
    x = request.getfixturevalue(x_name)
    abs_det = verify._ew_abs_det
    monkeypatch.setattr(verify, "_ew_abs_det", lambda n: 3 * abs_det(n))
    try:
        assert not theorem_conformance(x, claim).passed
    except ArithmeticError:
        pass


def no_bareiss(rows):
    raise AssertionError("bareiss_determinant ran")


def test_ew_claims_pass_the_certificate_and_run_no_bareiss(
    monkeypatch, skew14, skew26, example26, example66
):
    """Every claim on an EW design hands its SNF the |det| of _ew_abs_det,
    so none runs a Bareiss determinant; example66 took one per claim before."""
    monkeypatch.setattr(kernels, "bareiss_determinant", no_bareiss)
    designs = {"skew14": skew14, "skew26": skew26, "e26": example26, "e66": example66}
    ran = []
    for name, x in designs.items():
        for claim in ("main", "skew-head", "skew-last", "ew-head", "block-squarefree", "block-prime-square"):
            try:
                check = theorem_conformance(x, claim)
            except PreconditionError:
                continue
            assert check.passed, (name, claim)
            ran.append(f"{name}:{claim}")
    assert len(ran) == 14 and {"e66:ew-head", "e66:block-squarefree"} <= set(ran)


def test_ew_abs_det_certifies_every_ew_fixture(
    monkeypatch, witnesses5, skew14, skew26, example26, example66
):
    """On the bordered order-6 witnesses, the Barba doubles of orders 10
    and 26, the skew and example designs and the order-2 design,
    _ew_abs_det(n) is |det X| by Bareiss, and the SNF it certifies equals
    the uncertified one."""
    doubles = [barba_double(r) for order in (5, 13) for r in search_circulant_barba(order)]
    assert len(doubles) == 114
    designs = [skew_from_tournament(w) for w in witnesses5] + doubles
    designs += [skew14, skew26, example26, example66, IntMatrix.from_rows([[1, 1], [1, -1]])]
    expected = []
    for x in designs:
        assert ew_gram_check(x).verdict
        n = x.rows
        assert verify._ew_abs_det(n) == abs(kernels.bareiss_determinant(x.to_rows())[0])
        expected.append(smith_normal_form(x).factors)
    monkeypatch.setattr(kernels, "bareiss_determinant", no_bareiss)
    certified = [smith_normal_form(x, abs_det=verify._ew_abs_det(x.rows)).factors for x in designs]
    assert certified == expected


def test_skew26_is_not_equivalent_to_example26(example26, skew26):
    """The paper's application on two real EW designs of order 26: both pass
    the Gram check, and their Smith normal forms differ, so no signed
    permutations carry one to the other."""
    assert ew_gram_check(example26).verdict and ew_gram_check(skew26).verdict
    assert smith_normal_form(example26).factors != smith_normal_form(skew26).factors


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


SKEW_CLAIMS = ("main", "skew-head", "skew-last", "scaled-inverse")


@pytest.mark.parametrize("claim", SKEW_CLAIMS)
def test_skew_claims_test_skew_type_before_the_gram_products(monkeypatch, example66, claim):
    # example66 is EW but not skew-type; the O(n^2) test refuses it with no Gram product
    def no_gram(*args, **kwargs):
        raise AssertionError("a Gram product ran")

    monkeypatch.setattr(verify, "ew_gram_check", no_gram)
    monkeypatch.setattr(verify, "sign_gram", no_gram)
    monkeypatch.setattr(verify, "matmul", no_gram)
    with pytest.raises(PreconditionError, match="^input is not skew-type$"):
        theorem_conformance(example66, claim)


@pytest.mark.parametrize("claim", SKEW_CLAIMS)
def test_skew_claims_build_one_gram_product(monkeypatch, skew26, claim):
    # S + S^T = 2I gives S^TS = SS^T, so the row Gram matrix decides the EW test alone
    sizes = []

    def counting_gram(rows):
        sizes.append(len(rows))
        return kernels.sign_gram(rows)

    monkeypatch.setattr(verify, "sign_gram", counting_gram)
    assert theorem_conformance(skew26, claim).passed
    assert sizes == [26]


@pytest.mark.parametrize("claim", SKEW_CLAIMS)
def test_skew_claims_keep_the_gram_input_checks(claim):
    with pytest.raises(DimensionError, match=f"^claim {claim} needs a square matrix$"):
        theorem_conformance(IntMatrix.all_ones(2, 6), claim)
    with pytest.raises(ValueError, match=r"^entries must be \+-1$") as exc:
        theorem_conformance(IntMatrix.identity(6), claim)
    assert exc.type is ValueError
    # square and +-1 but neither EW nor skew-type: the skew test speaks first
    with pytest.raises(PreconditionError, match="^input is not skew-type$"):
        theorem_conformance(IntMatrix.all_ones(6), claim)
    # skew-type but not EW: the Gram test still refuses it
    skew = IntMatrix.from_rows([[1 if i <= j else -1 for j in range(6)] for i in range(6)])
    assert is_skew_type(skew)
    with pytest.raises(PreconditionError, match="^input lacks the EW Gram structure"):
        theorem_conformance(skew, claim)


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
    adj, det = kernels.adjugate(s.to_rows())
    assert det == 2 * 5 * 4**2
    assert {abs(v) for row in adj for v in row} <= {16, 32, 48, 64}


def test_scaled_inverse_t3(skew14):
    chk = scaled_inverse_check(skew14)
    assert chk.passed
    # gcd = 4 * (4t)^{2t-1} at t = 3
    assert chk.computed[0] == 4 * 12**5
    assert chk.computed[1] == 6 * 13


def test_scaled_inverse_matches_the_gauss_jordan_adjugate(
    witnesses5, skew14, skew26, example26, example66
):
    """Y = (n-1)(n-2) X^-1 from the Gram form against kernels.adjugate:
    adj X = sign(det) 2(n-2)^(n/2-2) Y entry for entry,
    |det X| = (n-2)^(n/2-1) (2n-2) and XY = (n-1)(n-2) I. example26 and
    example66 are EW but not skew-type, outside the claim's inputs."""
    designs = [skew_from_tournament(w) for w in witnesses5]
    for x in designs + [skew14, skew26, example26, example66]:
        rows = x.to_rows()
        n = len(rows)
        halves, signs, why = verify._analyze_gram(kernels.sign_gram(rows), n)
        assert halves is not None, why
        y = verify._scaled_inverse(rows, halves, signs)
        adj, det = kernels.adjugate(rows)
        assert abs(det) == (n - 2) ** (n // 2 - 1) * (2 * n - 2)
        scale = (1 if det > 0 else -1) * 2 * (n - 2) ** (n // 2 - 2)
        assert adj == [[scale * v for v in row] for row in y]
        identity = [[(n - 1) * (n - 2) * (i == j) for j in range(n)] for i in range(n)]
        assert kernels.matmul(rows, y) == identity


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
# The popcount Gram checks against a reference on kernels.matmul


def ref_gram(rows):
    return kernels.matmul(rows, list(zip(*rows)))


def ref_components(items, related):
    """Connected components of an undirected relation, each sorted, in order
    of least element: a union-find, independent of the library's pass."""
    parent = {i: i for i in items}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    items = list(items)
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            if related(items[a], items[b]):
                parent[find(items[a])] = find(items[b])
    comps = {}
    for i in items:
        comps.setdefault(find(i), []).append(i)
    return sorted((sorted(c) for c in comps.values()), key=lambda c: c[0])


def ref_analyze_gram(g, n):
    """The two-clique analysis as written before the checks used sign_gram."""
    for i in range(n):
        if g[i][i] != n:
            return None, None, f"Gram diagonal entry {i} is {g[i][i]}, not {n}"
    for i in range(n):
        for j in range(i + 1, n):
            if abs(g[i][j]) not in (0, 2):
                return None, None, f"off-diagonal Gram entry ({i},{j}) = {g[i][j]}"
    blocks = ref_components(range(n), lambda i, j: abs(g[i][j]) == 2)
    if len(blocks) != 2 or any(len(b) != n // 2 for b in blocks):
        sizes = tuple(len(b) for b in blocks)
        return None, None, f"Gram 2-support components have sizes {sizes}, expected two halves"
    signs = [0] * n
    for block in blocks:
        root = block[0]
        signs[root] = 1
        for j in block[1:]:
            if abs(g[root][j]) != 2:
                return None, None, f"Gram block is not a clique at ({root},{j})"
            signs[j] = g[root][j] // 2
        for a in block:
            for b in block:
                if a < b and g[a][b] != 2 * signs[a] * signs[b]:
                    return None, None, f"Gram signs are not switching-consistent at ({a},{b})"
    return (tuple(blocks[0]), tuple(blocks[1])), tuple(signs), ""


def ref_ew_gram_check(x, strict=False):
    if not x.is_square:
        raise DimensionError("ew_gram_check needs a square matrix")
    if any(v not in (1, -1) for v in x.entries):
        raise ValueError("entries must be +-1")
    n = x.rows
    if n % 4 != 2:
        return EwReport(False, n, reason=f"order {n} is not 2 (mod 4)")
    rows = x.to_rows()
    rows_part, row_signs, why = ref_analyze_gram(ref_gram(rows), n)
    if rows_part is None:
        return EwReport(False, n, reason="rows: " + why)
    cols_part, col_signs, why = ref_analyze_gram(ref_gram(list(zip(*rows))), n)
    if cols_part is None:
        return EwReport(False, n, reason="columns: " + why)
    if strict:
        halves = (tuple(range(n // 2)), tuple(range(n // 2, n)))
        if rows_part != halves or cols_part != halves or -1 in row_signs + col_signs:
            return EwReport(False, n, reason="Gram matrices differ from the literal block form")
    return EwReport(True, n, rows_part, cols_part, verify._block_row_sums(x, rows_part))


def ref_ew_tournament_check(a):
    """ew_tournament_check as written before it read the split parameter off
    the row Gram analysis: the degree classes, AA^T, its class template and
    the clique split of the degree-2t class."""
    n = a.order
    if n % 4 != 1 or n < 5:
        return False, None
    t = n // 4
    sums = a.matrix.row_sums()
    if sorted(sums) != ew_degree_template(t):
        return False, None
    if not ref_ew_gram_check(skew_from_tournament(a)).verdict:
        return False, None
    label = {2 * t - 1: "low", 2 * t + 1: "high", 2 * t: "mid"}
    cls = [label[d] for d in sums]
    g = ref_gram(a.matrix.to_rows())
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
                if g[i][j] not in (t - 1, t):
                    raise RuntimeError(f"mid-class product entry ({i},{j}) = {g[i][j]}")
                continue
            value = template.get(pair, template.get((pair[1], pair[0])))
            if g[i][j] != value:
                raise RuntimeError(f"product template fails at ({i},{j}): {g[i][j]} != {value}")
    mid = [i for i in range(n) if cls[i] == "mid"]
    parts = ref_components(mid, lambda i, j: g[i][j] == t)
    for part in parts:
        for i in part:
            for j in part:
                if i < j and g[i][j] != t:
                    raise RuntimeError("degree-2t class does not split into two cliques")
    if len(parts) > 2:
        raise RuntimeError(f"degree-2t class splits into {len(parts)} parts")
    a_param = 0 if len(parts) == 1 else min(len(p) for p in parts)
    if a_param * a_param - (2 * t + 1) * a_param + t * (t - 1) != 0:
        raise RuntimeError(f"split size {a_param} fails the quadratic at t = {t}")
    return True, a_param


def ref_is_barba(r):
    if not r.is_square:
        raise DimensionError("is_barba needs a square matrix")
    if any(v not in (1, -1) for v in r.entries):
        raise ValueError("entries must be +-1")
    n = r.rows
    target = [[n if i == j else 1 for j in range(n)] for i in range(n)]
    rows = r.to_rows()
    return ref_gram(rows) == target and ref_gram(list(zip(*rows))) == target


def ref_normalized_block_row_sums(s):
    if not s.is_square:
        raise DimensionError("normalized_block_row_sums needs a square matrix")
    if any(v not in (1, -1) for v in s.entries):
        raise ValueError("entries must be +-1")
    if not is_skew_type(s):
        raise PreconditionError("input is not skew-type")
    n = s.rows
    if n % 4 != 2:
        raise PreconditionError(f"input lacks the EW Gram structure (order {n} is not 2 (mod 4))")
    part, signs, why = ref_analyze_gram(ref_gram(s.to_rows()), n)
    if part is None:
        raise PreconditionError(f"input lacks the EW Gram structure (rows: {why})")
    if n < 6:
        raise PreconditionError(f"the claim needs t >= 1; order {n} gives t = 0")
    order = list(part[0]) + list(part[1])
    m = [[signs[i] * signs[j] * s.at(i, j) for j in order] for i in order]
    h = n // 2

    def common_sum(rows, cols):
        vals = {sum(m[i][j] for j in cols) for i in rows}
        if len(vals) != 1:
            raise PreconditionError("block row sums are not constant")
        return vals.pop()

    return (
        common_sum(range(h), range(h)),
        common_sum(range(h, n), range(h, n)),
        common_sum(range(h), range(h, n)),
        common_sum(range(h, n), range(h)),
    )


def outcome(f, *args):
    """f's return value, or the type and message of what it raised."""
    try:
        return f(*args)
    except (ValueError, PreconditionError) as exc:
        return type(exc), str(exc)


def assert_checks_match_reference(x):
    """Same reports field for field (default and strict), same Barba verdict,
    same block row sums, and the same exceptions with the same messages."""
    assert outcome(ew_gram_check, x) == outcome(ref_ew_gram_check, x)
    assert outcome(ew_gram_check, x, True) == outcome(ref_ew_gram_check, x, True)
    assert outcome(is_barba, x) == outcome(ref_is_barba, x)
    assert outcome(normalized_block_row_sums, x) == outcome(ref_normalized_block_row_sums, x)


def test_packed_checks_match_reference_on_designs(example26, example66, skew14):
    for x in (example26, example66, skew14):
        assert ew_gram_check(x).verdict
        assert_checks_match_reference(x)


def test_packed_checks_match_reference_on_bordered_tournaments():
    """Every order-6 bordered tournament: 40 EW, the rest failing on rows."""
    verdicts = []
    for mask in range(1 << 10):
        x = skew_from_tournament(_tournament_from_mask(5, mask))
        assert_checks_match_reference(x)
        verdicts.append(ew_gram_check(x).verdict)
    assert sum(verdicts) == 40


def test_packed_checks_match_reference_on_paley_non_designs():
    """q = 7 fails on switching consistency, q = 19 on entries of 10."""
    from test_snf import paley_two_block

    for q, why in ((7, "switching-consistent"), (19, "= 10")):
        x = paley_two_block(q)
        assert why in ew_gram_check(x).reason
        assert_checks_match_reference(x)


def hand_gram(n, cliques, *entries):
    """An order-n Gram matrix: n on the diagonal, 2*s_a*s_b within each clique
    given as {index: sign}, 0 elsewhere, then each entry (i, j, v) set at
    (i,j) and (j,i)."""
    g = [[n * (i == j) for j in range(n)] for i in range(n)]
    for clique in cliques:
        for a, sa in clique.items():
            for b, sb in clique.items():
                if a != b:
                    g[a][b] = 2 * sa * sb
    for i, j, v in entries:
        g[i][j] = g[j][i] = v
    return g


HALVES = ({0: 1, 3: -1, 5: 1}, {1: -1, 2: 1, 4: 1})
SIZES = "Gram 2-support components have sizes {}, expected two halves"


@pytest.mark.parametrize(
    "g, expected",
    [
        (hand_gram(6, HALVES), (((0, 3, 5), (1, 2, 4)), (1, 1, -1, -1, -1, 1), "")),
        (hand_gram(6, HALVES, (2, 2, 4)), (None, None, "Gram diagonal entry 2 is 4, not 6")),
        (hand_gram(6, HALVES, (1, 3, 4)), (None, None, "off-diagonal Gram entry (1,3) = 4")),
        (hand_gram(6, (), (0, 3, 2), (1, 4, -2), (2, 5, 2)), (None, None, SIZES.format((2, 2, 2)))),
        (
            hand_gram(6, ({0: 1, 1: 1, 2: 1, 3: 1}, {4: 1, 5: 1})),
            (None, None, SIZES.format((4, 2))),
        ),
        (
            hand_gram(8, ({1: 1, 3: 1, 5: 1, 7: 1},), (0, 6, 2), (4, 6, 2), (2, 4, 2)),
            (None, None, "Gram block is not a clique at (0,2)"),
        ),
        (
            hand_gram(6, HALVES, (3, 5, 2)),
            (None, None, "Gram signs are not switching-consistent at (3,5)"),
        ),
        (
            hand_gram(6, HALVES, (3, 5, 0)),
            (None, None, "Gram signs are not switching-consistent at (3,5)"),
        ),
    ],
    ids=["halves", "diagonal", "entry-4", "three", "unequal", "not-clique", "signs", "gap"],
)
def test_analyze_gram_reasons_match_the_union_find_reference(g, expected):
    """Hand-built Gram matrices reach each branch of the two-clique analysis.
    The halves interleave, and the path 0-6-4-2 is reached out of index
    order, so both the order of the halves and of their members count."""
    assert verify._analyze_gram(g, len(g)) == ref_analyze_gram(g, len(g)) == expected


def relabel(a, rng):
    """a with its vertices renamed by a random permutation."""
    perm = list(range(a.order))
    rng.shuffle(perm)
    return Tournament(IntMatrix.from_rows([[a.matrix.at(i, j) for j in perm] for i in perm]))


def test_tournament_check_matches_reference(tournament13, tournament25):
    """Every order-5 tournament (40 true), the order-13 and order-25 bordered
    tournaments and a relabelling of the latter: the same (verdict, a)."""
    verdicts = []
    for mask in range(1 << 10):
        a = _tournament_from_mask(5, mask)
        verdicts.append(ew_tournament_check(a))
        assert verdicts[-1] == ref_ew_tournament_check(a)
    assert Counter(verdicts) == {(False, None): 984, (True, 0): 40}
    shuffled = relabel(tournament25, random.Random(2501))
    assert shuffled != tournament25
    for a in (tournament13, tournament25, shuffled):
        assert ew_tournament_check(a) == ref_ew_tournament_check(a)
        assert ew_tournament_check(a)[0]


def test_ew_split_matches_reference():
    """ew_split on the rows of every order-5 tournament gives the reference's
    split parameter, and None where its verdict is false."""
    for mask in range(1 << 10):
        rows = _tournament_rows(5, mask)
        a_param = ew_split(rows)
        expected = ref_ew_tournament_check(Tournament(IntMatrix.from_rows(rows)))
        assert (a_param is not None, a_param) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.integers(5, 21).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    )
)
def test_bordered_gram_identities(case):
    """The identities ew_tournament_check rests on, for any tournament A of
    order n with out-degrees d and S its bordered matrix: S^TS = SS^T; row 0
    of S meets row i+1 in 2d_i - (n - 1); and for i != j,
    (SS^T)_{i+1,j+1} = 4(AA^T)_ij - 2d_i - 2d_j + n + 1."""
    a = _tournament_from_mask(*case)
    n = a.order
    d = a.matrix.row_sums()
    s = skew_from_tournament(a).to_rows()
    sst = ref_gram(s)
    assert sst == ref_gram(list(zip(*s)))
    aat = ref_gram(a.matrix.to_rows())
    for i in range(n):
        assert sst[0][i + 1] == 2 * d[i] - (n - 1)
        for j in range(n):
            if i != j:
                assert sst[i + 1][j + 1] == 4 * aat[i][j] - 2 * d[i] - 2 * d[j] + n + 1


@pytest.mark.parametrize("n", [6, 10, 14])
def test_packed_checks_match_reference_on_random_squares(n):
    rng = random.Random(1400 + n)
    for _ in range(40):
        assert_checks_match_reference(
            IntMatrix.from_rows([[rng.choice((1, -1)) for _ in range(n)] for _ in range(n)])
        )


def test_packed_checks_match_reference_on_circulants():
    """Every order-13 Barba hit and its double, and circulants that are not Barba."""
    hits = search_circulant_barba(13)
    assert len(hits) == 104
    for r in hits:
        assert is_barba(r)
        assert_checks_match_reference(r)
        assert_checks_match_reference(barba_double(r))
    rng = random.Random(13)
    for n in (5, 7, 13, 14, 21):
        for _ in range(20):
            r = circulant([rng.choice((1, -1)) for _ in range(n)])
            assert_checks_match_reference(r)
    assert not is_barba(circulant([1] * 13))


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
