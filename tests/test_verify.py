"""Structure recognition and closed-form conformance checks."""

import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from doptsnf import kernels
from doptsnf.designs import (
    BlockEwSpec,
    Tournament,
    barba_double,
    build_example_66,
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
from doptsnf.search import search_circulant_barba
from doptsnf.snf import smith_normal_form
from doptsnf.verify import (
    EwReport,
    CLAIMS,
    TheoremCheck,
    _ew_split,
    block_determinant_formula,
    ew_degree_template,
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
from oracles import one_step_bareiss, ref_components, tournament_rows


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


def test_columns_failing_after_the_rows_raise(monkeypatch, example26):
    """By the equality case the column analysis cannot fail once the rows
    passed; if it does, ew_gram_check raises instead of reporting it."""
    calls = []
    analyze = verify._analyze_gram

    def second_fails(g, n):
        calls.append(n)
        return analyze(g, n) if len(calls) == 1 else (None, None, "forced")

    monkeypatch.setattr(verify, "_analyze_gram", second_fails)
    with pytest.raises(RuntimeError, match="^rows pass the Gram analysis but columns fail it: forced$"):
        ew_gram_check(example26)
    assert calls == [26, 26]


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
    assert ev.passed and ev.claim_id == "block-squarefree"
    assert ev.computed == (1, 32, 2080, 33, 30, 183)
    assert ev.predicted == (1, 32, 2080, 33, 30, 183)


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
    assert (ev.computed, ev.predicted, ev.detail) == ((2,), (14,), "factor count")
    assert not ev.passed


def test_block_constraints_prime_square_with_t_not_squarefree():
    """At n = 50, 4t+1 = 49 = 7^2 but t = 12 = 2^2 * 3: only the leading
    factors (1, 2) are predicted."""
    cons = predicted_block_snf(12, 7, 7)
    assert (cons.case, cons.p, cons.gcd_r, cons.full_prediction) == ("prime-square", 7, 7, None)
    ev = cons.evaluate((1, 2) + (4,) * 48)
    assert ev.passed and ev.claim_id == "block-prime-square"
    assert (ev.computed, ev.predicted) == ((1, 2), (1, 2))
    assert ev.detail == "leading factors only (t is not square-free)"
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
    # r1^2 + r2^2 = 2 = 8t + 2 at t = 0, but no design has order 2 here
    with pytest.raises(ValueError, match="^t must be >= 1$"):
        predicted_block_snf(0, 1, 1)


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
    still passed would be comparing the engine with itself. Every route
    without transforms, the Gram probe's too, ends in snf._factors."""
    e66 = smith_normal_form(example66).factors
    engine = snf._factors
    monkeypatch.setattr(snf, "_factors", lambda a: tuple(3 * f for f in engine(a)))
    assert smith_normal_form(IntMatrix.identity(2)).factors == (3, 3)
    assert smith_normal_form(build_example_66()).factors == tuple(3 * f for f in e66)
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
    "design, claim, factor",
    [
        pytest.param("example66", "block-squarefree", 3, id="example66-block-squarefree"),
        pytest.param("example66", "ew-head", 9, id="example66-ew-head"),
        pytest.param("example26", "block-prime-square", 3, id="example26-block-prime-square"),
        pytest.param("example26", "ew-head", 2**13, id="example26-ew-head"),
    ],
)
def test_claims_fail_on_a_wrong_certificate(monkeypatch, request, design, claim, factor):
    """With the Gram probe's |det| off by a factor, each claim on example66
    and example26 fails, or the probe's s_n or an elimination contradicts
    it. ew-head reads only the first two factors, and a prime of exponent 1
    in |det| goes into the last factor with no elimination, so example66 is
    given 9 rather than 3: 3^2 is eliminated modulo 3, and no exponent of 3
    is seen. example26's s_n gives the core's 2 the top exponent 1, so its
    12 exponents of 2 sit on the last factors; 2^13 more make all 25 of
    them 1, the first included."""
    probe = snf._gram_abs_det

    def off(*args):
        d, sn, *rest = probe(*args)
        return factor * d, sn, *rest

    monkeypatch.setattr(snf, "_gram_abs_det", off)
    try:
        assert not theorem_conformance(request.getfixturevalue(design), claim).passed
    except ArithmeticError:
        pass


def no_kernel(rows, *args):
    raise AssertionError("a Bareiss determinant or the Euclidean engine ran")


def test_ew_claims_run_no_bareiss(monkeypatch, skew14, skew26, example26, example66):
    """No claim on an EW design runs a Bareiss determinant or the Euclidean
    engine: the Gram of an EW design of order n is two blocks D((n - 2)I + 2J)D, from which the probe proves
    |det| and s_n at every order, so the local engine gives the SNF."""
    for kernel in ("bareiss_determinant", "smith_reduce"):
        monkeypatch.setattr(kernels, kernel, no_kernel)
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


def test_ew_abs_det_certifies_every_ew_fixture(witnesses5, skew14, skew26, example26, example66):
    """On the bordered order-6 witnesses, the Barba doubles of orders 10
    and 26, the skew and example designs and the order-2 design,
    _ew_abs_det(n) is |det X| by Bareiss. The SNF engine's Gram probe
    proves |det X| apart from the closed form, and both equal the tests'
    one-step Bareiss on X."""
    doubles = [barba_double(r) for order in (5, 13) for r in search_circulant_barba(order)]
    assert len(doubles) == 114
    designs = [skew_from_tournament(w) for w in witnesses5] + doubles
    designs += [skew14, skew26, example26, example66, IntMatrix.from_rows([[1, 1], [1, -1]])]
    for x in designs:
        assert ew_gram_check(x).verdict
        n = x.rows
        rows = x.to_rows()
        assert verify._ew_abs_det(n) == abs(kernels.bareiss_determinant(rows)[0])
        probe = snf._gram_abs_det(rows, kernels._sign_masks(rows))
        assert probe[0] == verify._ew_abs_det(n) == abs(one_step_bareiss(rows))


def test_skew26_is_not_equivalent_to_example26(example26, skew26):
    """The paper's application on two real EW designs of order 26: both pass
    the Gram check, and their Smith normal forms differ, so no signed
    permutations carry one to the other."""
    assert ew_gram_check(example26).verdict and ew_gram_check(skew26).verdict
    assert smith_normal_form(example26).factors != smith_normal_form(skew26).factors


@functools.cache
def skew_two_circulant_designs(v: int) -> list[tuple[tuple[int, ...], tuple[int, ...], IntMatrix]]:
    """Every (r1, r2, X) with X = [[R1, R2], [-R2^T, R1^T]] an EW design of
    order 2v, R1 and R2 circulant and R1 skew (r1[0] = 1, r1[v - k] =
    -r1[k]), in the order of r2 over {1, -1}^v. X is EW iff the rows'
    autocorrelations sum to 2 at each lag 1..(v-1)/2, as the other lags
    mirror these, so each r2 is joined on its own autocorrelations with the
    skew rows r1 indexed by 2 minus theirs."""
    h = (v - 1) // 2
    by_need = {}
    for half in itertools.product((1, -1), repeat=h):
        r1 = (1, *half, *(-x for x in reversed(half)))
        need = tuple(2 - c for c in kernels.autocorrelations(r1)[1 : h + 1])
        by_need.setdefault(need, []).append(r1)
    designs = []
    for r2 in itertools.product((1, -1), repeat=v):
        for r1 in by_need.get(tuple(kernels.autocorrelations(r2)[1 : h + 1]), ()):
            designs.append((r1, r2, BlockEwSpec(circulant(r1), circulant(r2)).assemble()))
    return designs


@pytest.mark.parametrize("v, b, count, plus", [(7, 5, 28, 14), (13, 7, 208, 104)])
def test_main_theorem_on_every_skew_two_circulant_design(example26, v, b, count, plus):
    """The paper's theorem on every skew-type two-circulant design of order
    n = 2v = 14 and 26. R1 sums to 1 and R2 to +-b, with b^2 = 8t + 1. At
    n = 26 no design has example26's diagonal: the paper's non-equivalence
    argument, against real skew designs of that order."""
    designs = skew_two_circulant_designs(v)
    assert len(designs) == count
    assert {sum(r1) for r1, _, _ in designs} == {1}
    assert Counter(sum(r2) for _, r2, _ in designs) == {b: plus, -b: count - plus}
    t = (v - 1) // 2
    assert b * b == 8 * t + 1
    e26 = smith_normal_form(example26).factors
    for _, _, x in designs:
        main = theorem_conformance(x, "main")
        assert main.passed and theorem_conformance(x, "scaled-inverse").passed
        if x.rows == example26.rows:
            assert main.computed != e26


@pytest.mark.parametrize(
    "v, step, count, ranks",
    [(7, 1, 28, {3: (7, 8)}), (13, 4, 52, {2: (13, 14), 3: (13, 14)})],
)
def test_tournament_claims_on_skew_two_circulant_designs(v, step, count, ranks):
    """The tournament statements on the bordered tournament A of every
    step-th skew two-circulant design of order 2v; ranks maps each prime
    p | t to the GF(p) ranks of (A + I, A)."""
    sample = skew_two_circulant_designs(v)[::step]
    assert len(sample) == count
    for _, _, x in sample:
        a = tournament_from_skew(normalize_skew_to_border(x))
        for claim in ("border-link", "aplusi-head", "tournament-snf", "a2a-tail"):
            assert theorem_conformance(a.matrix, claim).passed, claim
        for p, want in ranks.items():
            report = p_rank_report(a, p)
            assert report.passed and (report.rank_a_plus_i, report.rank_a) == want


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


@pytest.mark.parametrize(
    "fixture, claim",
    [pytest.param("skew26", claim, id=claim) for claim in SKEW_CLAIMS]
    + [
        pytest.param(fixture, claim, id=f"{fixture}-{claim}")
        for fixture, claims in (
            ("example26", ("ew-head", "block-prime-square")),
            ("skew14", ("ew-head", "block-squarefree")),
            ("example66", ("ew-head", "block-squarefree")),
            ("skew26", ("block-prime-square",)),
        )
        for claim in claims
    ],
)
def test_skew_claims_build_one_gram_product(monkeypatch, request, fixture, claim):
    # By the equality case the row Gram matrix decides the EW test alone, so
    # no EW claim builds X^TX; the SNF engine's own Gram probe packs its rows
    # with kernels._mask_gram and is not counted here.
    x = request.getfixturevalue(fixture)
    sizes = []

    def counting_gram(rows):
        sizes.append(len(rows))
        return kernels.sign_gram(rows)

    monkeypatch.setattr(verify, "sign_gram", counting_gram)
    assert theorem_conformance(x, claim).passed
    assert sizes == [x.rows]


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
    # no claim, so no t >= 1 refusal: at t = 0 the off-diagonal sums are
    # +-sqrt(8t+1) = +-1
    order_2 = IntMatrix.from_rows([[1, 1], [-1, 1]])
    assert normalized_block_row_sums(order_2) == (1, 1, 1, -1)
    assert_checks_match_reference(order_2)


# ---------------------------------------------------------------------------
# The popcount Gram checks against a reference on kernels.matmul


def ref_gram(rows):
    return kernels.matmul(rows, list(zip(*rows)))


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


def tournament_from_mask(order, mask):
    """The Tournament of a search mask, decoded by the oracle."""
    return Tournament(IntMatrix.from_rows(tournament_rows(order, mask)))


def beaten_by_masks(rows):
    """_ew_split's argument for a tournament's 0/1 rows: bit j of mask i is
    set iff rows[j][i], that is iff j -> i."""
    return [sum(row[i] << j for j, row in enumerate(rows)) for i in range(len(rows))]


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
    same block row sums, and the same exceptions with the same messages.

    Then the equality case: x and x^T get the same verdict, with the column
    halves of x the row halves of x^T, and a claim that reads only the rows
    refuses a non-EW x with ew_gram_check's reason."""
    assert outcome(ew_gram_check, x) == outcome(ref_ew_gram_check, x)
    assert outcome(ew_gram_check, x, True) == outcome(ref_ew_gram_check, x, True)
    assert outcome(is_barba, x) == outcome(ref_is_barba, x)
    assert outcome(normalized_block_row_sums, x) == outcome(ref_normalized_block_row_sums, x)
    rep, rep_t = ew_gram_check(x), ew_gram_check(x.transpose())
    assert rep.verdict == rep_t.verdict
    if rep.verdict:
        assert rep.clique_partition_cols == rep_t.clique_partition_rows
    else:
        refusal = (PreconditionError, f"input lacks the EW Gram structure ({rep.reason})")
        for claim in ("ew-head", "block-squarefree"):
            assert outcome(theorem_conformance, x, claim) == refusal


def test_packed_checks_match_reference_on_designs(example26, example66, skew14):
    for x in (example26, example66, skew14):
        assert ew_gram_check(x).verdict
        assert_checks_match_reference(x)


def test_packed_checks_match_reference_on_bordered_tournaments():
    """Every order-6 bordered tournament: 40 EW, the rest failing on rows."""
    verdicts = []
    for mask in range(1 << 10):
        x = skew_from_tournament(tournament_from_mask(5, mask))
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
        # the first half passes; the second, rooted at row 1, fails
        (hand_gram(6, HALVES, (1, 4, 0)), (None, None, "Gram block is not a clique at (1,4)")),
        (
            hand_gram(6, HALVES, (2, 4, -2)),
            (None, None, "Gram signs are not switching-consistent at (2,4)"),
        ),
    ],
    ids=[
        "halves", "entry-4", "three", "unequal", "not-clique", "signs", "gap",
        "second-not-clique", "second-signs",
    ],
)
def test_analyze_gram_reasons_match_the_union_find_reference(g, expected):
    """Hand-built Gram matrices reach each branch of the two-clique analysis.
    The halves interleave, and the path 0-6-4-2 is reached out of index
    order, so both the order of the halves and of their members count."""
    assert verify._analyze_gram(g, len(g)) == ref_analyze_gram(g, len(g)) == expected


@st.composite
def perturbed_two_cliques(draw):
    """(n, halves, entries) for hand_gram: two interleaved halves of range(n)
    with random signs, and at most one entry moved: a pair within a half set
    to 0 or negated, or a pair across the halves set to +-2."""
    n = draw(st.sampled_from((6, 10, 14, 18)))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    halves = tuple({i: signs[i] for i in part} for part in (perm[: n // 2], perm[n // 2 :]))
    kind = draw(st.sampled_from(("none", "zero", "negate", "cross")))
    if kind == "none":
        return n, halves, ()
    if kind == "cross":
        i, j = (draw(st.sampled_from(sorted(half))) for half in halves)
        return n, halves, ((i, j, draw(st.sampled_from((2, -2)))),)
    half = draw(st.sampled_from(halves))
    i, j = draw(st.lists(st.sampled_from(sorted(half)), min_size=2, max_size=2, unique=True))
    return n, halves, ((i, j, 0 if kind == "zero" else -2 * half[i] * half[j]),)


HALVES_10 = ({0: 1, 2: -1, 5: 1, 7: -1, 8: 1}, {1: -1, 3: 1, 4: -1, 6: 1, 9: 1})


@settings(max_examples=300, deadline=None)
@given(perturbed_two_cliques())
# not a clique at (0,7), then at (1,6): the second half fails after the first passes
@example((10, HALVES_10, ((0, 7, 0),)))
@example((10, HALVES_10, ((6, 1, 0),)))
# switching-consistent at (2,5) and (3,4): each pair's second member follows
# its first in the half, the first place a sign loop can look
@example((10, HALVES_10, ((5, 2, 0),)))
@example((10, HALVES_10, ((3, 4, 2),)))
def test_analyze_gram_finds_a_moved_entry_where_the_reference_does(case):
    """One moved entry, in either half or across, fails with the reason and
    the location the union-find reference gives; with none both pass."""
    n, halves, entries = case
    g = hand_gram(n, halves, *entries)
    assert verify._analyze_gram(g, n) == ref_analyze_gram(g, n)


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
        a = tournament_from_mask(5, mask)
        verdicts.append(ew_tournament_check(a))
        assert verdicts[-1] == ref_ew_tournament_check(a)
    assert Counter(verdicts) == {(False, None): 984, (True, 0): 40}
    shuffled = relabel(tournament25, random.Random(2501))
    assert shuffled != tournament25
    for a in (tournament13, tournament25, shuffled):
        assert ew_tournament_check(a) == ref_ew_tournament_check(a)
        assert ew_tournament_check(a)[0]


def test_ew_split_matches_reference():
    """_ew_split on the masks of every order-5 tournament gives the
    reference's split parameter, and None where its verdict is false."""
    for mask in range(1 << 10):
        rows = tournament_rows(5, mask)
        a_param = _ew_split(beaten_by_masks(rows))
        expected = ref_ew_tournament_check(Tournament(IntMatrix.from_rows(rows)))
        assert (a_param is not None, a_param) == expected


def test_ew_split_refuses_a_split_size_that_fails_the_quadratic(monkeypatch):
    """At order 9, t = 2, no split size solves a^2 - 5a + 2 = 0, so a true
    Gram verdict there contradicts the identities and raises."""
    halves = (tuple(range(5)), tuple(range(5, 10)))
    monkeypatch.setattr(verify, "_analyze_gram", lambda g, n: (halves, [1] * n, ""))
    with pytest.raises(RuntimeError, match="^split size 0 fails the quadratic at t = 2$"):
        _ew_split([0] * 9)


def assert_mask_split_matches_reference(a):
    """The bordered masks' popcount Gram is SS^T by matmul, and _ew_split on
    a's masks gives ref_ew_tournament_check's verdict and a."""
    rows = a.matrix.to_rows()
    masks = beaten_by_masks(rows)
    bordered = [0] + [1 | m << 1 for m in masks]
    assert kernels._mask_gram(bordered, a.order + 1) == ref_gram(skew_from_tournament(a).to_rows())
    a_param = _ew_split(masks)
    assert (a_param is not None, a_param) == ref_ew_tournament_check(a)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(5, 21).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    )
)
def test_ew_split_matches_reference_on_drawn_tournaments(case):
    assert_mask_split_matches_reference(tournament_from_mask(*case))


def test_ew_split_matches_reference_on_ew_tournaments(tournament13, tournament25):
    """The order-13 and order-25 EW tournaments, a relabelling of each and
    their transposes: true verdicts, with the reference's a."""
    rng = random.Random(2502)
    for a in (tournament13, tournament25):
        for b in (a, relabel(a, rng), Tournament(a.matrix.transpose())):
            assert_mask_split_matches_reference(b)
            assert _ew_split(beaten_by_masks(b.matrix.to_rows())) is not None


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
    a = tournament_from_mask(*case)
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


def test_is_barba_settles_the_columns_by_line_sums():
    """Negating column j of R adds nothing to RR^T = sum_j c_j c_j^T, but
    moves that column's sum off the common value, so R^TR is no longer
    (n-1)I + J: the line-sum test alone can refuse these."""
    hits = search_circulant_barba(13)
    assert len(hits) == 104
    for k, r in enumerate(hits):
        j = k % 13
        rows = [[-v if c == j else v for c, v in enumerate(row)] for row in r.to_rows()]
        negated = IntMatrix.from_rows(rows)
        assert ref_gram(rows) == ref_gram(r.to_rows())
        assert not is_barba(negated)
        assert not ref_is_barba(negated)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_is_barba_matches_reference_on_every_small_square(n):
    """All 2^(n^2) +-1 squares of order n. Both of order 1 are Barba, and
    none of order 2 or 3 is: at order 2 an off-diagonal entry of RR^T is
    even, and at order 3 det RR^T would be 20, which is not a square."""
    verdicts = []
    for bits in range(1 << (n * n)):
        rows = [[1 - 2 * (bits >> (i * n + j) & 1) for j in range(n)] for i in range(n)]
        r = IntMatrix.from_rows(rows)
        verdicts.append(is_barba(r))
        assert verdicts[-1] == ref_is_barba(r)
    assert sum(verdicts) == {1: 2, 2: 0, 3: 0}[n]


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
    with pytest.raises(ValueError, match="^t must be >= 1$"):
        existence_filter(0)


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
