"""Acceptance gate: one numbered criterion per test.

Every test prints a single ``[criterion-NN] PASS|FAIL`` line that
survives pytest's capture (via capsys.disabled()), then asserts. Golden
numbers are written out literally so a regression cannot hide behind a
helper that drifted with the code under test.
"""

import itertools
import math
import random
import time

from doptsnf import kernels
from doptsnf.designs import (
    BlockEwSpec,
    build_example_26,
    build_example_66,
    normalize_skew_to_border,
    skew_from_tournament,
    tournament_from_skew,
)
from doptsnf.exactmat import IntMatrix, circulant, determinant, rank_mod_p
from doptsnf.kernels import autocorrelations
from doptsnf.snf import smith_normal_form
from doptsnf.verify import (
    block_determinant_formula,
    ew_gram_check,
    ew_tournament_check,
    predicted_block_snf,
    predicted_snf_skew_ew,
    scaled_inverse_check,
)
from oracles import minor_gcd

GOLDEN_26 = (1,) + (2,) * 13 + (12,) * 10 + (60, 60)
GOLDEN_66 = (1,) + (2,) * 31 + (8,) * 4 + (32,) * 29 + (2080,)


def announce(capsys, num, ok, msg=""):
    with capsys.disabled():
        tag = "PASS" if ok else "FAIL"
        suffix = f": {msg}" if msg else ""
        print(f"\n[criterion-{num:02d}] {tag}{suffix}")
    assert ok, f"criterion {num:02d} failed: {msg}"


def test_criterion_01_golden_snf_order_26(capsys):
    t0 = time.perf_counter()
    factors = smith_normal_form(build_example_26()).factors
    elapsed = time.perf_counter() - t0
    ok = factors == GOLDEN_26 and elapsed < 1.0
    announce(capsys, 1, ok, f"diagonal 1, 2^13, 12^10, 60^2 in {elapsed * 1000:.0f} ms")


def test_criterion_02_golden_snf_order_66(capsys):
    t0 = time.perf_counter()
    factors = smith_normal_form(build_example_66()).factors
    elapsed = time.perf_counter() - t0
    ok = factors == GOLDEN_66 and elapsed < 30.0
    announce(capsys, 2, ok, f"diagonal 1, 2^31, 8^4, 32^29, 2080 in {elapsed * 1000:.0f} ms")


def test_criterion_03_determinant_bound(capsys, example26):
    det = determinant(example26)
    ok = abs(det) == 2 * 25 * 24**12
    announce(capsys, 3, ok, f"|det| = {abs(det)} = 2 * 25 * 24^12")


def test_criterion_04_main_theorem_t1(capsys, witnesses5):
    failures = []
    for w in witnesses5:
        s = skew_from_tournament(w)
        a_plus_i = w.matrix + IntMatrix.identity(5)
        if smith_normal_form(s).factors != (1, 2, 2, 2, 2, 10):
            failures.append("skew diagonal")
        if smith_normal_form(a_plus_i).factors != (1, 1, 1, 1, 5):
            failures.append("A+I diagonal")
        if smith_normal_form(w.matrix).factors != (1, 1, 1, 1, 3):
            failures.append("A diagonal")
        if determinant(w.matrix) != 3 or determinant(a_plus_i) != 5:
            failures.append("determinants")
    ok = bool(witnesses5) and not failures
    announce(
        capsys, 4, ok,
        f"{len(witnesses5)} witnesses, diagonals (1,2,2,2,2,10)/(1,1,1,1,5)/(1,1,1,1,3)"
        + (f"; failures: {sorted(set(failures))}" if failures else ""),
    )


def test_criterion_05_quadratic_parameter(capsys, witnesses5):
    seen = set()
    ok = True
    for w in witnesses5:
        verdict, a = ew_tournament_check(w)
        seen.add(a)
        if not verdict or a not in (0, 3) or a * a - 3 * a != 0:
            ok = False
        g = w.matrix @ w.matrix.transpose()
        # closed-form determinant at t=1 with the extracted parameter
        poly = -a * a + 3 * a + 9
        if determinant(g) != 9 or poly != 9:
            ok = False
    announce(capsys, 5, ok, f"extracted a values {sorted(seen)} are roots of a^2-3a=0; det(AA^T)=9")


def test_criterion_06_a_squared_plus_a_tail(capsys, witnesses5):
    ok = True
    for w in witnesses5:
        m = w.matrix @ w.matrix + w.matrix
        if smith_normal_form(m).factors[-2:] != (1, 15):
            ok = False
    announce(capsys, 6, ok, "last two factors of A^2+A are (1, 15) on all 40 witnesses")


def test_criterion_07_scaled_inverse_t1(capsys, witnesses5):
    ok = True
    for w in witnesses5:
        s = skew_from_tournament(w)
        chk = scaled_inverse_check(s)
        if not chk.passed or chk.computed != (16, 10, 0):
            ok = False
        adj, _ = kernels.adjugate(s.to_rows())
        if not {abs(v) for row in adj for v in row} <= {16, 32, 48, 64}:
            ok = False
    announce(capsys, 7, ok, "adj entries in +-{16,32,48,64}, gcd 16, last factor 10")


def test_criterion_08_minor_gcd_oracle(capsys):
    rng = random.Random(20260814)
    ok = True
    for _ in range(200):
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        )
        factors = smith_normal_form(m).factors
        prev = 1
        expected = []
        for i in range(1, 5):
            d = minor_gcd(m, i)
            if d == 0:
                expected.extend([0] * (4 - len(expected)))
                break
            expected.append(d // prev)
            prev = d
        if factors != tuple(expected):
            ok = False
    announce(capsys, 8, ok, "200 random 4x4 matrices agree with the minor-gcd oracle")


def test_criterion_09_transform_soundness(capsys):
    rng = random.Random(20260815)
    ok = True
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        res = smith_normal_form(m, want_transforms=True)
        if determinant(res.left) not in (1, -1) or determinant(res.right) not in (1, -1):
            ok = False
        prod = res.left @ m @ res.right
        for i in range(rows):
            for j in range(cols):
                want = res.factors[i] if i == j else 0
                if prod.at(i, j) != want:
                    ok = False
        for i in range(len(res.factors) - 1):
            a, b = res.factors[i], res.factors[i + 1]
            if a == 0 and b != 0 or (a != 0 and b % a != 0):
                ok = False
    announce(capsys, 9, ok, "PAQ = diag(factors) with unimodular P, Q on 500 random matrices")


def test_criterion_10_squarefree_block_structure(capsys, example66):
    rep = ew_gram_check(example66)
    r1, r2 = rep.row_block_sums
    cons = predicted_block_snf(16, r1, r2)
    ev = cons.evaluate(smith_normal_form(example66).factors)
    ok = (
        rep.verdict
        and (r1, r2) == (11, 3)
        and r1 * r1 + r2 * r2 == 130
        and math.gcd(r1, r2) == 1
        and cons.case == "squarefree"
        and (cons.ell, cons.q) == (4, 1)
        and ev.passed
        and ev.computed[5] == 183
    )
    announce(
        capsys, 10, ok,
        f"(r1, r2) = ({r1}, {r2}), norm 130, gcd 1, head/tail counts and weighted sum {ev.computed[5]}",
    )


def test_criterion_11_prime_square_block_structure(capsys, example26):
    rep = ew_gram_check(example26)
    r1, r2 = rep.row_block_sums
    cons = predicted_block_snf(6, r1, r2)
    ev = cons.evaluate(smith_normal_form(example26).factors)
    ok = (
        rep.verdict
        and (r1, r2) == (5, 5)
        and math.gcd(r1, r2) == 5
        and cons.case == "prime-square"
        and cons.p == 5
        and cons.full_prediction == GOLDEN_26
        and ev.passed
    )
    announce(capsys, 11, ok, f"(r1, r2) = ({r1}, {r2}), gcd 5, full diagonal matches the p-branch")


def test_criterion_12_conditional_p_rank(capsys):
    """Witnesses of order 13 = 4t + 1 with p = t = 3: the bordered tournaments
    of the EW designs [[R1, R2], [-R2^T, R1^T]] of order 14 with R1, R2
    circulant and R1 skew. Such a pair is EW iff the two rows'
    autocorrelations sum to 2 at each lag 1..3 (lags 4..6 mirror them)."""
    designs = []
    for half in itertools.product((1, -1), repeat=3):
        r1 = (1, *half, *(-v for v in reversed(half)))  # r1[7 - k] = -r1[k]
        c1 = autocorrelations(r1)
        for r2 in itertools.product((1, -1), repeat=7):
            c2 = autocorrelations(r2)
            if all(c1[s] + c2[s] == 2 for s in (1, 2, 3)):
                designs.append((sum(r2), BlockEwSpec(circulant(r1), circulant(r2)).assemble()))
    witnesses = {}
    for _, x in designs:
        w = tournament_from_skew(normalize_skew_to_border(x))
        witnesses[w.matrix] = w
    plus = sum(1 for r2_sum, _ in designs if r2_sum == 5)  # r1 sums to 1, so r2 to +-5
    ok = (len(designs), plus, len(witnesses)) == (28, 14, 14)
    for w in witnesses.values():
        a_plus_i = w.matrix + IntMatrix.identity(13)
        if not ew_tournament_check(w)[0] or (rank_mod_p(a_plus_i, 3), rank_mod_p(w.matrix, 3)) != (7, 8):
            ok = False
    announce(
        capsys, 12, ok,
        f"{len(designs)} designs, {len(witnesses)} EW tournaments of order 13, all with 3-ranks (7, 8)",
    )


def test_criterion_13_block_determinant_identity(capsys):
    rng = random.Random(20260816)
    ok = True
    for _ in range(1000):
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        alpha = rng.randint(-8, 8)
        beta = rng.randint(-8, 8)
        gamma = rng.randint(-8, 8)
        top = [[alpha * (i == j) + beta for j in range(a)] + [gamma] * b for i in range(a)]
        bot = [[gamma] * a + [alpha * (i == j) + beta for j in range(b)] for i in range(b)]
        lit = determinant(IntMatrix.from_rows(top + bot))
        if lit != block_determinant_formula(alpha, beta, gamma, a, b):
            ok = False
    announce(capsys, 13, ok, "1000 random block instances match the closed form")


def test_criterion_14_non_equivalence(capsys, example26, example66):
    f26 = smith_normal_form(example26).factors
    f66 = smith_normal_form(example66).factors
    ok = f26 != predicted_snf_skew_ew(6) and f66 != predicted_snf_skew_ew(16)
    announce(capsys, 14, ok, "computed diagonals differ from the generic skew-type forms")
