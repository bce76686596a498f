"""Smith normal form engines vs. independent oracles.

The minor-gcd oracle of ``oracles.py`` enumerates every i x i minor
directly, each by its own one-step Bareiss, so it shares no code with either
elimination engine; agreement between them on random input is the core
soundness argument. The local engine is also checked against
the Euclidean one, and its product against |det|.
"""

import hashlib
import math
from functools import cache
import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from doptsnf import kernels, snf
from doptsnf.designs import BlockEwSpec, barba_double, build_example_26, build_example_66
from doptsnf.exactmat import (
    IntMatrix,
    block2x2,
    circulant,
    determinant,
    kronecker,
    trial_divide,
)
from doptsnf.snf import (
    LOCAL_MIN_ORDER,
    TRIAL_BOUND,
    SnfResult,
    local_smith_form,
    smith_normal_form,
)
from doptsnf.search import search_circulant_barba
from doptsnf.verify import ew_gram_check
from oracles import MINOR_GCD_SIZE_LIMIT, minor_gcd, one_step_bareiss, rank_mod_p, zero_one_core


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def factors_via_minor_gcds(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors as ratios of consecutive minor gcds."""
    size = min(m.rows, m.cols)
    out = []
    prev = 1
    for i in range(1, size + 1):
        d = minor_gcd(m, i)
        if d == 0:
            out.extend([0] * (size - len(out)))
            break
        out.append(d // prev)
        prev = d
    return tuple(out)


def test_known_forms():
    assert smith_normal_form(IntMatrix.identity(3)).factors == (1, 1, 1)
    assert smith_normal_form(IntMatrix.zeros(2, 3)).factors == (0, 0)
    assert smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])).factors == (1, 6)
    assert smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).factors == (2, 4)
    assert smith_normal_form(IntMatrix.from_rows([[5]])).factors == (5,)
    # sign of entries never leaks into the factors
    assert smith_normal_form(IntMatrix.from_rows([[-7]])).factors == (7,)


def test_rectangular_and_rank():
    m = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    res = smith_normal_form(m)
    assert res.factors == (1, 0)
    assert res.rank == 1


def test_result_validates_chain():
    with pytest.raises(ValueError):
        SnfResult(factors=(2, 3))
    with pytest.raises(ValueError):
        SnfResult(factors=(1, -2))
    with pytest.raises(ValueError):
        SnfResult(factors=(0, 2))
    assert SnfResult(factors=(1, 6, 0)).rank == 2  # the rank follows the factors


def test_matches_minor_gcd_oracle():
    rng = random.Random(201)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        assert smith_normal_form(m).factors == factors_via_minor_gcds(m)


def test_transform_soundness(example26, skew14, example66):
    """Taller and wider inputs too: a column operation changes only the
    pivot row and the rows of ``right``, which start at row m, so whether m
    is below or above n decides which rows it touches."""
    rng = random.Random(202)
    randoms = [random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(150)]
    randoms += [random_matrix(rng, 12, 20, -5, 5), random_matrix(rng, 20, 12, -5, 5)]
    for m in randoms + [example26, skew14, example66]:
        res = smith_normal_form(m, want_transforms=True)
        assert res.factors == smith_normal_form(m).factors
        assert determinant(res.left) in (1, -1)
        assert determinant(res.right) in (1, -1)
        prod = res.left @ m @ res.right
        for i in range(m.rows):
            for j in range(m.cols):
                want = res.factors[i] if i == j and i < len(res.factors) else 0
                assert prod.at(i, j) == want


def test_transposition_invariance():
    rng = random.Random(203)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert smith_normal_form(m).factors == smith_normal_form(m.transpose()).factors
        assert smith_normal_form(m).factors == smith_normal_form(-m).factors


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_unimodular_equivalence_fuzz(rows):
    """Left-multiplying by an elementary unimodular matrix never moves the SNF."""
    m = IntMatrix.from_rows(rows)
    base = smith_normal_form(m).factors
    # swap first/last row, then add twice the first row to the last
    e = IntMatrix.identity(m.rows).to_rows()
    e[0], e[-1] = e[-1], e[0]
    swapped = IntMatrix.from_rows(e) @ m
    assert smith_normal_form(swapped).factors == base
    if m.rows > 1:
        e2 = IntMatrix.identity(m.rows).to_rows()
        e2[-1][0] += 2
        sheared = IntMatrix.from_rows(e2) @ m
        assert smith_normal_form(sheared).factors == base


def test_minor_gcd_basics():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert minor_gcd(m, 1) == 2
    assert minor_gcd(m, 2) == 8  # |det| = |16 - 24|
    assert minor_gcd(m, 0) == 1  # documented convention
    with pytest.raises(ValueError):
        minor_gcd(m, -1)
    with pytest.raises(ValueError):
        minor_gcd(m, 3)


def test_minor_gcd_size_guard():
    big = IntMatrix.identity(MINOR_GCD_SIZE_LIMIT + 1)
    with pytest.raises(ValueError):
        minor_gcd(big, 2)
    assert minor_gcd(IntMatrix.identity(MINOR_GCD_SIZE_LIMIT), 2) == 1


def test_jacobi_adjugate_minor_identity():
    """det(adj(A)[I, J]) = (-1)^{sum I + sum J} det(A)^{k-1} det(A[~J, ~I])."""
    rng = random.Random(204)
    n = 5
    trials = 0
    while trials < 40:
        a = random_matrix(rng, n, n, lo=-5, hi=5)
        d = determinant(a)
        if d == 0:
            continue
        adj = IntMatrix.from_rows(kernels.adjugate(a.to_rows())[0])
        k = rng.randint(1, n - 1)
        ii = tuple(sorted(rng.sample(range(n), k)))
        jj = tuple(sorted(rng.sample(range(n), k)))
        comp_rows = tuple(x for x in range(n) if x not in jj)
        comp_cols = tuple(x for x in range(n) if x not in ii)
        lhs = determinant(adj.submatrix(ii, jj))
        sign = -1 if (sum(ii) + sum(jj)) % 2 else 1
        rhs = sign * d ** (k - 1) * determinant(a.submatrix(list(comp_rows), list(comp_cols)))
        assert lhs == rhs
        trials += 1


def test_minor_gcd_first_level_is_entry_gcd():
    rng = random.Random(205)
    for _ in range(30):
        m = random_matrix(rng, 3, 4)
        assert minor_gcd(m, 1) == math.gcd(*(abs(v) for v in m.entries))


def euclidean_factors(m: IntMatrix) -> tuple[int, ...]:
    return tuple(kernels.smith_reduce(m.to_rows(), False)[0])


def diagonal_matrix(diagonal) -> IntMatrix:
    n = len(diagonal)
    return IntMatrix.from_rows([[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)])


def random_pm1(seed: int, n: int, cols: int | None = None) -> IntMatrix:
    """A seeded n x n, or n x cols, +-1 matrix."""
    rng = random.Random(seed)
    width = n if cols is None else cols
    return IntMatrix.from_rows([[rng.choice((1, -1)) for _ in range(width)] for _ in range(n)])


def scrambled(m: IntMatrix, rng: random.Random) -> IntMatrix:
    """m times unimodular matrices on both sides: same SNF, dense entries."""
    n = m.rows
    for _ in range(2):
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                u[i][j] = rng.randint(-2, 2)
        rng.shuffle(u)
        m = IntMatrix.from_rows(u) @ m.transpose()
    return m


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-12, max_value=12), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_local_engine_differential(rows):
    """Below LOCAL_MIN_ORDER, called directly: the local engine agrees with
    the Euclidean engine and the minor-gcd oracle, or hands the input back
    for a reason it states."""
    m = IntMatrix.from_rows(rows)
    want = euclidean_factors(m)
    got = local_smith_form(m.to_rows())
    if got is None:
        d = abs(determinant(m))
        assert d == 0 or trial_divide(d, TRIAL_BOUND)[1] > 1
    else:
        assert got == want
    assert want == factors_via_minor_gcds(m)


def test_local_engine_hand_cases():
    rng = random.Random(206)
    rough = 65537 * 65539  # two primes just above TRIAL_BOUND
    cases = [
        # (diagonal, what the engine gives on it, and on it scrambled)
        # v_2 = 10 and three exponents of at least 1 at k = 1: the next k is
        # max(2, ceil(10/3) + 1) = 5
        ((1, 2, 8, 64), (1, 2, 8, 64), (1, 2, 8, 64)),
        ((3, 6, 6, 12, 36), (3, 6, 6, 12, 36), (3, 6, 6, 12, 36)),
        # the part of det prime to the (n-1)-minor Bareiss ends on goes whole
        # into the last factor, at any exponent; a prime that divides the
        # minor is eliminated modulo p^k
        ((1, 1, 9), (1, 1, 9), (1, 1, 9)),
        ((9, 1, 1), (1, 1, 9), (1, 1, 9)),
        # a rough prime that divides the minor is handed back; which minor
        # Bareiss ends on depends on the matrix, not only on its Smith form
        ((1, 1, 2**5 * 3 * rough), (1, 1, 2**5 * 3 * rough), None),
        ((1, 1, 2, 2 * rough), (1, 1, 2, 2 * rough), None),
        ((rough, 1, 1), None, (1, 1, rough)),
        # the rough cofactor squared across two factors divides every minor
        ((1, rough, rough), None, None),
        # singular
        ((1, 2, 0), None, None),
    ]
    for diagonal, *wants in cases:
        d = diagonal_matrix(diagonal)
        for m, want in zip((d, scrambled(d, rng)), wants):
            assert local_smith_form(m.to_rows()) == want
            if want is not None:
                assert euclidean_factors(m) == want


def exponent_profiles(n: int):
    """p-exponent profiles of n diagonal entries: all equal; many 1s and a
    few large; one large."""
    return st.one_of(
        st.integers(1, 6).map(lambda e: [e] * n),
        st.lists(st.integers(2, 16), min_size=1, max_size=2).map(lambda big: [1] * (n - len(big)) + big),
        st.integers(2, 24).map(lambda e: [0] * (n - 1) + [e]),
    )


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from((2, 3, 5)),
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(exponent_profiles(n), st.lists(st.sampled_from((1, 7, 11)), min_size=n, max_size=n))
    ),
    st.integers(0, 2**32),
)
def test_local_exponents_schedule_gives_the_valuations(p, profile, seed):
    """However the exponents of p spread, each k the schedule picks from
    them gives the valuations of the Euclidean factors: entries p^e u, u a
    unit modulo p, scrambled."""
    exponents, units = profile
    m = scrambled(diagonal_matrix([p**e * u for e, u in zip(exponents, units)]), random.Random(seed))
    want = []
    for f in euclidean_factors(m):
        e = 0
        while f % p == 0:
            f //= p
            e += 1
        want.append(e)
    assert snf._local_exponents(m.to_rows(), p, sum(exponents), 1) == want


def test_local_engine_takes_no_det():
    """The public door proves |det| itself: diag(2, 3) is (1, 6), and a
    second argument, such as a wrong |det| of 30, is refused."""
    assert local_smith_form([[2, 0], [0, 3]]) == (1, 6)
    with pytest.raises(TypeError):
        local_smith_form([[2, 0], [0, 3]], 30)


def paley_two_block(q: int) -> IntMatrix:
    """Two-block matrix on the order-q Paley circulant (order 6q); at q = 11
    this is example66, the only q at which it is a design (see
    test_paley_two_block_is_a_design_only_at_q_11)."""
    residues = {i * i % q for i in range(1, q)}
    a = circulant([0] + [-1 if i in residues else 1 for i in range(1, q)])
    i3, j3 = IntMatrix.identity(3), IntMatrix.all_ones(3)
    iq, jq = IntMatrix.identity(q), IntMatrix.all_ones(q)
    r1 = kronecker(a + iq, j3 - i3) + kronecker(jq - 2 * iq, i3)
    r2 = kronecker(a + iq, j3 - i3) + kronecker(-a + iq, i3)
    return BlockEwSpec(r1, r2).assemble()


def test_paley_two_block_is_a_design_only_at_q_11():
    for q, verdict in ((7, False), (11, True), (19, False)):
        assert ew_gram_check(paley_two_block(q)).verdict is verdict


def test_local_engine_on_the_public_path(example66, monkeypatch):
    assert paley_two_block(11) == example66
    for m in (paley_two_block(19), random_pm1(207, 100)):
        assert m.rows >= LOCAL_MIN_ORDER
        local = local_smith_form(m.to_rows())
        assert local is not None
        assert smith_normal_form(m).factors == local == euclidean_factors(m)
        assert math.prod(local) == abs(determinant(m))
    rough = 65537 * 65539
    # a +-1 input is eliminated as its core, one order smaller
    singular = random_pm1(209, LOCAL_MIN_ORDER + 1).to_rows()
    singular[1] = singular[0]
    handed_back = (
        IntMatrix.from_rows(singular),
        scrambled(diagonal_matrix((1,) * (LOCAL_MIN_ORDER - 2) + (rough, rough)), random.Random(208)),
    )
    for m in handed_back:
        assert local_smith_form(m.to_rows()) is None
    orders = []
    bareiss = kernels.bareiss_determinant
    monkeypatch.setattr(kernels, "bareiss_determinant", lambda a: orders.append(len(a)) or bareiss(a))
    for m in handed_back:
        assert smith_normal_form(m).factors == euclidean_factors(m)
    # both reached the local engine before it handed them back
    assert orders == [LOCAL_MIN_ORDER, LOCAL_MIN_ORDER]


def test_local_engine_never_eliminates_modulo_a_rough_prime(monkeypatch):
    """The rough part of a random square's |det| is prime to the (n-1)-minor
    from Bareiss, so it needs no elimination; a rough part that shares a
    prime with the minor is handed back, not eliminated modulo."""
    calls = []
    eliminate = kernels.local_exponents
    monkeypatch.setattr(kernels, "local_exponents", lambda a, p, k: calls.append(p) or eliminate(a, p, k))
    m = random_pm1(207, 100)
    assert trial_divide(abs(determinant(m)), TRIAL_BOUND)[1] > 1
    assert local_smith_form(m.to_rows()) is not None
    assert calls and max(calls) < TRIAL_BOUND
    calls.clear()
    rough = 65537 * 65539
    assert local_smith_form(diagonal_matrix((rough, 1, 1)).to_rows()) is None
    assert calls == []


def with_rows_copied(m: IntMatrix, *moves) -> IntMatrix:
    """m with row dst replaced by sign * row src, for each (dst, src, sign)."""
    rows = m.to_rows()
    for dst, src, sign in moves:
        rows[dst] = [sign * v for v in rows[src]]
    return IntMatrix.from_rows(rows)


PM1_CASES = {
    "1x1": random_pm1(301, 1, 1),
    "1x7": random_pm1(302, 1, 7),
    "7x1": random_pm1(303, 7, 1),
    "2x2": random_pm1(304, 2, 2),
    "5x9": random_pm1(305, 5, 9),
    "9x5": random_pm1(306, 9, 5),
    "singular-7": with_rows_copied(random_pm1(307, 7, 7), (3, 1, 1), (5, 0, -1)),
    "singular-66": with_rows_copied(random_pm1(308, 66, 66), (1, 0, 1), (2, 0, -1)),
    "order-65": random_pm1(309, 65, 65),
    "order-66": random_pm1(310, 66, 66),
    "order-67": random_pm1(311, 67, 67),
}


@pytest.mark.parametrize("name", PM1_CASES)
def test_zero_one_core_keeps_the_factors(name):
    """A +-1 input without transforms runs its engine on the 0/1 core; the
    factors are those of the Euclidean engine on the uncut input, and of the
    minor-gcd oracle where it reaches."""
    m = PM1_CASES[name]
    factors = smith_normal_form(m).factors
    assert factors == euclidean_factors(m)
    if min(m.rows, m.cols) <= MINOR_GCD_SIZE_LIMIT:
        assert factors == factors_via_minor_gcds(m)
    if m.is_square:
        assert math.prod(factors) == abs(determinant(m))


PM1_RECTANGLES = st.tuples(st.integers(2, 9), st.integers(2, 9)).flatmap(
    lambda shape: st.lists(
        st.lists(st.sampled_from((1, -1)), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@settings(max_examples=200, deadline=None)
@given(PM1_RECTANGLES)
@example([[1, 1], [-1, 1]])
@example([[-1, 1, -1], [1, 1, 1], [-1, -1, 1]])
def test_zero_one_core_from_masks_is_the_oracle(rows):
    """The core read off the -1 masks is the entry-by-entry one, rows that
    start unlike row 0 included."""
    assert snf._zero_one_core(kernels._sign_masks(rows), len(rows[0])) == zero_one_core(rows)


@settings(max_examples=100, deadline=None)
@given(PM1_RECTANGLES)
@example([[1, 1], [-1, 1]])
@example([[-1, 1, -1], [1, 1, 1], [-1, -1, 1]])
def test_xor_rank_of_the_core_bit_rows_is_the_oracle_rank(rows):
    """The rank path's c_0: the XOR rank of the core's bit rows, which are
    never expanded, is the oracle's GF(2) rank of the entry-by-entry core."""
    bits = snf._core_bits(kernels._sign_masks(rows), len(rows[0]))
    assert kernels._xor_rank(bits) == rank_mod_p(zero_one_core(rows), 2)


@pytest.mark.parametrize("name", PM1_CASES)
def test_transforms_of_a_pm1_input_run_on_the_uncut_input(name):
    m = PM1_CASES[name]
    res = smith_normal_form(m, want_transforms=True)
    factors, left, right = kernels.smith_reduce(m.to_rows(), True)
    assert (res.factors, res.left.to_rows(), res.right.to_rows()) == (tuple(factors), left, right)


def test_bareiss_runs_on_the_core_of_a_pm1_input_only(monkeypatch):
    orders = []
    bareiss = kernels.bareiss_determinant
    monkeypatch.setattr(kernels, "bareiss_determinant", lambda a: orders.append(len(a)) or bareiss(a))
    smith_normal_form(random_pm1(312, 66, 66))
    rng = random.Random(313)
    small = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(66)] for _ in range(66)])
    smith_normal_form(small)
    assert orders == [65, 66]


def integer_square(seed: int, n: int) -> IntMatrix:
    """A seeded n x n matrix of entries in -2..2: square, but not +-1."""
    rng = random.Random(seed)
    return IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])


def sylvester_hadamard(order: int) -> IntMatrix:
    """The Sylvester Hadamard matrix of a power-of-2 order: AA^T = order * I."""
    h = IntMatrix.from_rows([[1]])
    while h.rows < order:
        h = kronecker(h, IntMatrix.from_rows([[1, 1], [1, -1]]))
    return h


def two_circulant(r1, r2) -> IntMatrix:
    """[[R1, R2], [-R2^T, R1^T]] on the circulants with first rows r1, r2,
    which commute, so its Gram is two equal diagonal blocks."""
    return BlockEwSpec(circulant(r1), circulant(r2)).assemble()


#: name -> (matrix, want_transforms, and what the engine rule runs: the
#: orders of the rows bareiss_determinant gets, then the number of calls to
#: _mask_gram (one per Gram block of a split +-1 square), local_exponents and
#: smith_reduce)
ENGINE_RULE_CASES = {
    # the Gram of e66 splits into two equal order-33 blocks D(64I + 2J)D,
    # whose det and s_n are read off their entries and rows: s_n gives the
    # core's p = 2 the top exponent 4, so one elimination, modulo 2^4
    "e66": (build_example_66, False, ((), 2, 1, 0)),
    # paley-q19's two equal order-57 blocks are D(104I + 8E + 2J)D, E the
    # classes i = j (mod 3): no Bareiss, and s_n gives the core's 2 the top
    # exponent 3, so two GF(2) ranks settle p = 2, the core's and that of
    # s_n A^-1, with no elimination; 13 has exponent 1 in s_n, so it needs
    # none
    "paley-q19": (lambda: paley_two_block(19), False, ((), 2, 0, 0)),
    # AA^T = 128 I: 128 one-entry blocks, each its own det, and s_n = 128
    # gives the core's 2 the top exponent 6: one elimination
    "hadamard-128": (lambda: sylvester_hadamard(128), False, ((), 128, 1, 0)),
    # a connected Gram leaves the probe nothing to split: Bareiss on the core
    "order-66": (lambda: PM1_CASES["order-66"], False, ((65,), 0, 1, 0)),
    # a rough part of the probe's |det| sends the core straight to the
    # Euclidean engine, with no Bareiss on it (see ENGINE_RULE_TRIAL_BOUNDS)
    "paley-q23-rough": (lambda: paley_two_block(23), False, ((), 2, 0, 1)),
    # two seeded circulants: the Gram's two equal order-33 blocks are no
    # D(aI + bE + cJ)D, so the probe proves nothing, and the core takes the
    # Bareiss route, whose |det| leaves a rough part at TRIAL_BOUND: then
    # the Euclidean engine
    "two-circulant-rough": (
        lambda: two_circulant(*random_pm1(503, 2, 33).to_rows()), False, ((65,), 2, 0, 1)
    ),
    # r1 = r2 = all ones: both Gram blocks are 66J, so d = 0 by their entries
    "two-circulant-singular": (lambda: two_circulant([1] * 33, [1] * 33), False, ((), 2, 0, 1)),
    # below LOCAL_MIN_ORDER the probe picks the engine too: e26's Gram is two
    # order-13 blocks D(24I + 2J)D, and s_n leaves no prime of the core's
    # |det| an elimination
    "e26": (build_example_26, False, ((), 2, 0, 0)),
    # paley-q7 (order 42): two order-21 blocks with classes i = j (mod 3)
    "paley-q7": (lambda: paley_two_block(7), False, ((), 2, 0, 0)),
    # the Barba double of the first circulant Barba matrix of order 13
    "barba-double-26": (lambda: barba_double(search_circulant_barba(13)[0]), False, ((), 2, 0, 0)),
    # below the gate a block that is no D(aI + bE + cJ)D sends the input to
    # the Euclidean engine: a seeded order-26 two-circulant, nonsingular,
    # whose two blocks have no form
    "two-circulant-26": (
        lambda: two_circulant(*random_pm1(511, 2, 13).to_rows()), False, ((), 2, 0, 1)
    ),
    "integer-64": (lambda: integer_square(501, 64), False, ((), 0, 0, 1)),
    "integer-65": (lambda: integer_square(502, 65), False, ((65,), 0, 0, 0)),
    "singular-66": (lambda: PM1_CASES["singular-66"], False, ((65,), 0, 0, 1)),
    "rectangular-5x9": (lambda: PM1_CASES["5x9"], False, ((), 0, 0, 1)),
    "transforms-e26": (build_example_26, True, ((), 0, 0, 1)),
}

#: The trial bound a cell runs with, where it is not TRIAL_BOUND. The |det|
#: of paley-q23's core is 2^4 5^4 31^66 269; at 31 the trial division stops
#: before 31, so the rough part is 31^66 269 (a bound above 31 would reach
#: 269 as the leftover below the next divisor's square, and prove it prime).
ENGINE_RULE_TRIAL_BOUNDS = {"paley-q23-rough": 31}


@pytest.mark.parametrize("name", ENGINE_RULE_CASES)
def test_engine_rule_cell_by_cell(name, monkeypatch):
    """Each cell of the engine rule runs the kernels it names and gives the
    factors of the Euclidean engine on the uncut input."""
    make, transforms, want_calls = ENGINE_RULE_CASES[name]
    m = make()
    want = euclidean_factors(m)
    monkeypatch.setattr(snf, "TRIAL_BOUND", ENGINE_RULE_TRIAL_BOUNDS.get(name, TRIAL_BOUND))
    orders = {}

    def counted(kernel):
        def run(*args):
            orders.setdefault(kernel.__name__, []).append(len(args[0]))
            return kernel(*args)

        return run

    counted_kernels = ("bareiss_determinant", "_mask_gram", "local_exponents", "smith_reduce")
    for kernel in counted_kernels:
        monkeypatch.setattr(kernels, kernel, counted(getattr(kernels, kernel)))
    got = smith_normal_form(m, transforms).factors
    assert got == want
    bareiss, *counts = (orders.get(kernel, []) for kernel in counted_kernels)
    assert (tuple(bareiss), *map(len, counts)) == want_calls


def without(x: int, p: int) -> int:
    """x with every factor p taken out."""
    while x % p == 0:
        x //= p
    return x


@pytest.mark.parametrize("name, top", [("e66", 4), ("paley-q19", 3), ("hadamard-128", 6)])
def test_a_lowered_s_n_only_restarts_the_schedule(monkeypatch, name, top):
    """Each block's s_n halved lowers K = v_2(s_n / 2) by one, from top to
    top - 1 >= 2: the first elimination, modulo 2^(top-1), leaves the
    exponents at top - 1 or above to sum to more than top - 1 each, so the
    schedule goes on, and the factors are the Euclidean engine's."""
    m = IntMatrix.from_rows(S_N_CASES[name]())
    block_sn = snf._block_sn
    monkeypatch.setattr(snf, "_block_sn", lambda rows, form: block_sn(rows, form) // 2)
    ks = []
    local_exponents = kernels.local_exponents
    monkeypatch.setattr(kernels, "local_exponents", lambda a, p, k: ks.append(k) or local_exponents(a, p, k))
    assert smith_normal_form(m).factors == euclidean_factors(m)
    assert ks[0] == top - 1 and len(ks) == 2


def two_adic(x: int) -> int:
    """The exponent of 2 in x != 0."""
    return (x & -x).bit_length() - 1


def refuse_xor_rank(rows):
    raise AssertionError("a GF(2) rank ran")


@pytest.mark.parametrize("name", ["e66", "paley-q19"])
def test_a_halved_s_n_fails_the_integrality_check(monkeypatch, name):
    """s_n halved makes s_n A^-1 no integer matrix at 2: a numerator of its
    columns has a bit below e set, so the probe's inverse rank is 0 before
    any GF(2) rank runs, and K, 4 -> 3 at e66 and 3 -> 2 at paley-q19, goes
    to the schedule."""
    rows = S_N_CASES[name]()
    block_sn = snf._block_sn
    monkeypatch.setattr(snf, "_block_sn", lambda *nums: block_sn(*nums) // 2)
    monkeypatch.setattr(kernels, "_xor_rank", refuse_xor_rank)
    assert gram_probe(rows)[2][1]() == 0


#: Inputs whose core's 2 has the top exponent K = 1 (e26, paley-q7, the
#: Barba double) or K = 2 (a seeded order-18 two-circulant, whose core's
#: exponents of 2 are 0 and 2), so that a doubled s_n gives K = 2 or 3.
DOUBLED_S_N_CASES = {
    "e26": lambda: build_example_26().to_rows(),
    "paley-q7": lambda: paley_two_block(7).to_rows(),
    "barba-double-26": lambda: barba_double(search_circulant_barba(13)[0]).to_rows(),
    "two-circulant-18": lambda: two_circulant(*random_pm1(628, 2, 9).to_rows()).to_rows(),
}


@pytest.mark.parametrize("name", DOUBLED_S_N_CASES)
def test_a_doubled_s_n_never_gives_other_factors(monkeypatch, name):
    """Each block's s_n doubled raises K by one, into the rank path's 2 or 3:
    s_n A^-1 is then even, its GF(2) rank t = 0 sends p = 2 to the
    schedule, and the factors are the Euclidean engine's, unless an
    elimination contradicts |det|."""
    rows = DOUBLED_S_N_CASES[name]()
    want = euclidean_factors(IntMatrix.from_rows(rows))
    block_sn = snf._block_sn
    monkeypatch.setattr(snf, "_block_sn", lambda *nums: 2 * block_sn(*nums))
    _, s_n, (_, inverse_rank) = gram_probe(rows)
    assert 2 <= two_adic(s_n >> 1) <= 3 and inverse_rank() == 0
    try:
        got = smith_normal_form(IntMatrix.from_rows(rows)).factors
    except ArithmeticError:
        return
    assert got == want


@pytest.mark.parametrize("name, p", [("e66", 5), ("paley-q19", 13), ("paley-q19", 2)])
def test_an_s_n_without_a_prime_of_det_is_refused(monkeypatch, name, p):
    """K = 0 at a prime of d: no exponent of p could reach v_p(d). At p = 2
    each block keeps one 2, the one s_n has over the core's largest factor."""
    block_sn = snf._block_sn
    kept = 2 if p == 2 else 1
    monkeypatch.setattr(snf, "_block_sn", lambda rows, form: kept * without(block_sn(rows, form), p))
    with pytest.raises(ArithmeticError, match=f"^the Gram probe's s_n = .* gives {p} the exponent 0:"):
        smith_normal_form(IntMatrix.from_rows(S_N_CASES[name]()))


def gram_is_connected(rows) -> bool:
    """Whether the graph of nonzero entries of AA^T, by dot products, is
    connected: the probe's split test, written apart from it."""
    reached = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(rows)):
            if j not in reached and sum(map(operator.mul, rows[i], rows[j])):
                reached.add(j)
                frontier.append(j)
    return len(reached) == len(rows)


def gram_probe(rows):
    """snf._gram_abs_det on rows, with their -1 masks packed."""
    return snf._gram_abs_det(rows, kernels._sign_masks(rows))


def block_forms(rows) -> list[tuple | None]:
    """The kernels._group_form of each diagonal block of AA^T."""
    n = len(rows)
    masks = kernels._sign_masks(rows)
    blocks = kernels._components(n, lambda i, rest: [2 * (masks[i] ^ masks[j]).bit_count() != n for j in rest])
    return [kernels._group_form(kernels._mask_gram([masks[i] for i in block], n)) for block in blocks]


def assert_probe_contract(rows) -> None:
    """The probe's contract on rows: None on a connected Gram or one with a
    block that is no D(aI + bE + cJ)D; else (0, 0) on a singular square,
    and (|det| by the oracle, the Euclidean engine's s_n) on a nonsingular
    one."""
    probe = gram_probe(rows)
    if gram_is_connected(rows) or None in block_forms(rows):
        assert probe is None
    else:
        d = abs(one_step_bareiss(rows))
        assert probe[:2] == (d, d and euclidean_s_n(rows))


def test_gram_probe_matches_the_oracle_on_the_paley_two_block_matrices():
    for q in (7, 11, 19, 23):
        rows = paley_two_block(q).to_rows()
        assert not gram_is_connected(rows)
        assert gram_probe(rows)[0] == abs(one_step_bareiss(rows))


TWO_CIRCULANT_FIRST_ROWS = st.sampled_from((1, 3, 5, 7, 9, 11, 13, 15)).flatmap(
    lambda v: st.tuples(*[st.lists(st.sampled_from((1, -1)), min_size=v, max_size=v)] * 2)
)


def two_circulant_rows(first_rows) -> list[list[int]]:
    r1, r2 = map(circulant, first_rows)
    return block2x2(r1, r2, -r2.transpose(), r1.transpose()).to_rows()


@settings(max_examples=80, deadline=None)
@given(TWO_CIRCULANT_FIRST_ROWS)
def test_gram_probe_matches_the_oracle_on_two_circulant_blocks(first_rows):
    """[[R1, R2], [-R2^T, R1^T]] with commuting circulants R1, R2 has a
    block diagonal Gram, so the probe answers, singular or not, exactly
    when every block is D(aI + bE + cJ)D."""
    rows = two_circulant_rows(first_rows)
    assert not gram_is_connected(rows)
    assert_probe_contract(rows)


def euclidean_s_n(rows) -> int:
    """The Euclidean engine's largest invariant factor of a nonsingular square."""
    return max(kernels.smith_reduce(rows, False)[0])


@settings(max_examples=80, deadline=None)
@given(TWO_CIRCULANT_FIRST_ROWS, st.integers(0, 2**32))
def test_gram_probe_s_n_matches_the_euclidean_engine_on_two_circulant_blocks(first_rows, seed):
    """Where every Gram block is D(aI + bE + cJ)D and det != 0, the probe's
    s_n is the Euclidean engine's largest factor, on the matrix and on a
    signed permutation of it, which gets the same answer."""
    rows = two_circulant_rows(first_rows)
    probe = gram_probe(rows)
    assert (probe is None) == (None in block_forms(rows))
    moved = gram_probe(signed_permutation(rows, random.Random(seed)))
    assert (moved and moved[:2]) == (probe and probe[:2])
    if probe and probe[0]:
        assert probe[1] == euclidean_s_n(rows)


def signed_permutation(rows, rng) -> list[list[int]]:
    """rows with rows and columns permuted and negated at random."""
    n = len(rows)
    order, cols = rng.sample(range(n), n), rng.sample(range(len(rows[0])), len(rows[0]))
    row_signs = [rng.choice((1, -1)) for _ in range(n)]
    col_signs = [rng.choice((1, -1)) for _ in cols]
    return [[s * t * rows[i][j] for j, t in zip(cols, col_signs)] for i, s in zip(order, row_signs)]


def barba_doubles() -> list[list[list[int]]]:
    """The Barba doubles of every circulant Barba row of orders 5 and 13."""
    return [barba_double(r).to_rows() for order in (5, 13) for r in search_circulant_barba(order)]


#: The inputs whose Gram blocks are all D(aI + bE + cJ)D: e66 and the Paley
#: two-block matrices have two equal blocks (cliques at q = 11, classes
#: i = j (mod 3) at q = 7, 19 and 23), the Sylvester Hadamard matrices one
#: per row.
S_N_CASES = {
    "e66": lambda: build_example_66().to_rows(),
    **{f"paley-q{q}": lambda q=q: paley_two_block(q).to_rows() for q in (7, 11, 19, 23)},
    **{f"hadamard-{n}": lambda n=n: sylvester_hadamard(n).to_rows() for n in (16, 64, 128)},
}


@cache
def s_n_case_factors(name: str) -> tuple[int, ...]:
    """The Euclidean engine's factors of S_N_CASES[name], run once for the
    tests that compare with them."""
    return tuple(kernels.smith_reduce(S_N_CASES[name](), False)[0])


@pytest.mark.parametrize("name", S_N_CASES)
def test_gram_probe_s_n_matches_the_euclidean_engine(name):
    """The probe's s_n is the Euclidean engine's largest factor, on the
    matrix and on three signed permutations of it, which keep the SNF."""
    rows = S_N_CASES[name]()
    want = max(s_n_case_factors(name))
    rng = random.Random(name)
    for moved in [rows] + [signed_permutation(rows, rng) for _ in range(3)]:
        assert gram_probe(moved)[1] == want


def top_2_adic_count(factors) -> int:
    """How many of the nonzero factors have the largest exponent of 2."""
    exponents = [two_adic(f) for f in factors]
    return exponents.count(max(exponents))


@pytest.mark.parametrize("name", S_N_CASES)
def test_inverse_rank_counts_the_factors_of_top_2_adic_valuation(name):
    """s_n A^-1 has invariant factors s_n / s_i, odd exactly where s_i has
    the top exponent of 2: the probe's GF(2) rank of it counts them, the
    c_K of the core."""
    assert gram_probe(S_N_CASES[name]())[2][1]() == top_2_adic_count(s_n_case_factors(name))


def test_inverse_rank_counts_the_top_factors_of_the_barba_doubles():
    for rows in barba_doubles():
        assert gram_probe(rows)[2][1]() == top_2_adic_count(kernels.smith_reduce(rows, False)[0])


#: A seeded order-6 +-1 square whose Gram is two order-3 blocks D(8I - 2J)D,
#: with s_n = 4: as v_2(8) > v_2(s_n), bit e of w_t + alpha beta and of
#: w_t - alpha beta differ, so a row's sign d_i = -1 moves its column of
#: s_n A^-1 modulo 2.
SIGNED_CLIQUES = [
    [1, -1, -1, -1, -1, 1],
    [-1, 1, -1, 1, -1, 1],
    [-1, -1, -1, -1, -1, -1],
    [1, 1, -1, -1, 1, 1],
    [1, 1, 1, -1, -1, -1],
    [1, 1, -1, 1, -1, -1],
]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
@example(SIGNED_CLIQUES)
def test_inverse_rank_counts_the_top_factors_of_random_squares(rows):
    """Where the probe proves |det| != 0 on a random +-1 square, its GF(2)
    rank of s_n A^-1 counts the Euclidean factors of top 2-adic valuation."""
    probe = gram_probe(rows)
    if probe and probe[0]:
        assert probe[2][1]() == top_2_adic_count(kernels.smith_reduce(rows, False)[0])


@settings(max_examples=80, deadline=None)
@given(TWO_CIRCULANT_FIRST_ROWS)
def test_inverse_rank_and_the_snf_on_two_circulant_blocks(first_rows):
    """Where the probe proves |det| != 0 and s_n, its inverse rank counts
    the top factors, and the SNF, by two ranks where K is 2, is the
    Euclidean engine's."""
    rows = two_circulant_rows(first_rows)
    probe = gram_probe(rows)
    if probe and probe[0]:
        want = tuple(kernels.smith_reduce(rows, False)[0])
        assert probe[2][1]() == top_2_adic_count(want)
        assert smith_normal_form(IntMatrix.from_rows(rows)).factors == want


def test_gram_probe_s_n_matches_the_euclidean_engine_on_the_barba_doubles():
    doubles = barba_doubles()
    assert len(doubles) == 114
    for rows in doubles:
        assert gram_probe(rows)[1] == euclidean_s_n(rows)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_gram_probe_answers_exactly_when_the_gram_splits(rows):
    """None on a connected Gram or one with a block that has no form;
    otherwise (0, 0) when det = 0, and else |det| by the oracle and s_n by
    the Euclidean engine: never a nonzero |det| without s_n."""
    assert_probe_contract(rows)


#: Row 0 is orthogonal to every +-1 row of length 6 with three -1s, and no
#: two of those are orthogonal: the Gram has blocks of orders 1 and 5. The
#: order-5 block is no D(aI + bJ)D (its entries off the diagonal are 2 and
#: -2 in no such pattern), so the probe proves nothing.
ONE_AND_FIVE = [
    [1, 1, 1, 1, 1, 1],
    [-1, -1, -1, 1, 1, 1],
    [-1, -1, 1, -1, 1, 1],
    [-1, -1, 1, 1, -1, 1],
    [-1, -1, 1, 1, 1, -1],
    [-1, 1, -1, -1, 1, 1],
]

#: A seeded order-6 +-1 square whose Gram has two distinct order-3 blocks,
#: both D(8I - 2J)D with other signs D, so each has det 128.
TWO_CLIQUES = [
    [-1, -1, 1, 1, 1, 1],
    [-1, -1, -1, -1, -1, 1],
    [-1, 1, -1, -1, 1, 1],
    [-1, 1, -1, 1, -1, -1],
    [-1, 1, 1, 1, -1, 1],
    [-1, -1, 1, -1, -1, -1],
]


def test_gram_probe_refuses_block_determinants_whose_product_is_no_square(monkeypatch):
    assert gram_probe(ONE_AND_FIVE) is None
    d = abs(one_step_bareiss(TWO_CLIQUES))
    assert gram_probe(TWO_CLIQUES)[:2] == (d, euclidean_s_n(TWO_CLIQUES)) == (128, 4)
    block_det = snf._block_det
    seen = []

    def doubled(h, form):
        """_block_det, doubled on the first block only."""
        seen.append(form)
        return block_det(h, form) * (2 if len(seen) == 1 else 1)

    monkeypatch.setattr(snf, "_block_det", doubled)
    with pytest.raises(ArithmeticError, match="^the Gram blocks' determinants multiply to 32768, no square$"):
        gram_probe(TWO_CLIQUES)
    assert len(seen) == 2 and seen[0] != seen[1]


def clique_block(a: int, b: int, signs) -> list[list[int]]:
    """D(aI + bJ)D with D = diag(signs)."""
    return [[si * sj * (a * (i == j) + b) for j, sj in enumerate(signs)] for i, si in enumerate(signs)]


def block_det_and_bareiss_calls(g) -> tuple[int, tuple, int]:
    """snf._block_det of g on g's kernels._group_form, as (det, form), and
    how many Bareiss determinants it ran."""
    calls = []
    bareiss = kernels.bareiss_determinant
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "bareiss_determinant", lambda a: calls.append(len(a)) or bareiss(a))
        form = kernels._group_form(g)
        det = snf._block_det(len(g), form)
    return det, form, len(calls)


def spelled_block(form) -> list[list[int]]:
    """The block D(aI + bE + cJ)D that a _group_form (a, b, c, classes,
    signs) spells, written out entry by entry."""
    a, b, c, classes, signs = form
    cls = {i: t for t, members in enumerate(classes) for i in members}
    return [
        [si * sj * (a * (i == j) + b * (cls[i] == cls[j]) + c) for j, sj in enumerate(signs)]
        for i, si in enumerate(signs)
    ]


CLIQUE_BLOCKS = st.integers(min_value=1, max_value=9).flatmap(
    lambda h: st.tuples(
        st.integers(min_value=-6, max_value=40),
        st.integers(min_value=-12, max_value=12).filter(bool),
        st.lists(st.sampled_from((1, -1)), min_size=h, max_size=h),
    )
)


@settings(max_examples=200, deadline=None)
@given(CLIQUE_BLOCKS)
@example((0, 3, [1, -1, 1, 1]))
@example((0, -2, [1, 1, -1]))
@example((64, 2, [1] * 9))
def test_block_det_reads_a_clique_block_off_its_entries(block):
    """det D(aI + bJ)D = a^(h-1) (a + hb), with no Bareiss at any b != 0:
    a clique is the group-divisible form with one class, whose form spells
    the block back, and the det is the one-step oracle's."""
    a, b, signs = block
    g = clique_block(a, b, signs)
    h = len(signs)
    det, form, bareiss = block_det_and_bareiss_calls(g)
    assert det == one_step_bareiss(g) == a ** (h - 1) * (a + h * b)
    assert bareiss == 0
    assert len(form[3]) == 1 and form[2] == 0 and spelled_block(form) == g


def perturbed(g, data):
    """g with one symmetric pair of entries, or one diagonal entry, moved by
    a nonzero delta: (g, i, j)."""
    h = len(g)
    i = data.draw(st.integers(min_value=0, max_value=h - 1))
    j = data.draw(st.integers(min_value=i, max_value=h - 1))
    delta = data.draw(st.integers(min_value=-5, max_value=5).filter(bool))
    g = [row[:] for row in g]
    g[i][j] += delta
    if i != j:
        g[j][i] += delta
    return g, i, j


@settings(max_examples=200, deadline=None)
@given(CLIQUE_BLOCKS.filter(lambda block: len(block[2]) >= 3), st.data())
def test_group_form_rejects_a_perturbed_clique_block(block, data):
    """A clique block with one symmetric pair or one diagonal entry moved is
    no D(aI + bE + cJ)D, unless, at order 3, the pair only changed sign:
    that is the clique of -b, whose det is read off its form."""
    a, b, signs = block
    g0 = clique_block(a, b, signs)
    g, i, j = perturbed(g0, data)
    flipped = len(g) == 3 and i != j and g[i][j] == -g0[i][j]
    if flipped:
        det, form, bareiss = block_det_and_bareiss_calls(g)
        assert spelled_block(form) == g and det == one_step_bareiss(g) and bareiss == 0
    else:
        assert kernels._group_form(g) is None


def group_divisible_block(a, x, y, k, signs, seed) -> list[list[int]]:
    """D(aI + bE + cJ)D with D = diag(signs), b + c = x and c = y, on len(signs)
    // k classes of k whose members are spread over the indices by a seeded
    shuffle."""
    h = len(signs)
    order = random.Random(seed).sample(range(h), h)
    cls = {i: p // k for p, i in enumerate(order)}
    return [
        [si * sj * (a - x if i == j else 0) + si * sj * (x if cls[i] == cls[j] else y) for j, sj in enumerate(signs)]
        for i, si in enumerate(signs)
    ]


GROUP_DIVISIBLE_BLOCKS = st.tuples(st.integers(2, 4), st.integers(2, 4)).flatmap(
    lambda mk: st.tuples(
        st.integers(min_value=-6, max_value=40),
        st.integers(min_value=-12, max_value=12).filter(bool),
        st.integers(min_value=-12, max_value=12).filter(bool),
        st.just(mk[1]),
        st.lists(st.sampled_from((1, -1)), min_size=mk[0] * mk[1], max_size=mk[0] * mk[1]),
        st.integers(0, 2**32),
    )
)


@settings(max_examples=300, deadline=None)
@given(GROUP_DIVISIBLE_BLOCKS)
@example((104, 10, 2, 3, [1] * 6, 0))
@example((44, -2, 2, 2, [1, -1, 1, -1, 1, 1], 5))
def test_block_det_reads_a_group_divisible_block_off_its_entries(block):
    """det D(aI + bE + cJ)D = a^(h-m) alpha^(m-1) beta, alpha = a + bk and
    beta = alpha + ckm, at any signs of b + c and c, with no Bareiss: the
    classes may sit at any indices, and the form found spells the block
    back. x = y is a clique, and so is x = -y at m = 2 (negate D on one
    class): then one class is found."""
    diagonal, x, y, k, signs, seed = block
    g = group_divisible_block(diagonal, x, y, k, signs, seed)
    h = len(signs)
    m = h // k
    a, b, c = diagonal - x, x - y, y
    alpha = a + b * k
    det, form, bareiss = block_det_and_bareiss_calls(g)
    assert det == one_step_bareiss(g) == a ** (h - m) * alpha ** (m - 1) * (alpha + c * h)
    assert bareiss == 0
    assert spelled_block(form) == g
    assert len(form[3]) == (1 if x == y or m == 2 and x == -y else m)


@settings(max_examples=300, deadline=None)
@given(GROUP_DIVISIBLE_BLOCKS.filter(lambda block: block[1] != block[2]), st.data())
def test_group_form_rejects_a_perturbed_group_divisible_block(block, data):
    """The same blocks, with x != y, and one symmetric pair or one diagonal
    entry moved, are no D(aI + bE + cJ)D."""
    diagonal, x, y, k, signs, seed = block
    g, _, _ = perturbed(group_divisible_block(diagonal, x, y, k, signs, seed), data)
    assert kernels._group_form(g) is None


#: A small integer matrix whose first unit, in row-major order, is not its
#: first entry: the Euclidean engine's pivot order decides its transforms.
SMALL_INTEGER = [[2, 4, 4, 0, 6], [-6, 6, 12, 10, 3], [10, -4, -16, 2, 1], [3, 7, -9, 5, 0]]


def reduce_digest(rows, want_transforms):
    """sha256 of repr(smith_reduce(rows, want_transforms)): factors, left, right."""
    return hashlib.sha256(repr(kernels.smith_reduce(rows, want_transforms)).encode()).hexdigest()


def test_euclidean_engine_outputs_are_pinned(example66):
    """Factors and transforms bit for bit, so a faster pivot search that
    picks another pivot shows here."""
    assert reduce_digest(example66.to_rows(), True) == (
        "8a922ff59eba19347a87e01d87144e4ddcb9853ee5fbda9571f24a829e94bf66"
    )
    assert reduce_digest(SMALL_INTEGER, True) == (
        "ddc8e6f7bfaef567a30fd0b488b2868e01480b14e6da6a6a46aaf1d46d60ab99"
    )
    rows = build_example_26().to_rows()
    assert reduce_digest(snf._zero_one_core(kernels._sign_masks(rows), len(rows[0])), False) == (
        "0f0924bc7542ac751ff2f97b65012b4d1f359b1552861ab8a4ad7907495d9a56"
    )
