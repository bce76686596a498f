"""Exhaustive searches: frozen counts, determinism, candidate gating."""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from doptsnf import designs, kernels, search
from doptsnf.designs import Tournament, barba_double, bordered_rows, is_barba, skew_from_tournament
from doptsnf.exactmat import InfeasibleSearchError, circulant
from doptsnf.kernels import autocorrelations
from doptsnf.search import (
    DEFAULT_MAX_CANDIDATES,
    _circulant_barba_hits,
    _degree_masks,
    _degree_profile,
    _ew_tournament_hits,
    _masks_of_weight,
    _pool_size,
    _tournament_from_mask,
    _tournament_rows,
    barba_problem_scan,
    enumerate_ew_tournaments,
    search_circulant_barba,
    search_circulant_tournament,
)
from doptsnf.snf import smith_normal_form
from doptsnf.verify import ew_degree_template, ew_gram_check, ew_split, ew_tournament_check
from test_verify import ref_ew_tournament_check

GOLDEN_13_ROW = (1, 1, 1, 1, -1, 1, -1, -1, 1, 1, 1, -1, 1)

LIMITS = (0, 1, 7, None)
#: Limits for the 40-hit tournament scan, up to and past the last hit.
TOURNAMENT_LIMITS = LIMITS + (39, 40)


def test_order5_count_and_quality(witnesses5):
    assert len(witnesses5) == 40
    for w in witnesses5:
        verdict, a = ew_tournament_check(w)
        assert verdict and a in (0, 3)
    # no duplicates
    assert len({w.matrix.entries for w in witnesses5}) == 40


def test_enumeration_is_deterministic(witnesses5):
    again = enumerate_ew_tournaments(5)
    assert [w.matrix for w in again] == [w.matrix for w in witnesses5]


def test_enumeration_parallel_parity(witnesses5):
    # each chunk stops after `limit` hits; the merge must still be the prefix
    for limit in TOURNAMENT_LIMITS:
        par = enumerate_ew_tournaments(5, limit=limit, workers=2)
        assert [w.matrix for w in par] == [w.matrix for w in witnesses5[:limit]]


def test_enumeration_limit(witnesses5):
    first = enumerate_ew_tournaments(5, limit=7)
    assert len(first) == 7
    for limit in TOURNAMENT_LIMITS:
        got = enumerate_ew_tournaments(5, limit=limit)
        assert [w.matrix for w in got] == [w.matrix for w in witnesses5[:limit]]


def test_limit_ends_the_scan_early(monkeypatch):
    """limit=1 hands ew_split the rows of the masks among 0..80 whose
    out-degree profile is the template, 72, 76 and 80, in order, 80 being
    the first hit, and nothing after."""
    tested = []

    def counting(rows):
        tested.append(rows)
        return ew_split(rows)

    monkeypatch.setattr(search, "ew_split", counting)
    assert len(enumerate_ew_tournaments(5, limit=1)) == 1
    passing = [m for m in range(81) if sorted(map(sum, _tournament_rows(5, m))) == ew_degree_template(1)]
    assert passing == [72, 76, 80]
    assert tested == [_tournament_rows(5, mask) for mask in passing]
    assert ew_split(tested[-1]) == 0
    assert all(ew_split(rows) is None for rows in tested[:-1])


def test_popcount_profile_matches_the_rows():
    """The scan's out-degree profile, by popcounts on the mask, equals the
    sorted row sums of the mask's tournament on all 1024 order-5 masks."""
    degree_masks = _degree_masks(5)
    for mask in range(1 << 10):
        assert _degree_profile(degree_masks, mask) == sorted(map(sum, _tournament_rows(5, mask)))


@pytest.mark.parametrize("order", range(10))
def test_fixed_weight_walk_matches_a_filter(order):
    """Every weight, over the whole space and over unaligned windows."""
    total = 1 << order
    windows = [(0, total), (total // 3, total - 3), (5, total // 2 + 1), (total - 1, total + 2), (7, 7)]
    for w, (lo, hi) in itertools.product(range(order + 1), windows):
        lo = min(lo, total)
        expected = [m for m in range(lo, hi) if m.bit_count() == w]
        assert list(_masks_of_weight(w, lo, hi)) == expected, (w, lo, hi)


def _windows(bits):
    """Windows of [0, 2^bits): the whole range, its halves, windows that
    straddle the mirror point 2^(bits-1) where a mask's complement changes
    side, unaligned ones, and empty ones."""
    total = 1 << bits
    mid = total // 2
    return [
        (0, total), (0, mid), (mid, total), (mid - 1, mid + 1), (mid - mid // 9, mid + mid // 5),
        (total // 3, total - 5), (5, mid + 3), (total - 1, total), (7, 7),
    ]


def _assert_matches_reference(bits, scan, reference):
    """scan(lo, hi) equals reference(lo, hi) on every window, and the windows
    hold hit masks both with and without their complement."""
    full = (1 << bits) - 1
    with_twin = without_twin = 0
    for lo, hi in _windows(bits):
        expected = reference(lo, hi)
        assert list(scan(lo, hi)) == [value for _, value in expected], (lo, hi)
        for mask, _ in expected:
            if lo <= full ^ mask < hi:
                with_twin += 1
            else:
                without_twin += 1
    assert with_twin and without_twin


def test_tournament_hits_match_an_unreduced_scan():
    """Every mask of each window through ew_split, with no degree prefilter
    and no complement lookup, gives the generator's tournaments."""

    def reference(lo, hi):
        rows = ((m, _tournament_rows(5, m)) for m in range(lo, hi))
        return [(m, r) for m, r in rows if ew_split(r) is not None]

    _assert_matches_reference(
        10, lambda lo, hi: (t.matrix.to_rows() for t in _ew_tournament_hits(5, lo, hi)), reference
    )


@pytest.mark.parametrize("order", (5, 13))
def test_barba_hits_match_the_textbook_autocorrelations(order):
    """Every mask of popcount (n -+ s)/2 in each window, through the textbook
    autocorrelations, gives the generator's rows."""
    s = math.isqrt(2 * order - 1)
    weights = {(order - s) // 2, (order + s) // 2}

    def reference(lo, hi):
        rows = (
            (m, tuple(1 if m >> (order - 1 - i) & 1 else -1 for i in range(order)))
            for m in range(lo, hi)
            if m.bit_count() in weights
        )
        return [(m, row) for m, row in rows if all(c == 1 for c in autocorrelations(row)[1:])]

    _assert_matches_reference(order, lambda lo, hi: _circulant_barba_hits(order, lo, hi), reference)


def test_reversing_every_arc_keeps_the_verdict_and_a(tournament13):
    """The complement of an order-5 mask is the reversed tournament: its
    bordered matrix is D S^T D, D = diag(-1, 1, ..., 1), and ew_split gives
    it the verdict and a of the mask itself. t13 reversed stays EW with the
    same a."""
    full = (1 << 10) - 1
    for mask in range(1 << 10):
        rows, twin = _tournament_rows(5, mask), _tournament_rows(5, full ^ mask)
        assert twin == [list(col) for col in zip(*rows)]
        s = bordered_rows(rows)
        d = [-1] + [1] * 5
        assert bordered_rows(twin) == [[d[i] * s[j][i] * d[j] for j in range(6)] for i in range(6)]
        assert ew_split(twin) == ew_split(rows)
    verdict, a = ew_tournament_check(tournament13)
    assert verdict
    assert ew_tournament_check(Tournament(tournament13.matrix.transpose())) == (True, a)


def test_each_symmetric_pair_is_tested_once(monkeypatch):
    """A full scan runs ew_split on 140 of order 5's 280 template masks, and
    the lag tests on 715 of order 13's 1430 Barba-weight masks."""
    split_calls = []

    def counting_split(rows):
        split_calls.append(rows)
        return ew_split(rows)

    monkeypatch.setattr(search, "ew_split", counting_split)
    assert len(enumerate_ew_tournaments(5)) == 40
    assert len(split_calls) == 140
    tested = []
    by_complement = search._by_complement

    def counting_lookup(masks, full, lo, test):
        return by_complement(masks, full, lo, lambda m: tested.append(m) or test(m))

    monkeypatch.setattr(search, "_by_complement", counting_lookup)
    assert len(search_circulant_barba(13)) == 104
    assert len(tested) == math.comb(13, 4) == 715
    assert len(search_circulant_barba(5)) == 10
    assert len(tested) == 715 + 5


def test_scan_builds_a_tournament_only_per_hit(monkeypatch, witnesses5):
    """40 Tournaments for the 40 hits among 1024 masks, and no bordered IntMatrix."""
    built = []

    def counting(matrix):
        built.append(matrix)
        return Tournament(matrix)

    def refuse(t):
        raise AssertionError("skew_from_tournament was called")

    monkeypatch.setattr(search, "Tournament", counting)
    monkeypatch.setattr(designs, "skew_from_tournament", refuse)
    found = enumerate_ew_tournaments(5)
    assert built == [w.matrix for w in witnesses5] == [t.matrix for t in found]


def test_enumeration_rejects_bad_orders():
    with pytest.raises(ValueError):
        enumerate_ew_tournaments(7)  # not 4t + 1
    with pytest.raises(ValueError):
        enumerate_ew_tournaments(4)
    with pytest.raises(ValueError):
        enumerate_ew_tournaments(13)  # candidate space beyond any sane cap


def test_candidate_cap():
    with pytest.raises(InfeasibleSearchError) as exc:
        enumerate_ew_tournaments(9)  # 2^36 candidates > 2^20 default cap
    msg = str(exc.value)
    assert "max_candidates=" in msg and "--max-candidates" in msg
    assert str(DEFAULT_MAX_CANDIDATES) in msg


def test_candidate_cap_override_param():
    with pytest.raises(InfeasibleSearchError):
        enumerate_ew_tournaments(5, max_candidates=512)  # 2^10 > 512
    assert len(enumerate_ew_tournaments(5, max_candidates=1024)) == 40


def test_candidate_cap_env(monkeypatch):
    # max_candidates is the one way to move the cap; the environment is not read
    monkeypatch.setenv("DOPT_SNF_MAX_CANDIDATES", "512")
    assert len(enumerate_ew_tournaments(5, limit=1)) == 1


def test_circulant_tournament_searches_are_empty(monkeypatch):
    # the three degree classes of a qualifying tournament have different
    # sizes, while every circulant is regular; the search can only be empty,
    # and it answers without a scan
    def no_scan(*args):
        raise AssertionError("_scan was called")

    monkeypatch.setattr(search, "_scan", no_scan)
    for order in (1, 5, 13):
        assert search_circulant_tournament(order) == []
    for limit in LIMITS:
        assert search_circulant_tournament(13, limit=limit) == []
    # 2^22 candidates, above the default cap: still no refusal, whatever the cap
    assert search_circulant_tournament(45) == []
    assert search_circulant_tournament(45, max_candidates=1) == []
    with pytest.raises(ValueError, match="limit"):
        search_circulant_tournament(45, limit=-1)
    with pytest.raises(ValueError, match="max_candidates"):
        search_circulant_tournament(45, max_candidates=0)
    with pytest.raises(ValueError, match="odd order"):
        search_circulant_tournament(6)
    with pytest.raises(ValueError, match="order must be positive"):
        search_circulant_tournament(-1)


def test_circulant_barba_counts():
    found5 = search_circulant_barba(5)
    assert len(found5) == 10
    assert all(is_barba(m) for m in found5)
    found13 = search_circulant_barba(13)
    assert len(found13) == 104
    assert GOLDEN_13_ROW in {m.row(0) for m in found13}


def test_circulant_barba_parallel_parity():
    serial = search_circulant_barba(13)
    par = search_circulant_barba(13, workers=3)
    assert serial == par
    for limit, workers in itertools.product(LIMITS, (1, 2)):
        assert search_circulant_barba(13, limit=limit, workers=workers) == serial[:limit]


def test_circulant_barba_rejects_even_t_order():
    with pytest.raises(ValueError):
        search_circulant_barba(7)  # 7 != 1 (mod 4)
    for bad in (lambda: search_circulant_barba(-3), lambda: barba_problem_scan((5, -3))):
        with pytest.raises(ValueError, match="order must be positive, got -3"):
            bad()  # -3 % 4 == 1, so only the sign check catches it


def test_barba_scan_small_orders():
    report = barba_problem_scan((1, 5))
    assert [r.order for r in report.per_order] == [1, 5]
    one, five = report.per_order
    assert one.t_param == 0
    assert one.reference is None
    assert len(one.entries) == 2  # rows (1) and (-1)
    assert all(e.factors == (1, 2) for e in one.entries)
    assert five.t_param == 2
    assert five.reference is None  # 8t + 1 = 17 is not a square
    assert len(five.entries) == 10
    assert all(e.factors == (1, 2, 2, 2, 2, 2, 4, 4, 12, 12) for e in five.entries)


def test_barba_scan_order_13():
    report = barba_problem_scan((13,))
    (rep,) = report.per_order
    assert rep.t_param == 6
    assert rep.reference == (1,) + (2,) * 12 + (12,) * 11 + (84,)
    assert len(rep.reference) == 25  # one short of the doubled order 26
    assert len(rep.entries) == 104
    golden = (1,) + (2,) * 13 + (12,) * 10 + (60, 60)
    assert all(e.factors == golden for e in rep.entries)
    assert GOLDEN_13_ROW in {e.first_row for e in rep.entries}


def test_out_of_range_arguments_are_rejected():
    for search in (enumerate_ew_tournaments, search_circulant_tournament, search_circulant_barba):
        with pytest.raises(ValueError, match="limit"):
            search(5, limit=-1)
    for search in (enumerate_ew_tournaments, search_circulant_barba):
        with pytest.raises(ValueError, match="workers"):
            search(5, workers=0)
    with pytest.raises(ValueError, match="max_candidates"):
        search_circulant_barba(5, max_candidates=0)
    for name in ("limit", "workers", "max_candidates"):
        with pytest.raises(TypeError, match=f"{name} must be an integer, got 1.5"):
            search_circulant_barba(5, **{name: 1.5})
    with pytest.raises(TypeError, match="max_candidates must be an integer, got 32.5"):
        search_circulant_barba(5, max_candidates=32.5)
    assert search_circulant_barba(5, limit=0) == []
    for order in (13.5, 13.0):
        for bad in (
            lambda: enumerate_ew_tournaments(order),
            lambda: search_circulant_tournament(order),
            lambda: search_circulant_barba(order),
            lambda: barba_problem_scan((5, order)),
        ):
            with pytest.raises(TypeError, match=f"order must be an integer, got {order}"):
                bad()


def test_pool_size_is_clamped_without_starting_a_pool(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert _pool_size(10**6, 1 << 17) == 2
    assert _pool_size(10**6, 1) == 1
    assert _pool_size(1, 1 << 17) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _pool_size(10**6, 1 << 17) == 1


# ---------------------------------------------------------------------------
# Pruning by necessary conditions, each checked against the slow path


def _degree_rejected(a):
    """True when a misses the EW out-degree template, which must then fail the Gram check."""
    t = a.order // 4
    gram = ew_gram_check(skew_from_tournament(a)).verdict
    assert ew_tournament_check(a)[0] == gram
    rejected = Counter(a.matrix.row_sums()) != Counter({2 * t - 1: t, 2 * t: 2 * t + 1, 2 * t + 1: t})
    assert not (rejected and gram)
    return rejected


def circulant_tournaments(order):
    """Every circulant tournament of odd order: for each lag s <= (order-1)/2,
    either s or order-s is an out-lag."""
    half = (order - 1) // 2
    for lags in itertools.product((0, 1), repeat=half):
        row = [0] * order
        for s, bit in enumerate(lags, start=1):
            row[s], row[order - s] = bit, 1 - bit
        yield Tournament(circulant(row))


def test_degree_template_rejects_only_gram_failures():
    assert sum(_degree_rejected(_tournament_from_mask(5, m)) for m in range(1 << 10)) == 744
    for order in (5, 9, 13, 17):
        # circulants are regular, so the template rejects every one; this is
        # the slow path behind search_circulant_tournament's empty answer
        found = list(circulant_tournaments(order))
        assert len(found) == 1 << ((order - 1) // 2)
        assert len(set(found)) == len(found)
        for a in found:
            assert _degree_rejected(a)
            assert not ew_tournament_check(a)[0]
            assert not ew_gram_check(skew_from_tournament(a)).verdict


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((9, 13)).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    )
)
def test_degree_template_on_random_tournaments(case):
    a = _tournament_from_mask(*case)
    _degree_rejected(a)
    assert ew_tournament_check(a) == ref_ew_tournament_check(a)


def test_barba_search_is_empty_by_arithmetic(monkeypatch):
    # 2n - 1 is not a square at these orders, so no row sum s has s^2 = 2n - 1
    def no_scan(*args):
        raise AssertionError("_scan was called")

    monkeypatch.setattr(search, "_scan", no_scan)
    for order in (9, 17, 29, 37):
        assert search_circulant_barba(order, workers=2) == []
    assert [r.entries for r in barba_problem_scan((9, 17, 29, 37), workers=2).per_order] == [()] * 4
    with pytest.raises(ValueError, match="limit"):
        search_circulant_barba(29, limit=-1)  # the arguments are still checked


def _multiplier_permutation(n, u):
    """diag(P_u, P_u), with P_u[i][u*i mod n] = 1, written out as rows."""
    p = [[int(j == u * i % n) for j in range(n)] for i in range(n)]
    zero = [0] * n
    return [pi + zero for pi in p] + [zero + pi for pi in p]


def _conjugate(q, x):
    """q x q^T for a 0/1 matrix q: (q y)_i sums the rows of y where q_i has
    a 1, and q x q^T is the transpose of q (q x)^T."""
    ones = [[a for a, v in enumerate(qi) if v] for qi in q]

    def times(y):
        return [list(map(sum, zip(*(y[a] for a in s)))) for s in ones]

    return [list(col) for col in zip(*times([list(col) for col in zip(*times(x))]))]


def test_conjugate_is_the_matrix_product():
    q = _multiplier_permutation(5, 2)
    x = [[(7 * i + j * j) % 11 - 5 for j in range(10)] for i in range(10)]
    q_t = [list(col) for col in zip(*q)]
    assert _conjugate(q, x) == kernels.matmul(kernels.matmul(q, x), q_t)


def test_rotation_permutes_and_negation_negates_the_double():
    n = 13
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    perms = {u: _multiplier_permutation(n, u) for u in units}
    for r in search_circulant_barba(n):
        row = r.row(0)
        m = barba_double(r)
        assert barba_double(-r) == -m
        for k in range(n):
            moved = barba_double(circulant(tuple(row[(j - k) % n] for j in range(n))))
            for i in range(n):
                assert moved.row(i) == m.row((i + k) % n)
                assert moved.row(n + i) == m.row(n + (i - k) % n)
        # a multiplier u conjugates the double by diag(P_u, P_u)
        for u, q in perms.items():
            image = barba_double(circulant(tuple(row[u * i % n] for i in range(n))))
            assert image.to_rows() == _conjugate(q, m.to_rows())


def test_barba_scan_factors_match_a_direct_snf():
    for rep in barba_problem_scan((1, 5, 13)).per_order:
        for e in rep.entries:
            assert e.factors == smith_normal_form(barba_double(circulant(e.first_row))).factors


def test_one_snf_per_orbit(monkeypatch):
    """Rotation and negation leave 1, 1 and 4 orbits at orders 1, 5 and 13;
    multipliers join order 13's four, so a scan of (5, 13) runs 2 SNFs."""
    for order, count, full_count in ((1, 1, 1), (5, 1, 1), (13, 4, 1)):
        rows = [r.row(0) for r in search_circulant_barba(order)]
        orbits = {
            frozenset(tuple(sign * v for v in row[k:] + row[:k]) for k in range(order) for sign in (1, -1))
            for row in rows
        }
        assert all(len({search._orbit_key(row) for row in orbit}) == 1 for orbit in orbits)
        assert len({search._orbit_key(row) for row in rows}) == len(orbits) == count
        units = [u for u in range(order) if math.gcd(u, order) == 1]
        full_orbits = {
            frozenset(tuple(v[u * i % order] for i in range(order)) for v in orbit for u in units)
            for orbit in orbits
        }
        assert len(full_orbits) == full_count
    calls = []

    def counting(m):
        calls.append(m)
        return smith_normal_form(m)

    monkeypatch.setattr(search, "smith_normal_form", counting)
    assert sum(len(r.entries) for r in barba_problem_scan((5, 13)).per_order) == 114
    assert len(calls) == 2
