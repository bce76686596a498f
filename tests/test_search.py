"""Exhaustive searches: frozen counts, determinism, candidate gating."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from doptsnf import designs, search
from doptsnf.designs import Tournament, barba_double, is_barba, skew_from_tournament
from doptsnf.exactmat import InfeasibleSearchError, circulant
from doptsnf.search import (
    DEFAULT_MAX_CANDIDATES,
    _degree_masks,
    _degree_profile,
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


def test_rotation_permutes_and_negation_negates_the_double():
    n = 13
    for r in search_circulant_barba(n):
        row = r.row(0)
        m = barba_double(r)
        assert barba_double(-r) == -m
        for k in range(n):
            moved = barba_double(circulant(tuple(row[(j - k) % n] for j in range(n))))
            for i in range(n):
                assert moved.row(i) == m.row((i + k) % n)
                assert moved.row(n + i) == m.row(n + (i - k) % n)


def test_barba_scan_factors_match_a_direct_snf():
    for rep in barba_problem_scan((1, 5, 13)).per_order:
        for e in rep.entries:
            assert e.factors == smith_normal_form(barba_double(circulant(e.first_row))).factors


def test_one_snf_per_orbit(monkeypatch):
    for order, count in ((1, 1), (5, 1), (13, 4)):
        rows = [r.row(0) for r in search_circulant_barba(order)]
        orbits = {
            frozenset(tuple(sign * v for v in row[k:] + row[:k]) for k in range(order) for sign in (1, -1))
            for row in rows
        }
        assert all(len({search._orbit_key(row) for row in orbit}) == 1 for orbit in orbits)
        assert len({search._orbit_key(row) for row in rows}) == len(orbits) == count
    calls = []

    def counting(m):
        calls.append(m)
        return smith_normal_form(m)

    monkeypatch.setattr(search, "smith_normal_form", counting)
    assert sum(len(r.entries) for r in barba_problem_scan((5, 13)).per_order) == 114
    assert len(calls) == 5
