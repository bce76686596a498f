"""Exhaustive searches: frozen counts, determinism, candidate gating."""

import itertools

import pytest

from doptsnf import search
from doptsnf.designs import is_barba
from doptsnf.exactmat import IntMatrix
from doptsnf.search import (
    DEFAULT_MAX_CANDIDATES,
    InfeasibleSearchError,
    _pool_size,
    _tournament_from_mask,
    barba_problem_scan,
    enumerate_ew_tournaments,
    search_circulant_barba,
    search_circulant_tournament,
)
from doptsnf.verify import ew_tournament_check

GOLDEN_13_ROW = (1, 1, 1, 1, -1, 1, -1, -1, 1, 1, 1, -1, 1)

LIMITS = (0, 1, 7, None)


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
    for limit in LIMITS:
        par = enumerate_ew_tournaments(5, limit=limit, workers=2)
        assert [w.matrix for w in par] == [w.matrix for w in witnesses5[:limit]]


def test_enumeration_limit(witnesses5):
    first = enumerate_ew_tournaments(5, limit=7)
    assert len(first) == 7
    for limit in LIMITS:
        got = enumerate_ew_tournaments(5, limit=limit)
        assert [w.matrix for w in got] == [w.matrix for w in witnesses5[:limit]]


def test_limit_ends_the_scan_early(monkeypatch):
    first_hit = next(
        mask for mask in range(1 << 10) if ew_tournament_check(_tournament_from_mask(5, mask))[0]
    )
    checked = []

    def counting(t):
        checked.append(t)
        return ew_tournament_check(t)

    monkeypatch.setattr(search, "ew_tournament_check", counting)
    assert len(enumerate_ew_tournaments(5, limit=1)) == 1
    assert len(checked) == first_hit + 1 < 1 << 10


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


def test_circulant_tournament_searches_are_empty():
    # the three degree classes of a qualifying tournament have different
    # sizes, while every circulant is regular; the search can only be empty
    for order in (5, 13):
        assert search_circulant_tournament(order) == []
    for limit in LIMITS:
        assert search_circulant_tournament(13, limit=limit) == []
    with pytest.raises(ValueError):
        search_circulant_tournament(6)


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
    assert search_circulant_barba(5, limit=0) == []


def test_pool_size_is_clamped_without_starting_a_pool(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert _pool_size(10**6, 1 << 17) == 2
    assert _pool_size(10**6, 1) == 1
    assert _pool_size(1, 1 << 17) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _pool_size(10**6, 1 << 17) == 1

