"""Exhaustive searches for design witnesses at desk scale.

All searches are deterministic: candidates are encoded as integer bitmasks
and scanned in ascending mask order, so identical inputs always produce
identical ordered outputs. Candidate spaces larger than the cap of 2^20
are refused with InfeasibleSearchError instead of starting an open-ended
scan; the cap is raised per call with max_candidates (the CLI's
--max-candidates).

Every scan runs through one driver, _scan, which returns the values its
hit generator yields for the accepted masks (a Tournament, a first row),
in ascending mask order, and stops once `limit` are found. Optional data
parallelism partitions the mask range into contiguous chunks handled by
worker processes, each stopping after `limit` hits; the merged result is
exactly the sequential one. The pool never has more processes than CPUs
or candidates.

The EW tournament scan tests each candidate on its 0/1 rows with
ew_split, which rejects an out-degree profile off the template before it
forms a Gram matrix, and builds a Tournament only for a hit. The circulant
Barba search skips a row whose sum s misses s^2 = 2n - 1. Some searches
are empty by arithmetic and return no hits without a scan: circulant
tournaments are regular, so none meets the template's three out-degrees,
and where 2n - 1 is not a square no Barba row qualifies.
barba_problem_scan computes one SNF per orbit of first rows under
rotation and negation, which only permute rows of the doubled matrix or
negate it.
"""

from __future__ import annotations

import math
import os
from itertools import islice
from typing import Iterable, NamedTuple, Optional

from .designs import Tournament, barba_double, is_barba
from .exactmat import InfeasibleSearchError, IntMatrix, as_integer, circulant
from .kernels import autocorrelations
from .snf import smith_normal_form
from .verify import ew_split, existence_filter

DEFAULT_MAX_CANDIDATES = 1 << 20


def _pool_size(workers: int, total: int) -> int:
    """Worker processes for a scan: at most one per CPU and per candidate."""
    return min(workers, os.cpu_count() or 1, total)


def _chunk(job: tuple) -> list:
    hits, order, lo, hi, limit = job
    return list(islice(hits(order, lo, hi), limit))


def _scan_cap(limit, workers: int, max_candidates) -> int:
    """The candidate cap, after checking the arguments every scan takes."""
    if limit is not None and as_integer("limit", limit) < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    if as_integer("workers", workers) < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cap = DEFAULT_MAX_CANDIDATES if max_candidates is None else as_integer("max_candidates", max_candidates)
    if cap < 1:
        raise ValueError(f"max_candidates must be at least 1, got {cap}")
    return cap


def _scan(hits, order: int, total: int, space: str, limit, workers: int, max_candidates) -> list:
    """The first `limit` (all if None) hits of a search over masks [0, total).

    hits(order, lo, hi) is a top-level generator function, so that workers
    can unpickle it, yielding one picklable value per accepted mask of
    [lo, hi) in ascending mask order; those values are returned. space
    names the candidate space in the refusal message.
    """
    cap = _scan_cap(limit, workers, max_candidates)
    if total > cap:
        raise InfeasibleSearchError(
            f"the order-{order} {space} has {total} candidates, above the cap of "
            f"{cap}; raise it via max_candidates= or --max-candidates to proceed"
        )
    workers = _pool_size(workers, total)
    if workers <= 1:
        return _chunk((hits, order, 0, total, limit))
    # Imported here: multiprocessing is a quarter of the package's import time,
    # and only parallel scans need it.
    from concurrent.futures import ProcessPoolExecutor

    size = -(-total // workers)
    jobs = [(hits, order, lo, min(lo + size, total), limit) for lo in range(0, total, size)]
    out: list = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_chunk, jobs):
            out.extend(part)
    return out[:limit]


# ---------------------------------------------------------------------------
# Tournament searches


def _tournament_rows(order: int, mask: int) -> list[list[int]]:
    """The 0/1 rows of a strictly-upper-triangular bitmask, most significant bit first."""
    rows = [[0] * order for _ in range(order)]
    shift = order * (order - 1) // 2
    for i in range(order):
        for j in range(i + 1, order):
            shift -= 1
            bit = (mask >> shift) & 1
            rows[i][j] = bit
            rows[j][i] = 1 - bit
    return rows


def _tournament_from_mask(order: int, mask: int) -> Tournament:
    """The Tournament of a mask; a tool for tests, which the scan does not use."""
    return Tournament(IntMatrix.from_rows(_tournament_rows(order, mask)))


def _ew_tournament_hits(order: int, lo: int, hi: int):
    """The EW tournaments among masks [lo, hi): ew_split tests each mask's
    rows, and a Tournament is built only for a hit."""
    for mask in range(lo, hi):
        rows = _tournament_rows(order, mask)
        if ew_split(rows) is not None:
            yield Tournament(IntMatrix.from_rows(rows))


def enumerate_ew_tournaments(
    order: int,
    limit: Optional[int] = None,
    workers: int = 1,
    max_candidates: Optional[int] = None,
) -> list[Tournament]:
    """All EW tournaments of the given order, by exhausting every tournament.

    Results come in lexicographic order of the strictly-upper-triangular
    bit pattern. Order 5 means 2^10 candidates; order 9 already means 2^36
    and is refused unless the candidate cap is raised explicitly.
    """
    order = as_integer("order", order)
    if order % 4 != 1:
        raise ValueError(f"order {order} is not 1 (mod 4)")
    if not 5 <= order <= 9:
        raise ValueError("only orders 5 and 9 are supported")
    total = 1 << (order * (order - 1) // 2)
    return _scan(_ew_tournament_hits, order, total, "tournament space", limit, workers, max_candidates)


def search_circulant_tournament(
    order: int,
    limit: Optional[int] = None,
    max_candidates: Optional[int] = None,
) -> list[Tournament]:
    """Circulant tournaments of odd order passing the EW tournament check.

    Candidates are the antisymmetric lag subsets (lag s in the subset iff
    order-s is not), 2^((order-1)/2) in total. Circulant tournaments are
    regular of degree (order-1)/2, while ew_tournament_check's out-degree
    template needs three distinct out-degrees, so no candidate qualifies:
    after its arguments are checked the result is [] without a scan,
    whatever the candidate cap.
    """
    order = as_integer("order", order)
    if order % 2 == 0:
        raise ValueError("circulant tournaments need odd order")
    if order < 1:
        raise ValueError("order must be positive")
    _scan_cap(limit, 1, max_candidates)
    return []


# ---------------------------------------------------------------------------
# Barba searches


def _barba_row_from_mask(order: int, mask: int) -> tuple[int, ...]:
    return tuple(
        1 if (mask >> (order - 1 - i)) & 1 else -1 for i in range(order)
    )


def _barba_row_sum(order: int) -> Optional[int]:
    """s >= 0 with s^2 = 2*order - 1, or None when 2*order - 1 is not a square.

    A circulant R has one row and column sum s, and summing every entry of
    RR^T = (n-1)I + J gives n s^2 = n(n-1) + n^2, so every Barba row of
    order n sums to +-s.
    """
    root = math.isqrt(2 * order - 1)
    return root if root * root == 2 * order - 1 else None


def _circulant_barba_hits(order: int, lo: int, hi: int):
    """First rows, as +-1 tuples, with every nonzero-lag autocorrelation 1.

    A row summing to +-s has popcount (order +- s) / 2; other masks, and
    every mask when 2 * order - 1 is not a square, are skipped. Rows agree
    where the mask and its rotation by k agree, so
    c_k = order - 2 * popcount(mask ^ rot_k(mask)), and c_k == 1 iff that
    popcount is (order - 1) / 2. Since c_k == c_(order-k), lags up to
    (order - 1) / 2 suffice.
    """
    full = (1 << order) - 1
    want = (order - 1) // 2
    s = _barba_row_sum(order)
    weights = set() if s is None else {(order - s) // 2, (order + s) // 2}
    lags = range(1, want + 1)
    for mask in range(lo, hi):
        if mask.bit_count() not in weights:
            continue
        for k in lags:
            rot = ((mask << k) | (mask >> (order - k))) & full
            if (mask ^ rot).bit_count() != want:
                break
        else:
            yield _barba_row_from_mask(order, mask)


def search_circulant_barba(
    order: int,
    limit: Optional[int] = None,
    workers: int = 1,
    max_candidates: Optional[int] = None,
) -> list[IntMatrix]:
    """Circulant matrices with every off-diagonal Gram entry equal to one.

    Such a matrix has row sum +-s with s^2 = 2*order - 1. When 2*order - 1
    is not a square (orders 9, 17, 29, 37, ...) no row qualifies and the
    result is [] without a scan, whatever the candidate cap. Otherwise the
    2^order first rows are scanned in ascending mask order (bit i set means
    entry +1); rows whose sum is not +-s are skipped, the rest are kept when
    their nonzero-lag autocorrelations all equal 1, and each survivor is
    re-verified against the textbook autocorrelations and then is_barba
    before it is returned.
    """
    order = as_integer("order", order)
    if order % 4 != 1:
        raise ValueError(f"order {order} is not 1 (mod 4)")
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if _barba_row_sum(order) is None:
        _scan_cap(limit, workers, max_candidates)
        return []
    rows = _scan(
        _circulant_barba_hits, order, 1 << order, "circulant space", limit, workers, max_candidates
    )
    out = []
    for row in rows:
        r = circulant(row)
        if any(c != 1 for c in autocorrelations(row)[1:]) or not is_barba(r):
            raise RuntimeError(f"popcount filter accepted a non-conforming row {row}")
        out.append(r)
    return out


class BarbaScanEntry(NamedTuple):
    """One found row and the invariant factors of its doubled matrix."""

    first_row: tuple[int, ...]
    factors: tuple[int, ...]


class BarbaScanOrderReport(NamedTuple):
    """Scan results for one odd order n: doubles have order 2n = 4t+2.

    reference is the conjectured diagonal (1, 2^2t, (2t)^(2t-1),
    2t*sqrt(8t+1)) as displayed — note it has 4t+1 entries, one fewer
    than the doubled order, and it only exists when 8t+1 is a perfect
    square — so it is reported for comparison and no verdict is drawn.
    """

    order: int
    t_param: int
    reference: Optional[tuple[int, ...]]
    entries: tuple[BarbaScanEntry, ...]


class BarbaScanReport(NamedTuple):
    per_order: tuple[BarbaScanOrderReport, ...]


def _orbit_key(row: tuple[int, ...]) -> str:
    """The least mask, as a bit string, among the rotations of row and of -row.

    Rotating the first row permutes the rows of barba_double(circulant(row))
    and negating it negates the matrix, so rows with one key share an SNF.
    """
    n = len(row)
    bits = "".join("1" if v == 1 else "0" for v in row)
    flipped = bits.translate(str.maketrans("01", "10"))
    return min((b + b)[k : k + n] for b in (bits, flipped) for k in range(n))


def barba_problem_scan(
    orders: Iterable[int],
    workers: int = 1,
    max_candidates: Optional[int] = None,
) -> BarbaScanReport:
    """Tabulate SNFs of doubled circulant Barba matrices, order by order.

    One SNF is computed per orbit of first rows under rotation and
    negation and shared by the orbit's other rows.
    """
    reports = []
    for order in orders:
        found = search_circulant_barba(
            order, workers=workers, max_candidates=max_candidates
        )
        t = (order - 1) // 2
        reference: Optional[tuple[int, ...]] = None
        if t >= 1 and existence_filter(t):
            root = math.isqrt(8 * t + 1)
            reference = (1,) + (2,) * (2 * t) + (2 * t,) * (2 * t - 1) + (2 * t * root,)
        factors: dict[str, tuple[int, ...]] = {}
        entries = []
        for r in found:
            key = _orbit_key(r.row(0))
            if key not in factors:
                factors[key] = smith_normal_form(barba_double(r)).factors
            entries.append(BarbaScanEntry(r.row(0), factors[key]))
        reports.append(BarbaScanOrderReport(order, t, reference, tuple(entries)))
    return BarbaScanReport(tuple(reports))
