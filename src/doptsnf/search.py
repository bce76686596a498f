"""Exhaustive searches for design witnesses at desk scale.

All searches are deterministic: candidates are encoded as integer bitmasks
and scanned in ascending mask order, so identical inputs always produce
identical ordered outputs. Candidate spaces larger than the cap of 2^20
are refused with InfeasibleSearchError instead of starting an open-ended
scan; the cap is raised per call with max_candidates (the CLI's
--max-candidates).

Every search runs through one driver, _scan, which stops the scan once
`limit` masks are found. Optional data parallelism partitions the mask
range into contiguous chunks handled by worker processes, each stopping
after `limit` hits; the merged result is exactly the sequential one. The
pool never has more processes than CPUs or candidates.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional

from .designs import Tournament, barba_double, is_barba
from .exactmat import IntMatrix, circulant
from .kernels import autocorrelations
from .snf import smith_normal_form
from .verify import ew_tournament_check

DEFAULT_MAX_CANDIDATES = 1 << 20


class InfeasibleSearchError(RuntimeError):
    """The candidate space exceeds the configured cap."""


def _pool_size(workers: int, total: int) -> int:
    """Worker processes for a scan: at most one per CPU and per candidate."""
    return min(workers, os.cpu_count() or 1, total)


def _integer(name: str, value) -> int:
    """value as an int; like IntMatrix entries, 1.5 is refused rather than truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _chunk(job: tuple) -> list[int]:
    hits, order, lo, hi, limit = job
    return list(islice(hits(order, lo, hi), limit))


def _scan(hits, order: int, total: int, space: str, limit, workers: int, max_candidates) -> list[int]:
    """The first `limit` (all if None) masks in [0, total) accepted by a search.

    hits(order, lo, hi) is a top-level generator function, so that workers
    can unpickle it, yielding the accepted masks of [lo, hi) in ascending
    order; space names the candidate space in the refusal message.
    """
    if limit is not None and _integer("limit", limit) < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    if _integer("workers", workers) < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cap = DEFAULT_MAX_CANDIDATES if max_candidates is None else _integer("max_candidates", max_candidates)
    if cap < 1:
        raise ValueError(f"max_candidates must be at least 1, got {cap}")
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
    out: list[int] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_chunk, jobs):
            out.extend(part)
    return out[:limit]


# ---------------------------------------------------------------------------
# Tournament searches


def _tournament_from_mask(order: int, mask: int) -> Tournament:
    """Decode a strictly-upper-triangular bitmask, most significant bit first."""
    rows = [[0] * order for _ in range(order)]
    shift = order * (order - 1) // 2
    for i in range(order):
        for j in range(i + 1, order):
            shift -= 1
            bit = (mask >> shift) & 1
            rows[i][j] = bit
            rows[j][i] = 1 - bit
    return Tournament(IntMatrix.from_rows(rows))


def _ew_tournament_hits(order: int, lo: int, hi: int):
    for mask in range(lo, hi):
        if ew_tournament_check(_tournament_from_mask(order, mask))[0]:
            yield mask


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
    if order % 4 != 1:
        raise ValueError(f"order {order} is not 1 (mod 4)")
    if not 5 <= order <= 9:
        raise ValueError("only orders 5 and 9 are supported")
    total = 1 << (order * (order - 1) // 2)
    masks = _scan(
        _ew_tournament_hits, order, total, "tournament space", limit, workers, max_candidates
    )
    return [_tournament_from_mask(order, m) for m in masks]


def _circulant_tournament_from_mask(order: int, mask: int) -> Tournament:
    half = (order - 1) // 2
    row = [0] * order
    for i in range(half):
        lag = i + 1
        bit = (mask >> (half - 1 - i)) & 1
        row[lag] = bit
        row[order - lag] = 1 - bit
    return Tournament(circulant(row))


def _circulant_tournament_hits(order: int, lo: int, hi: int):
    for mask in range(lo, hi):
        if ew_tournament_check(_circulant_tournament_from_mask(order, mask))[0]:
            yield mask


def search_circulant_tournament(
    order: int,
    limit: Optional[int] = None,
    max_candidates: Optional[int] = None,
) -> list[Tournament]:
    """Circulant tournaments of odd order passing the EW tournament check.

    Candidates are the antisymmetric lag subsets (lag s in the subset iff
    order-s is not), 2^((order-1)/2) in total, scanned in ascending mask
    order. Circulant tournaments are regular of degree (order-1)/2 while
    the EW template forces three distinct out-degrees, so this search is
    expected to come back empty; it exists to make that emptiness a
    computed fact rather than an assumption.
    """
    if order % 2 == 0:
        raise ValueError("circulant tournaments need odd order")
    if order < 1:
        raise ValueError("order must be positive")
    total = 1 << ((order - 1) // 2)
    space = "circulant tournament space"
    masks = _scan(_circulant_tournament_hits, order, total, space, limit, 1, max_candidates)
    return [_circulant_tournament_from_mask(order, m) for m in masks]


# ---------------------------------------------------------------------------
# Barba searches


def _barba_row_from_mask(order: int, mask: int) -> tuple[int, ...]:
    return tuple(
        1 if (mask >> (order - 1 - i)) & 1 else -1 for i in range(order)
    )


def _circulant_barba_hits(order: int, lo: int, hi: int):
    """Masks whose rows have every nonzero-lag autocorrelation equal to 1.

    Rows agree where the mask and its rotation by k agree, so
    c_k = order - 2 * popcount(mask ^ rot_k(mask)), and c_k == 1 iff that
    popcount is (order - 1) / 2. Since c_k == c_(order-k), lags up to
    (order - 1) / 2 suffice.
    """
    full = (1 << order) - 1
    want = (order - 1) // 2
    lags = range(1, want + 1)
    for mask in range(lo, hi):
        for k in lags:
            rot = ((mask << k) | (mask >> (order - k))) & full
            if (mask ^ rot).bit_count() != want:
                break
        else:
            yield mask


def search_circulant_barba(
    order: int,
    limit: Optional[int] = None,
    workers: int = 1,
    max_candidates: Optional[int] = None,
) -> list[IntMatrix]:
    """Circulant matrices with every off-diagonal Gram entry equal to one.

    Enumerates all 2^order first rows in ascending mask order (bit i set
    means entry +1), keeps those whose nonzero-lag autocorrelations all
    equal 1, and re-verifies each survivor against the textbook
    autocorrelations and then is_barba before returning it.
    """
    if order % 4 != 1:
        raise ValueError(f"order {order} is not 1 (mod 4)")
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    masks = _scan(
        _circulant_barba_hits, order, 1 << order, "circulant space", limit, workers, max_candidates
    )
    out = []
    for mask in masks:
        row = _barba_row_from_mask(order, mask)
        r = circulant(row)
        if any(c != 1 for c in autocorrelations(row)[1:]) or not is_barba(r):
            raise RuntimeError(
                f"popcount filter accepted a non-conforming row (mask {mask})"
            )
        out.append(r)
    return out


@dataclass(frozen=True)
class BarbaScanEntry:
    """One found row and the invariant factors of its doubled matrix."""

    first_row: tuple[int, ...]
    factors: tuple[int, ...]


@dataclass(frozen=True)
class BarbaScanOrderReport:
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


@dataclass(frozen=True)
class BarbaScanReport:
    per_order: tuple[BarbaScanOrderReport, ...]


def barba_problem_scan(
    orders: Iterable[int],
    workers: int = 1,
    max_candidates: Optional[int] = None,
) -> BarbaScanReport:
    """Tabulate SNFs of doubled circulant Barba matrices, order by order."""
    reports = []
    for order in orders:
        found = search_circulant_barba(
            order, workers=workers, max_candidates=max_candidates
        )
        t = (order - 1) // 2
        reference: Optional[tuple[int, ...]] = None
        if t >= 1:
            root = math.isqrt(8 * t + 1)
            if root * root == 8 * t + 1:
                reference = (
                    (1,) + (2,) * (2 * t) + (2 * t,) * (2 * t - 1) + (2 * t * root,)
                )
        entries = tuple(
            BarbaScanEntry(r.row(0), smith_normal_form(barba_double(r)).factors)
            for r in found
        )
        reports.append(BarbaScanOrderReport(order, t, reference, entries))
    return BarbaScanReport(tuple(reports))
