"""Exhaustive searches for design witnesses at desk scale.

All searches are deterministic: candidates are encoded as integer bitmasks
and scanned in ascending mask order, so identical inputs always produce
identical ordered outputs. Candidate spaces larger than the cap of 2^20
are refused with InfeasibleSearchError instead of starting an open-ended
scan; the cap is raised per call with max_candidates (the CLI's
--max-candidates).

Every scan runs through one driver, _scan. Optional data parallelism
partitions the masks it walks into contiguous chunks handled by worker
processes, each stopping after `limit` hits; the merged result is exactly
the sequential one, and both test the same masks.
"""

from __future__ import annotations

import heapq
import math
import os
from itertools import islice
from typing import Iterable, NamedTuple, Optional

from .designs import Tournament, barba_double, is_barba
from .exactmat import InfeasibleSearchError, IntMatrix, as_integer, circulant
from .kernels import autocorrelations
from .snf import smith_normal_form
from .verify import _ew_split, ew_degree_template

DEFAULT_MAX_CANDIDATES = 1 << 20


def _pool_size(workers: int, total: int) -> int:
    """Worker processes for a scan: at most one per CPU and per mask walked."""
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

    total is a power of two, and the search's test gives a mask and its
    complement (total - 1) ^ mask one verdict, so only the lower half
    [0, total // 2) is walked. hits(order, lo, hi) is a top-level
    generator function, so that workers can unpickle it, yielding a
    picklable (value, twin) pair per accepted mask of [lo, hi) in
    ascending mask order: the values of the mask and of its complement.
    Complementing reverses mask order, so the twins, reversed, are the
    upper half's values in ascending order. If a chunk stopped at `limit`,
    the lower half alone fills the result. space names the candidate
    space in the refusal message.
    """
    cap = _scan_cap(limit, workers, max_candidates)
    if total > cap:
        raise InfeasibleSearchError(
            f"the order-{order} {space} has {total} candidates, above the cap of "
            f"{cap}; raise it via max_candidates= or --max-candidates to proceed"
        )
    half = total // 2
    workers = _pool_size(workers, half)
    if workers <= 1:
        pairs = _chunk((hits, order, 0, half, limit))
    else:
        # Imported here: multiprocessing is a quarter of the package's import time,
        # and only parallel scans need it.
        from concurrent.futures import ProcessPoolExecutor

        size = -(-half // workers)
        jobs = [(hits, order, lo, min(lo + size, half), limit) for lo in range(0, half, size)]
        pairs = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_chunk, jobs):
                pairs.extend(part)
    return ([v for v, _ in pairs] + [t for _, t in reversed(pairs)])[:limit]


# ---------------------------------------------------------------------------
# Tournament searches


def _arc_bits(order: int) -> list[tuple[int, int, int]]:
    """(bit, i, j) per pair i < j, the mask bit that is set where i beats j:
    the pairs in row-major order, the first at the most significant bit."""
    shift = order * (order - 1) // 2
    arcs = []
    for i in range(order):
        for j in range(i + 1, order):
            shift -= 1
            arcs.append((1 << shift, i, j))
    return arcs


def _degree_masks(order: int) -> list[tuple[int, int, int]]:
    """(i, out, into) per vertex i: the mask bits of its pairs (i, j > i),
    set where i beats j, and of its pairs (j < i, i), set where j beats i."""
    out = [0] * order
    into = [0] * order
    for bit, i, j in _arc_bits(order):
        out[i] |= bit
        into[j] |= bit
    return list(zip(range(order), out, into))


def _degree_profile(degree_masks: list[tuple[int, int, int]], mask: int) -> list[int]:
    """The sorted out-degrees of a mask's tournament, by two popcounts per vertex."""
    return sorted(
        i + (mask & out).bit_count() - (mask & into).bit_count() for i, out, into in degree_masks
    )


def _ew_tournament_hits(order: int, lo: int, hi: int):
    """(A, A^T) per EW tournament A among masks [lo, hi) of the lower half.
    Only a mask whose out-degree profile is the template goes to _ew_split,
    as the per-vertex masks _ew_split takes (bit j of beaten_by[i] set iff
    j -> i), read off the mask's bits: where the bit of pair i < j is set,
    i -> j sets bit i of beaten_by[j], and where it is clear, j -> i sets
    bit j of beaten_by[i]. Only a hit's 0/1 rows are built, read off the
    same masks: a_ij = 1 iff bit i of beaten_by[j] is set.

    The complement of a mask is the tournament with every arc reversed,
    A^T, and _ew_split gives both the same verdict and a. Out-degrees d map
    to 4t - d, and the template is symmetric. The bordered matrix of A^T is
    S' = D S^T D with D = diag(-1, 1, ..., 1), and S^T S = S S^T since
    S + S^T = 2I, so S'S'^T = D SS^T D: the Gram switched at the border
    row. That keeps the halves, the verdict and the signs of the half
    without the border row, which count a. So A^T is the twin of A.
    """
    degree_masks = _degree_masks(order)
    arcs = _arc_bits(order)
    template = ew_degree_template(order // 4)
    for mask in range(lo, hi):
        if _degree_profile(degree_masks, mask) == template:
            beaten_by = [0] * order
            for bit, i, j in arcs:
                if mask & bit:
                    beaten_by[j] |= 1 << i
                else:
                    beaten_by[i] |= 1 << j
            if _ew_split(beaten_by) is not None:
                a = IntMatrix.from_rows([[b >> i & 1 for b in beaten_by] for i in range(order)])
                yield Tournament(a), Tournament(a.transpose())


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


def search_circulant_tournament(order: int) -> list[Tournament]:
    """Circulant tournaments of odd order passing the EW tournament check.

    Candidates are the antisymmetric lag subsets (lag s in the subset iff
    order-s is not), 2^((order-1)/2) in total. Circulant tournaments are
    regular of degree (order-1)/2, while ew_tournament_check's out-degree
    template needs three distinct out-degrees, so no candidate qualifies:
    after its order is checked the result is [] without a scan.
    """
    order = as_integer("order", order)
    if order % 2 == 0:
        raise ValueError("circulant tournaments need odd order")
    if order < 1:
        raise ValueError("order must be positive")
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


def _least_of_weight(w: int, lo: int) -> int:
    """The least mask >= lo >= 0 with w >= 1 bits set.

    Carry: above w bits, every mask in [lo, lo + (lo & -lo)) keeps all of
    lo's bits, so none qualifies. Fill: below w bits, every mask in
    [lo, lo | lo + 1) has at most lo's bits, and lo | lo + 1 has one more.
    """
    while lo.bit_count() > w:
        lo += lo & -lo
    while lo.bit_count() < w:
        lo |= lo + 1
    return lo


def _masks_of_weight(w: int, lo: int, hi: int):
    """The masks of [lo, hi), lo >= 0, with w bits set, ascending.

    The walk starts at the least such mask and steps by Gosper's hack: add
    the lowest set bit, then put the bits the carry cleared, less one,
    back at the bottom.
    """
    if w == 0:
        if lo <= 0 < hi:
            yield 0
        return
    mask = _least_of_weight(w, lo)
    while mask < hi:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((ripple ^ mask) >> 2) // low


def _circulant_barba_hits(order: int, lo: int, hi: int):
    """(row, -row) per first row, as +-1 tuples, with every nonzero-lag
    autocorrelation 1, among masks [lo, hi) of the lower half.

    A row summing to +-s has popcount (order +- s) / 2, so the scan walks
    the masks of [lo, hi) of those two weights, in ascending mask order;
    when 2 * order - 1 is not a square it walks none. Rows agree where the
    mask and its rotation by k agree, so
    c_k = order - 2 * popcount(mask ^ rot_k(mask)), and c_k == 1 iff that
    popcount is (order - 1) / 2. Since c_k == c_(order-k), lags up to
    (order - 1) / 2 suffice.

    The complement of a mask is the negated row, which has the other
    weight and the same autocorrelations (c_k is a sum of products of two
    entries), so each hit is yielded with its negation as its twin.
    """
    s = _barba_row_sum(order)
    if s is None:
        return
    full = (1 << order) - 1
    want = (order - 1) // 2
    lags = range(1, want + 1)
    masks = heapq.merge(
        _masks_of_weight((order - s) // 2, lo, hi), _masks_of_weight((order + s) // 2, lo, hi)
    )
    for mask in masks:
        if all((mask ^ ((mask << k | mask >> (order - k)) & full)).bit_count() == want for k in lags):
            row = _barba_row_from_mask(order, mask)
            yield row, tuple(-v for v in row)


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
    first rows summing to +-s among the 2^order candidates (bit i set means
    entry +1) are walked in ascending mask order, the cap still counting
    all 2^order; a row is kept when its nonzero-lag autocorrelations all
    equal 1, and each survivor is re-verified against the textbook
    autocorrelations and then is_barba before it is returned.
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

    The proved skew-type diagonal of that order is
    verify.predicted_snf_skew_ew(t), defined where 8t+1 is a perfect square.
    """

    order: int
    t_param: int
    entries: tuple[BarbaScanEntry, ...]


class BarbaScanReport(NamedTuple):
    per_order: tuple[BarbaScanOrderReport, ...]


def barba_problem_scan(
    orders: Iterable[int],
    workers: int = 1,
    max_candidates: Optional[int] = None,
) -> BarbaScanReport:
    """Tabulate SNFs of doubled circulant Barba matrices, order by order.

    One SNF is computed per orbit of first rows under rotation, negation
    and multipliers and shared by the orbit's other rows. A row that is
    not yet a key of the table gets its SNF, which is then stored under
    each of its images +-r(u*i + k mod n), gcd(u, n) = 1, 0 <= k < n; a
    later row of the orbit reads it off by itself. These doubles share
    the SNF: r(u*i + k) is the multiplier image r'_u[i] = r'[u*i mod n]
    of the rotation r'[i] = r[i + k], whose double is a row permutation
    of r's. circulant(r'_u) = P_u R' P_u^T with P_u[i][u*i mod n] = 1,
    since R'[u*i][u*j] = r'[u*(j - i)], so the double [[R', R'],
    [-R'^T, R'^T]] is conjugated by diag(P_u, P_u). The double of -r is
    -1 times the double of r.
    """
    reports = []
    for order in orders:
        found = search_circulant_barba(
            order, workers=workers, max_candidates=max_candidates
        )
        units = [u for u in range(order) if math.gcd(u, order) == 1]
        factors: dict[tuple[int, ...], tuple[int, ...]] = {}
        entries = []
        for r in found:
            row = r.row(0)
            if row not in factors:
                snf = smith_normal_form(barba_double(r)).factors
                for u in units:
                    for k in range(order):
                        image = tuple(row[(u * i + k) % order] for i in range(order))
                        factors[image] = factors[tuple(-v for v in image)] = snf
            entries.append(BarbaScanEntry(row, factors[row]))
        reports.append(BarbaScanOrderReport(order, (order - 1) // 2, tuple(entries)))
    return BarbaScanReport(tuple(reports))
