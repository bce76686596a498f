"""The four workloads: their seeded inputs, jobs and output checks.

Each workload builds its inputs once (set-up) and then hands out the jobs
of one pass (``in_process`` is set in traced runs). A job's ``run`` is the
timed call; its ``check`` runs later, outside the timed window, and
returns a list of problems.

In snf-generic, pass k runs a signed row/column permutation of each
base matrix drawn from ``(seed, k)``. That leaves the invariant factors,
and so the pinned digests, unchanged while changing the order in which
the Euclidean engine meets its pivots. The other workloads have no seeded
part: their inputs are fixed designs and full candidate spaces. The
structured designs in particular run as built, because a permutation
moves the Euclidean engine's time on them by up to a factor of 1.8
(order 138), which would swamp the differences the workload is for.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from doptsnf.designs import (
    BlockEwSpec,
    build_example_26,
    build_example_66,
    normalize_skew_to_border,
    tournament_from_skew,
)
from doptsnf.exactmat import IntMatrix, block2x2, circulant, determinant, format_matrix, kronecker

# Timed calls go through these module attributes, where the tracer's
# wrappers replace them.
from doptsnf import cli, search, snf, verify

from checks import compare_digest, load_report_validator, schema_problems, strip_elapsed

#: Largest factors up to this many bits count as "small" in the records.
SMALL_FACTOR_BITS = 64

# Circulant first rows of the order-14 skew-type design [[R1, R2], [-R2^T, R1^T]],
# the t = 3 member of the family; the same rows seed the test suite's fixture.
SKEW14_ROW_A = (1, 1, 1, -1, 1, -1, -1)
SKEW14_ROW_B = (1, -1, -1, -1, -1, -1, -1)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    #: Input properties from the output: order, shape, rank, factor bits.
    record: Optional[Callable[[object], list]] = None
    #: Named per-layer counts from the output, e.g. search hits.
    counts: Optional[Callable[[object], dict]] = None


class Workload:
    name = ""
    #: Whether a job runs on a pool of worker processes; the others run on
    #: one CPU (see run.pin_to_one_cpu).
    uses_pool = False

    def peak_rss_kib(self) -> int:
        """Peak resident memory of the workload process so far."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# Inputs


def paley_two_block(q: int) -> IntMatrix:
    """The build_example_66 recipe on the order-q Paley circulant.

    The seed has 0 on the diagonal, -1 at the quadratic residues and +1
    elsewhere; at q = 11 this is exactly build_example_66().
    """
    residues = {i * i % q for i in range(1, q)}
    a = circulant([0] + [-1 if i in residues else 1 for i in range(1, q)])
    i3, j3 = IntMatrix.identity(3), IntMatrix.all_ones(3)
    iq, jq = IntMatrix.identity(q), IntMatrix.all_ones(q)
    r1 = kronecker(a + iq, j3 - i3) + kronecker(jq - 2 * iq, i3)
    r2 = kronecker(a + iq, j3 - i3) + kronecker(-a + iq, i3)
    return BlockEwSpec(r1, r2).assemble()


def skew14() -> IntMatrix:
    r1, r2 = circulant(SKEW14_ROW_A), circulant(SKEW14_ROW_B)
    return block2x2(r1, r2, -r2.transpose(), r1.transpose())


def signed_permutation(m: IntMatrix, rng: random.Random) -> IntMatrix:
    rows, cols = list(range(m.rows)), list(range(m.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rs = [rng.choice((1, -1)) for _ in rows]
    cs = [rng.choice((1, -1)) for _ in cols]
    return IntMatrix.from_rows(
        [[rs[i] * cs[j] * m.at(r, c) for j, c in enumerate(cols)] for i, r in enumerate(rows)]
    )


def random_matrix(rows: int, cols: int, values, rng: random.Random) -> IntMatrix:
    return IntMatrix.from_rows([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])


# ---------------------------------------------------------------------------
# SNF jobs


def snf_record(name: str, m: IntMatrix, factors) -> dict:
    rank = sum(1 for f in factors if f)
    bits = max(f.bit_length() for f in factors)
    return {
        "job": name,
        "shape": [m.rows, m.cols],
        "order": m.rows if m.is_square else None,
        "rank": rank,
        "factor_bits_max": bits,
        "small_factors": bits <= SMALL_FACTOR_BITS,
    }


class SnfJobs:
    """SNF jobs on named base matrices, or on seeded signed permutations of
    them when a seed is given."""

    def __init__(self, pins: dict, seed: Optional[int], workload: str):
        self.pins = pins
        self.seed = seed
        self.workload = workload
        self.bases: dict[str, tuple[IntMatrix, bool]] = {}
        self._abs_det: dict[str, int] = {}

    def add(self, name: str, m: IntMatrix, transforms: bool = False) -> None:
        self.bases[name] = (m, transforms)

    def jobs(self, k: int) -> list[Job]:
        if self.seed is None:
            return [self._job(name, m, t) for name, (m, t) in self.bases.items()]
        rng = random.Random(f"{self.workload}:{self.seed}:{k}")
        return [
            self._job(name, signed_permutation(m, rng), t) for name, (m, t) in self.bases.items()
        ]

    def abs_det(self, name: str) -> int:
        # |det| is invariant under signed permutations: one oracle call per base.
        if name not in self._abs_det:
            self._abs_det[name] = abs(determinant(self.bases[name][0]))
        return self._abs_det[name]

    def _job(self, name: str, m: IntMatrix, transforms: bool) -> Job:
        def check(res) -> list:
            problems = compare_digest(f"factors:{name}", list(res.factors), self.pins)
            if m.is_square and math.prod(res.factors) != self.abs_det(name):
                problems.append(f"{name}: product of factors != |det|")
            if transforms and not transforms_ok(m, res):
                problems.append(f"{name}: left @ A @ right != diag(factors)")
            return problems

        return Job(
            name=f"snf:{name}",
            run=lambda: snf.smith_normal_form(m, want_transforms=transforms),
            check=check,
            record=lambda res: [snf_record(name, m, res.factors)],
        )


def transforms_ok(m: IntMatrix, res) -> bool:
    if res.left is None or res.right is None:
        return False
    prod = res.left @ m @ res.right
    return all(
        prod.at(i, j) == (res.factors[i] if i == j else 0)
        for i in range(m.rows)
        for j in range(m.cols)
    )


# ---------------------------------------------------------------------------
# Workloads




class SnfStructured(Workload):
    """Structured square nonsingular designs with small invariant factors,
    then the claim registry on the bundled designs and the order-13
    tournament."""

    name = "snf-structured"

    def __init__(self, pins: dict, seed: int, workdir: Path, workers: int):
        self.digests = pins["digests"]
        self.claims = pins["claims"]
        self.snf = SnfJobs(self.digests, None, self.name)
        for q in (7, 11, 19, 23):
            self.snf.add(f"paley-q{q}", paley_two_block(q))
        e26 = build_example_26()
        self.snf.add("e26", e26)
        s14 = skew14()
        self.t13 = tournament_from_skew(normalize_skew_to_border(s14))
        self.inputs = {
            "e26": e26,
            "e66": build_example_66(),
            "skew14": s14,
            "t13": self.t13.matrix,
        }

    def jobs(self, k: int, in_process: bool) -> list[Job]:
        jobs = self.snf.jobs(k)
        for label in self.claims:
            _, inp, claim = label.split(":")
            jobs.append(self._claim_job(label, self.inputs[inp], claim))
        jobs.append(Job("p-rank:t13:3", lambda: verify.p_rank_report(self.t13, 3), p_rank_check))
        return jobs

    def _claim_job(self, label: str, x: IntMatrix, claim: str) -> Job:
        def check(chk) -> list:
            problems = compare_digest(label, [list(chk.computed), list(chk.predicted)], self.digests)
            if not chk.passed:
                problems.append(f"{label}: claim failed")
            return problems

        return Job(label, lambda: verify.theorem_conformance(x, claim), check)


def p_rank_check(rep) -> list:
    got = (rep.rank_a_plus_i, rep.rank_a)
    if not rep.passed or got != (7, 8):
        return [f"p-rank:t13:3: ranks {got}, expected (7, 8)"]
    return []


class SnfGeneric(Workload):
    """Inputs the local engine must hand back: huge cofactors, rectangular
    and singular shapes, transforms."""

    name = "snf-generic"

    def __init__(self, pins: dict, seed: int, workdir: Path, workers: int):
        # Base matrices are fixed so that their factors can be pinned; the
        # seed picks the signed permutations each pass runs.
        rng = random.Random("snf-generic base inputs")
        self.snf = SnfJobs(pins["digests"], seed, self.name)
        for n in (66, 100, 132):
            self.snf.add(f"random-pm1-{n}", random_matrix(n, n, (1, -1), rng))
        small = range(-2, 3)
        product = random_matrix(48, 24, small, rng) @ random_matrix(24, 64, small, rng)
        self.snf.add("rank24-48x64", product, transforms=True)
        self.snf.add("small-30x40", random_matrix(30, 40, range(-5, 6), rng), transforms=True)
        self.snf.add("e66", build_example_66(), transforms=True)

    def jobs(self, k: int, in_process: bool) -> list[Job]:
        return self.snf.jobs(k)


def search_counts(candidates: int, hits: Callable[[object], int]):
    return lambda out: {"search.candidates": candidates, "search.hits": hits(out)}


class SearchScan(Workload):
    """The exhaustive scans. Their candidate spaces are fixed, so the seed
    is unused; the order-17 scan runs on a pool of ``workers`` processes."""

    name = "search-scan"
    uses_pool = True

    def __init__(self, pins: dict, seed: int, workdir: Path, workers: int):
        self.digests = pins["digests"]
        self.workers = workers

    def jobs(self, k: int, in_process: bool) -> list[Job]:
        def rows_check(label: str, want: int):
            def check(found) -> list:
                problems = [] if len(found) == want else [f"{label}: {len(found)} hits, expected {want}"]
                rows = [list(getattr(x, "matrix", x).entries) for x in found]
                return problems + compare_digest(label, rows, self.digests)

            return check

        return [
            Job("search:ew-tournaments-5", lambda: search.enumerate_ew_tournaments(5),
                rows_check("search:ew-tournaments-5", 40), counts=search_counts(1 << 10, len)),
            Job("search:circulant-tournament-13", lambda: search.search_circulant_tournament(13),
                rows_check("search:circulant-tournament-13", 0), counts=search_counts(1 << 6, len)),
            Job("search:barba-scan", lambda: search.barba_problem_scan([5, 13]), self._scan_check,
                record=barba_records,
                counts=search_counts((1 << 5) + (1 << 13), lambda rep: sum(len(r.entries) for r in rep.per_order))),
            Job("search:circulant-barba-17", lambda: search.search_circulant_barba(17, workers=self.workers),
                rows_check("search:circulant-barba-17", 0), counts=search_counts(1 << 17, len)),
        ]

    def _scan_check(self, report) -> list:
        counts = [len(r.entries) for r in report.per_order]
        problems = [] if counts == [10, 104] else [f"search:barba-scan: {counts} rows, expected [10, 104]"]
        entries = [[list(e.first_row), list(e.factors)] for r in report.per_order for e in r.entries]
        return problems + compare_digest("search:barba-scan", entries, self.digests)


def barba_records(report) -> list:
    """One record per scanned order, for the SNFs of the doubled rows."""
    out = []
    for r in report.per_order:
        bits = max(f.bit_length() for e in r.entries for f in e.factors)
        out.append({
            "job": f"barba-double-{2 * r.order}",
            "count": len(r.entries),
            "shape": [2 * r.order, 2 * r.order],
            "order": 2 * r.order,
            "rank": max(sum(1 for f in e.factors if f) for e in r.entries),
            "factor_bits_max": bits,
            "small_factors": bits <= SMALL_FACTOR_BITS,
        })
    return out


#: (name, argv, expected exit code). Paths are relative to the work directory
#: so that the JSON reports, and their digests, do not depend on it.
CLI_COMMANDS = (
    ("construct-e26", ["construct", "--family", "example26", "-o", "e26.mat"], 0),
    ("construct-e66", ["construct", "--family", "example66", "-o", "e66.mat"], 0),
    ("snf-e26", ["snf", "e26.mat"], 0),
    ("snf-e66-json", ["snf", "e66.mat", "--json"], 0),
    ("snf-e66-transforms-json", ["snf", "e66.mat", "--transforms", "--json"], 0),
    ("verify-e66-ew-json", ["verify", "e66.mat", "--kind", "ew", "--json"], 0),
    ("check-e26-block-prime-square", ["check", "e26.mat", "--theorem", "block-prime-square"], 0),
    ("check-e66-block-squarefree-json", ["check", "e66.mat", "--theorem", "block-squarefree", "--json"], 0),
    ("check-skew14-main", ["check", "skew14.mat", "--theorem", "main"], 0),
    ("check-t13-tournament-snf", ["check", "t13.mat", "--theorem", "tournament-snf"], 0),
    ("search-ew-tournaments-5-json", ["search", "--kind", "ew-tournaments", "--order", "5", "--json"], 0),
    ("check-e66-main-precondition", ["check", "e66.mat", "--theorem", "main"], 1),
    ("snf-malformed", ["snf", "bad.mat"], 2),
)


class CliSession(Workload):
    """Sequential ``python -m doptsnf.cli`` subprocesses against this checkout.

    A traced run executes the same argv in-process through doptsnf.cli.main,
    in its untraced and traced halves alike, so that the spans of every
    layer below the CLI are visible and the tracing overhead compares like
    with like.
    """

    name = "cli-session"

    def __init__(self, pins: dict, seed: int, workdir: Path, workers: int):
        self.digests = pins["digests"]
        self.workdir = workdir
        self._child_peak_kib = 0
        root = Path(__file__).resolve().parent.parent
        self.validator = load_report_validator(root)
        src = str(root / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, self.env.get("PYTHONPATH")]))
        #: The matrices behind the files that the ``snf`` commands read.
        self.snf_inputs = {"e26.mat": build_example_26(), "e66.mat": build_example_66()}
        s14 = skew14()
        files = {
            "skew14.mat": format_matrix(s14),
            "t13.mat": format_matrix(tournament_from_skew(normalize_skew_to_border(s14)).matrix),
            "bad.mat": "2 2\n1 2\n3\n",
        }
        for fname, text in files.items():
            (workdir / fname).write_text(text, encoding="utf-8")

    def jobs(self, k: int, in_process: bool) -> list[Job]:
        self._child_peak_kib = 0
        run = self._in_process if in_process else self._subprocess
        return [
            Job(f"cli:{name}", (lambda argv=argv: run(argv)), self._checker(name, argv, code),
                record=self._recorder(name, argv) if argv[0] == "snf" and code == 0 else None,
                counts=cli_counts)
            for name, argv, code in CLI_COMMANDS
        ]

    def peak_rss_kib(self) -> int:
        """Largest peak resident memory among the children of this pass."""
        return self._child_peak_kib

    def _subprocess(self, argv) -> tuple[int, bytes]:
        with subprocess.Popen(
            [sys.executable, "-m", "doptsnf.cli", *argv], cwd=self.workdir, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ) as proc:
            killer = threading.Timer(120, proc.kill)
            killer.start()
            try:
                stdout = proc.stdout.read()
                # Reap the child here rather than in Popen, to read its rusage.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self._child_peak_kib = max(self._child_peak_kib, usage.ru_maxrss)
        return proc.returncode, stdout

    def _in_process(self, argv) -> tuple[int, bytes]:
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
        finally:
            os.chdir(cwd)
        return code, out.getvalue().encode()

    def _checker(self, name: str, argv, want_code: int):
        label = f"cli:{name}"

        def check(result) -> list:
            code, stdout = result
            problems = [] if code == want_code else [f"{label}: exit code {code}, expected {want_code}"]
            problems += compare_digest(label, strip_elapsed(stdout), self.digests)
            if "--json" in argv:
                problems += schema_problems(self.validator, stdout, label)
            return problems

        return check

    def _recorder(self, name: str, argv):
        def record(result) -> list:
            text = result[1].decode()
            if "--json" in argv:
                factors = [int(f) for f in json.loads(text)["results"][0]["factors"]]
            else:
                factors = cli.parse_factors_rle(text.splitlines()[0])
            return [snf_record(f"cli:{name}", self.snf_inputs[argv[1]], factors)]

        return record


def cli_counts(result) -> dict:
    # The session's one search command scans the 2^10 order-5 tournaments.
    counts = {"cli.stdout_bytes": len(result[1])}
    doc = json.loads(result[1]) if result[1].startswith(b"{") else {}
    if doc.get("command") == "search":
        counts["search.candidates"] = 1 << 10
        counts["search.hits"] = int(doc["results"][0]["count"])
    return counts


WORKLOADS = {w.name: w for w in (SnfStructured, SnfGeneric, SearchScan, CliSession)}
