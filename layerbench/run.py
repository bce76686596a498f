#!/usr/bin/env python3
"""Layered benchmark of doptsnf: end-to-end times per workload, per-layer
spans from a separate traced run.

Run from the root of a checkout:

    python3 layerbench/run.py --workload snf-structured --seed 1 --seconds 25 --trace 0
    python3 layerbench/run.py --workload all --seed 1 --seconds 25

Load model: a closed loop with one client. Each run sets up one workload,
then repeats passes over its jobs until ``--seconds`` have elapsed; every
output is checked outside the timed window. ``--trace 0`` reports the
end-to-end metrics: the result line's times are scaled to a reference host
speed (see ``host_probe``), and the unscaled pass times are printed above
it as median and quartiles. ``--trace 1`` reports the per-layer metrics of
a traced run (half the time untraced, half traced, so that the tracing
overhead is measured in the same process). ``--workload all`` runs each
workload in a fresh process. The last line of standard output is one JSON object; the
full record, including per-job input properties and, for traced runs, the
spans, goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("snf-structured", "snf-generic", "search-scan", "cli-session")

#: Set-ups per run; setup_s is their median.
SETUP_PROBES = 7
#: Subprocess imports per traced run; cli.startup_s is their median.
STARTUP_PROBES = 3

#: Loop steps of one host probe.
PROBE_STEPS = 6000
#: The host probe's time at the fastest speed a 2-core x86-64 host gave it
#: under Python 3.11.7. The result line's times are in seconds at that speed.
PROBE_REF_S = 0.0042

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}

#: The per-layer metrics on the result line. Each is measured on every
#: workload; a self time that is zero on some workload (the function is not
#: called there) is only in the full table in .bench_out/.
REPORTED_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in (
        "kernels.smith_reduce", "kernels.bareiss_determinant", "kernels.adjugate",
        "kernels.gf_rank", "kernels.matmul", "kernels.autocorrelations",
        "snf.smith_normal_form", "exactmat.IntMatrix", "exactmat.matmul",
        "designs.Tournament", "designs.skew_from_tournament", "designs.is_barba",
        "designs.barba_double", "verify.ew_gram_check", "verify.ew_tournament_check",
        "verify.theorem_conformance", "verify.p_rank_report",
        "search.enumerate_ew_tournaments", "search.search_circulant_tournament",
        "search.search_circulant_barba", "search.barba_problem_scan", "cli.main",
    )},
    "kernels.smith_reduce.self_s": "s",
    "snf.smith_normal_form.self_s": "s",
    "exactmat.IntMatrix.self_s": "s",
    "search.candidates": "count",
    "search.hits": "count",
    "search.hit_ratio": "ratio",
    "cli.startup_s": "s",
    "cli.stdout_bytes": "bytes",
    "snf.order": "count",
    "snf.rank": "count",
    "snf.factor_bits_max": "bits",
    "trace.overhead_s": "s",
}

POOL_NOTE = (
    "spans inside search pool workers are not collected; "
    "their work shows only in the enclosing search.* span"
)


def pin_checkout() -> dict:
    """Import doptsnf from this checkout's src/ and record what was loaded."""
    sys.path.insert(0, str(SRC))
    try:
        import doptsnf
        import doptsnf.kernels
    except ImportError as exc:
        raise SystemExit(f"error: cannot import doptsnf from {SRC}: {exc}")
    module = Path(doptsnf.__file__).resolve()
    if SRC.resolve() not in module.parents:
        raise SystemExit(f"error: doptsnf resolves to {module}, outside {SRC}")
    return {
        "module": str(module.relative_to(ROOT.resolve())),
        "backend": doptsnf.kernels.BACKEND,
        "version": doptsnf.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def cpu_times() -> tuple[float, float]:
    """(this process, reaped children) user + system CPU seconds."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop that runs no doptsnf code.

    It does the kinds of work the timed jobs spend their time in: products
    and remainders of integers of a few hundred bits, list indexing and
    small-integer arithmetic. On a shared host, other tenants slow every
    process by up to about 1.8x for seconds to minutes at a time; a probe
    run next to a job slows by about the same factor, so the result line
    divides it out (``scaled_pass``).
    """
    start = time.perf_counter()
    big = 3 ** 150
    acc = 1
    row = list(range(64))
    for i in range(PROBE_STEPS):
        acc = (acc * big + i) % (big + 2 * i + 1)
        row[i & 63] = row[(i * 7) & 63] ^ (i >> 3)
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts from now on, on one
    CPU, so that the host probes run where the timed work runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def quartiles(values) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Tally:
    """Jobs attempted and failed, with the first problems for the record."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: list[dict] = []

    def add(self, job, outcome, keep_record: bool) -> dict:
        ok, out = outcome
        self.attempted += 1
        counts: dict = {}
        try:
            problems = job.check(out) if ok else [f"{job.name}: raised {out}"]
            if ok and job.counts:
                counts = job.counts(out)
            if ok and keep_record and job.record:
                self.records.extend(job.record(out))
        except Exception as exc:  # a malformed output must not abort the run
            problems = [f"{job.name}: check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.extend(problems)
        return counts


def add_to(table: dict, key: str, value: float) -> None:
    table[key] = table.get(key, 0.0) + value


def run_pass(workload, k: int, tally: Tally, in_process: bool, tracer=None) -> dict:
    """One timed pass over the workload's jobs, then its output checks.

    A host probe runs before the first job and after each job, outside the
    jobs' times; each job is paired with the mean of the probes on its two
    sides.
    """
    jobs = workload.jobs(k, in_process)
    outcomes = []
    job_s: dict = {}
    job_cpu_s: dict = {}
    job_probe_s: dict = {}
    child_cpu_s = 0.0
    probe = host_probe()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        cpu0, start = cpu_times(), time.perf_counter()
        try:
            outcomes.append((True, job.run()))
        except Exception as exc:  # counted as a failed job, never fatal
            outcomes.append((False, f"{type(exc).__name__}: {exc}"))
        finally:
            elapsed, cpu1 = time.perf_counter() - start, cpu_times()
            if tracer is not None:
                tracer.job = None
        after = host_probe()
        add_to(job_s, job.name, elapsed)
        add_to(job_cpu_s, job.name, sum(cpu1) - sum(cpu0))
        add_to(job_probe_s, job.name, (probe + after) / 2)
        child_cpu_s += cpu1[1] - cpu0[1]
        probe = after
    peak_kib = workload.peak_rss_kib()
    counts: dict = {}
    for job, outcome in zip(jobs, outcomes):
        for key, value in tally.add(job, outcome, keep_record=k == 0).items():
            counts[key] = counts.get(key, 0) + value
    return {
        "wall_s": sum(job_s.values()),
        "cpu_s": sum(job_cpu_s.values()),
        "child_cpu_s": child_cpu_s,
        "peak_rss_mib": peak_kib / 1024,
        "job_s": job_s,
        "job_cpu_s": job_cpu_s,
        "job_probe_s": job_probe_s,
        "counts": counts,
    }


def run_passes(workload, seconds: float, tally: Tally, in_process: bool = False,
               k0: int = 0, tracer=None) -> list[dict]:
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(workload, k0 + len(passes), tally, in_process, tracer))
        if tracer is not None:
            passes[-1]["spans"] = tracer.take()
    return passes


def timed_subprocess(argv, env=None) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.monotonic()
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    return t0, proc


def setup_probes(args) -> tuple[list[float], list[float]]:
    """Wall times from process start to the end of set-up, in fresh
    processes, and for each the mean of the host probes on its two sides."""
    pin_to_one_cpu()
    times, probes = [], []
    before = host_probe()
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only"]
        t0, proc = timed_subprocess(argv)
        lines = proc.stdout.decode().split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.decode()[-500:]}")
        times.append(float(lines[1]) - t0)
        after = host_probe()
        probes.append((before + after) / 2)
        before = after
    return times, probes


def cli_startup_probes() -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(STARTUP_PROBES):
        t0, proc = timed_subprocess([sys.executable, "-c", "import doptsnf.cli"], env)
        if proc.returncode != 0:
            raise SystemExit(f"error: import doptsnf.cli failed: {proc.stderr.decode()[-500:]}")
        times.append(time.monotonic() - t0)
    return times


def input_summary(records: list[dict]) -> dict:
    if not records:
        return {"snf.jobs": 0, "snf.order": 0, "snf.rank": 0, "snf.factor_bits_max": 0,
                "snf.small_factor_share": 0.0}
    return {
        "snf.jobs": len(records),
        "snf.order": max(r["order"] or 0 for r in records),
        "snf.rank": max(r["rank"] for r in records),
        "snf.factor_bits_max": max(r["factor_bits_max"] for r in records),
        "snf.small_factor_share": sum(r["small_factors"] for r in records) / len(records),
    }


def scaled_pass(passes, key: str) -> float:
    """Seconds per pass at the reference host speed.

    Each job's total time (``key``) over the passes, divided by the total of
    its paired probes, is its cost in probes; the sum over the jobs, times
    ``PROBE_REF_S``, is one pass at the reference speed.
    """
    names = passes[0][key].keys()
    return PROBE_REF_S * sum(
        sum(p[key][name] for p in passes) / sum(p["job_probe_s"][name] for p in passes)
        for name in names
    )


def end_to_end(passes, args) -> tuple[dict, dict]:
    stats = {
        name: quartiles([p[name] for p in passes]) for name in ("wall_s", "cpu_s", "peak_rss_mib")
    }
    setups, probes = setup_probes(args)
    stats["setup_s"] = quartiles(setups)
    metrics = {
        "setup_s": statistics.median(t * PROBE_REF_S / p for t, p in zip(setups, probes)),
        "wall_s": scaled_pass(passes, "job_s"),
        "cpu_s": scaled_pass(passes, "job_cpu_s"),
        "peak_rss_mib": stats["peak_rss_mib"]["median"],
    }
    return metrics, {"stats": stats, "setup_probe_s": probes}


def per_layer(untraced, traced) -> dict:
    from spans import SPAN_NAMES, self_times

    per_pass = [self_times(p["spans"]) for p in traced]
    table: dict = {}
    for name in SPAN_NAMES:
        table[f"{name}.calls"] = statistics.median(t.get(name, (0, 0.0))[0] for t in per_pass)
        table[f"{name}.self_s"] = statistics.median(t.get(name, (0, 0.0))[1] for t in per_pass)
    for key in ("search.candidates", "search.hits", "cli.stdout_bytes"):
        table[key] = statistics.median(p["counts"].get(key, 0) for p in traced)
    table["search.hit_ratio"] = table["search.hits"] / table["search.candidates"] if table["search.candidates"] else 0.0
    table["search.child_cpu_s"] = statistics.median(p["child_cpu_s"] for p in traced)
    table["cli.startup_s"] = statistics.median(cli_startup_probes())
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    table["trace.untraced_wall_s"] = untraced_wall
    table["trace.traced_wall_s"] = traced_wall
    table["trace.overhead_s"] = traced_wall - untraced_wall
    return table


def write_spans(path: Path, traced) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({
            "fields": ["sid", "parent", "job", "name", "start", "end"],
            "note": POOL_NOTE,
            "passes": [[list(s) for s in p["spans"]] for p in traced],
        }, fh)


def measure(args, checkout: dict, workload, tally: Tally) -> tuple[dict, dict]:
    """Run the passes; return the result-line metrics and the full record."""
    record = {"args": vars(args), "checkout": checkout}
    if not args.trace:
        passes = run_passes(workload, args.seconds, tally)
        metrics, detail = end_to_end(passes, args)
        units = END_TO_END_UNITS
        record.update(detail, metrics=metrics, passes=passes)
    else:
        from spans import Tracer

        untraced = run_passes(workload, args.seconds / 2, tally, in_process=True)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(workload, args.seconds / 2, tally, in_process=True,
                                k0=len(untraced), tracer=tracer)
        finally:
            tracer.uninstall()
        table = per_layer(untraced, traced)
        table.update(input_summary(tally.records))
        metrics = {name: table[name] for name in REPORTED_LAYER_UNITS}
        units = REPORTED_LAYER_UNITS
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.json.gz"
        write_spans(spans_path, traced)
        record.update(layers=table, note=POOL_NOTE, spans=spans_path.name, untraced_passes=untraced,
                      traced_passes=[{k: v for k, v in p.items() if k != "spans"} for p in traced])
    record.update(inputs=tally.records, input_summary=input_summary(tally.records),
                  attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}, record


def print_report(args, checkout: dict, record: dict, tally: Tally) -> None:
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("# checkout " + "  ".join(f"{k} {v}" for k, v in checkout.items()))
    summary = record["input_summary"]
    print(f"# inputs  {summary['snf.jobs']} SNF inputs, largest factor up to "
          f"{summary['snf.factor_bits_max']} bits, share with factors <= 64 bits "
          f"{summary['snf.small_factor_share']:.2f}")
    if args.trace:
        print(f"# note    {POOL_NOTE}")
        for name, value in sorted(record["layers"].items()):
            print(f"{name:45s} {value!r}")
    else:
        print("# unscaled, per pass (setup_s per set-up):")
        for name, st in record["stats"].items():
            print(f"{name:14s} {st['median']:.4f} {END_TO_END_UNITS[name]:4s}"
                  f"  q1 {st['q1']:.4f}  q3 {st['q3']:.4f}  n {st['n']}")
        print(f"# at the reference host speed (host probe {PROBE_REF_S} s), as on the result line:")
        for name in ("setup_s", "wall_s", "cpu_s"):
            print(f"{name:14s} {record['metrics'][name]:.4f} s")
    rate = tally.failed / tally.attempted
    print(f"{'error_rate':14s} {rate:.4f} share  ({tally.failed} of {tally.attempted} jobs)")
    for problem in tally.problems[:10]:
        print(f"# problem {problem}")


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric by name."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {name}: failed with exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    checkout = pin_checkout()
    from checks import load_pins
    from workloads import WORKLOADS

    # At most two working processes: the order-17 scan's pool.
    workers = min(2, os.cpu_count() or 1)
    checkout["workers"] = workers
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](load_pins(), args.seed, workdir, workers)
        if args.setup_only:
            print(f"ready {time.monotonic()!r}")
            return 0
        if not workload.uses_pool:
            pin_to_one_cpu()
        tally = Tally()
        metrics, record = measure(args, checkout, workload, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(args, checkout, record, tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
