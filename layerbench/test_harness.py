"""Self-tests of the benchmark harness (not of doptsnf).

Run from the root of a checkout:

    python3 -m pytest layerbench/test_harness.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402


def span(sid, parent, name, start, end):
    return Span(sid, parent, "job", name, start, end)


def test_self_time_of_nested_spans():
    spans = [
        span(0, None, "a", 0.0, 10.0),
        span(1, 0, "b", 1.0, 4.0),
        span(2, 0, "c", 5.0, 9.0),
        span(3, 2, "b", 6.0, 7.0),
    ]
    got = self_times(spans)
    assert got["a"] == (1, pytest.approx(3.0))  # 10 - 3 - 4
    assert got["c"] == (1, pytest.approx(3.0))  # 4 - 1
    assert got["b"] == (2, pytest.approx(4.0))  # 3 + 1, both leaves


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)
    assert covered(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == pytest.approx(2.0)
    assert covered(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(6.0)
    assert covered(0.0, 10.0, []) == 0.0


def test_tracer_wraps_names_bound_by_from_import_and_restores_them():
    import doptsnf.kernels
    import doptsnf.search

    orig = doptsnf.search.autocorrelations
    assert orig is doptsnf.kernels.autocorrelations
    tracer = Tracer()
    tracer.install()
    try:
        assert doptsnf.search.autocorrelations is not orig
        doptsnf.search.autocorrelations([1, -1, 1])  # no job set: not recorded
        assert tracer.spans == []
        tracer.job = "probe"
        doptsnf.search.autocorrelations([1, -1, 1])
        doptsnf.exactmat.IntMatrix.from_rows([[1]])
        tracer.job = None
    finally:
        tracer.uninstall()
    assert doptsnf.search.autocorrelations is orig
    assert doptsnf.kernels.autocorrelations is orig
    names = [s.name for s in tracer.take()]
    assert names == ["kernels.autocorrelations", "exactmat.IntMatrix"]


def test_strip_elapsed_ignores_only_the_elapsed_field():
    a = json.dumps({"command": "snf", "elapsed_ms": "12", "results": [1]}).encode()
    b = json.dumps({"results": [1], "command": "snf", "elapsed_ms": "3456"}, indent=2).encode()
    c = json.dumps({"command": "snf", "elapsed_ms": "12", "results": [2]}).encode()
    assert checks.strip_elapsed(a) == checks.strip_elapsed(b)
    assert checks.strip_elapsed(a) != checks.strip_elapsed(c)
    assert b"elapsed_ms" not in checks.strip_elapsed(a)
    assert checks.strip_elapsed(b"1, 2^13, 12^10, 60^2\n") == b"1, 2^13, 12^10, 60^2\n"
    assert checks.strip_elapsed(b"[1, 2]") == b"[1, 2]"


def test_digest_comparator():
    pins = {"factors:x": checks.digest([1, 2, 6])}
    assert checks.compare_digest("factors:x", [1, 2, 6], pins) == []
    assert checks.compare_digest("factors:x", (1, 2, 6), pins) == []
    assert len(checks.compare_digest("factors:x", [1, 2, 12], pins)) == 1
    assert len(checks.compare_digest("factors:y", [1, 2, 6], pins)) == 1
    assert checks.digest(b"abc") == checks.digest("abc")


def test_pinned_factor_digests_match_known_diagonals():
    pins = checks.load_pins()["digests"]
    e26 = [1] + [2] * 13 + [12] * 10 + [60] * 2
    assert checks.compare_digest("factors:e26", e26, pins) == []


def test_benchmark_json_names_the_metrics_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.REPORTED_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_scaled_pass_divides_each_job_by_its_paired_probes():
    ref = run.PROBE_REF_S
    passes = [
        {"job_s": {"a": 3.0, "b": 1.0}, "job_probe_s": {"a": ref, "b": 2 * ref}},
        {"job_s": {"a": 9.0, "b": 3.0}, "job_probe_s": {"a": 3 * ref, "b": 2 * ref}},
    ]
    # a: 12 s over 4 probes, b: 4 s over 4 probes.
    assert run.scaled_pass(passes, "job_s") == pytest.approx(3.0 + 1.0)
