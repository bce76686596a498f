"""CLI behavior: exit codes, text round-trips, and JSON report schema."""

import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import doptsnf
from doptsnf import cli
from doptsnf.cli import format_factors_rle, main, parse_factors_rle
from doptsnf.designs import barba_double, skew_from_tournament
from doptsnf.exactmat import IntMatrix, circulant, format_matrix, parse_matrix


@pytest.fixture(scope="module")
def schema():
    text = resources.files("doptsnf").joinpath("report_schema.json").read_text()
    return json.loads(text)


@pytest.fixture()
def e26_path(tmp_path, example26):
    p = tmp_path / "e26.mat"
    p.write_text(format_matrix(example26))
    return str(p)


@pytest.fixture()
def t5_path(tmp_path, witnesses5):
    p = tmp_path / "t5.mat"
    p.write_text(format_matrix(witnesses5[0].matrix))
    return str(p)


def run(capsys, argv, expect):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect, (argv, code, captured.err)
    return captured


def run_json(capsys, argv, expect, schema):
    captured = run(capsys, argv, expect)
    doc = json.loads(captured.out)
    jsonschema.validate(doc, schema)
    return doc


# ---------------------------------------------------------------------------
# run-length factor encoding


def test_rle_formatting():
    assert format_factors_rle([1] + [2] * 13 + [12] * 10 + [60] * 2) == "1, 2^13, 12^10, 60^2"
    assert format_factors_rle([1, 6]) == "1, 6"
    assert format_factors_rle([1, 1, 1]) == "1^3"
    assert format_factors_rle([0, 0]) == "0^2"


def test_rle_bijective_on_randoms():
    rng = random.Random(501)
    for _ in range(200):
        facs = []
        v = 1
        for _ in range(rng.randint(1, 8)):
            facs.extend([v] * rng.randint(1, 5))
            v *= rng.randint(2, 5)
        assert parse_factors_rle(format_factors_rle(facs)) == tuple(facs)


def test_rle_takes_ascii_decimals_and_positive_counts():
    for text in ("1_0, 2", "١^2", "1, 2^٢", "2^0, 5", "3^-1, 5", "1^"):
        with pytest.raises(ValueError):
            parse_factors_rle(text)
    assert parse_factors_rle("1, 2^3") == (1, 2, 2, 2)
    # empty runs, as a trailing comma leaves, add nothing
    assert parse_factors_rle(" , 1,, 2^2, ") == (1, 2, 2)


# ---------------------------------------------------------------------------
# construct


def test_construct_example26_round_trip(capsys, example26):
    captured = run(capsys, ["construct", "--family", "example26"], 0)
    assert parse_matrix(captured.out) == example26


def test_construct_output_file(tmp_path, capsys, example26):
    out = tmp_path / "m.mat"
    run(capsys, ["construct", "--family", "example26", "-o", str(out)], 0)
    assert parse_matrix(out.read_text()) == example26


def test_construct_circulant(capsys):
    captured = run(capsys, ["construct", "--family", "circulant", "--row", "0,1,0"], 0)
    assert parse_matrix(captured.out).to_rows() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_construct_skew_from_tournament(capsys, t5_path, witnesses5):
    captured = run(
        capsys, ["construct", "--family", "skew-from-tournament", "--input", t5_path], 0
    )
    assert parse_matrix(captured.out) == skew_from_tournament(witnesses5[0])


def test_construct_barba_double(capsys):
    captured = run(capsys, ["construct", "--family", "barba-double", "--row", "-1 -1 -1 -1 1"], 0)
    assert parse_matrix(captured.out).rows == 10


def test_construct_example66_round_trip(capsys, example66):
    captured = run(capsys, ["construct", "--family", "example66"], 0)
    assert parse_matrix(captured.out) == example66


def test_construct_barba_double_from_input(tmp_path, capsys, t5_path):
    base = circulant((-1, -1, -1, -1, 1))
    path = tmp_path / "base.mat"
    path.write_text(format_matrix(base))
    captured = run(capsys, ["construct", "--family", "barba-double", "--input", str(path)], 0)
    assert parse_matrix(captured.out) == barba_double(base)
    # a 0/1 tournament matrix is no +-1 base: refused, not a usage error
    captured = run(capsys, ["construct", "--family", "barba-double", "--input", t5_path], 1)
    assert captured.err == "construction failed: entries must be +-1\n"


def test_construct_failure_paths(tmp_path, capsys):
    # non-barba base: well-formed request that cannot be satisfied -> 1
    captured = run(capsys, ["construct", "--family", "barba-double", "--row", "1 1 1 1 1"], 1)
    assert "construction failed" in captured.err
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n0 1\n1 1\n")
    captured = run(
        capsys, ["construct", "--family", "skew-from-tournament", "--input", str(bad)], 1
    )
    assert "construction failed" in captured.err
    # missing required arguments -> usage error 2
    run(capsys, ["construct", "--family", "circulant"], 2)
    run(capsys, ["construct", "--family", "barba-double"], 2)
    captured = run(capsys, ["construct", "--family", "skew-from-tournament"], 2)
    assert captured.err == "error: --family skew-from-tournament needs --input\n"
    for row in ("", " , "):
        captured = run(capsys, ["construct", "--family", "circulant", "--row", row], 2)
        assert captured.err == "error: empty --row\n"


# ---------------------------------------------------------------------------
# snf


def test_snf_golden_line(capsys, e26_path):
    captured = run(capsys, ["snf", e26_path], 0)
    assert captured.out.strip() == "1, 2^13, 12^10, 60^2"


def test_snf_transforms_text(capsys, e26_path):
    captured = run(capsys, ["snf", e26_path, "--transforms"], 0)
    assert "left transform" in captured.out
    assert "right transform" in captured.out


def test_snf_parse_and_io_errors(tmp_path, capsys):
    garbage = tmp_path / "g.mat"
    garbage.write_text("not a matrix\n")
    captured = run(capsys, ["snf", str(garbage)], 2)
    assert "error" in captured.err
    run(capsys, ["snf", str(tmp_path / "missing.mat")], 2)


def test_snf_reads_and_prints_integers_of_any_size(tmp_path, capsys):
    # det [[10^5000, 1], [1, 1]] = 10^5000 - 1, past CPython's 4300-digit default
    path = tmp_path / "big.mat"
    path.write_text("2 2\n1" + "0" * 5000 + " 1\n1 1\n")
    assert run(capsys, ["snf", str(path)], 0).out.strip() == "1, " + "9" * 5000


# ---------------------------------------------------------------------------
# verify / check exit codes


def test_verify_ew_pass(capsys, e26_path):
    captured = run(capsys, ["verify", e26_path, "--kind", "ew"], 0)
    assert "pass" in captured.out


def test_verify_fail_is_exit_1(capsys, e26_path):
    run(capsys, ["verify", e26_path, "--kind", "barba"], 1)
    run(capsys, ["verify", e26_path, "--kind", "skew"], 1)


def test_verify_ew_fail_names_the_reason(tmp_path, capsys):
    path = tmp_path / "ones.mat"
    path.write_text(format_matrix(IntMatrix.all_ones(3)))
    captured = run(capsys, ["verify", str(path), "--kind", "ew"], 1)
    assert captured.out == "ew: fail (order 3 is not 2 (mod 4))\n"


def test_verify_skew_pass_and_refusal(tmp_path, capsys):
    ok = tmp_path / "ok.mat"
    ok.write_text("2 2\n1 1\n-1 1\n")
    assert run(capsys, ["verify", str(ok), "--kind", "skew"], 0).out == "skew: pass\n"
    wide = tmp_path / "wide.mat"
    wide.write_text("2 6\n" + "1 1 1 1 1 1\n" * 2)
    captured = run(capsys, ["verify", str(wide), "--kind", "skew"], 2)
    assert captured.err == "error: is_skew_type needs a square matrix\n"


def test_verify_tournament(capsys, t5_path):
    captured = run(capsys, ["verify", t5_path, "--kind", "tournament"], 0)
    assert "a = " in captured.out


def test_check_pass_fail_unknown(capsys, e26_path):
    run(capsys, ["check", e26_path, "--theorem", "block-prime-square"], 0)
    captured = run(capsys, ["check", e26_path, "--theorem", "main"], 1)
    assert "precondition" in captured.err
    captured = run(capsys, ["check", e26_path, "--theorem", "bogus"], 2)
    assert "bogus" in captured.err
    captured = run(capsys, ["check", "--list"], 0)
    assert "block-squarefree" in captured.out
    captured = run(capsys, ["check", e26_path], 2)
    assert captured.err == "error: check needs an input file and --theorem CLAIM (or --list)\n"


@pytest.mark.parametrize(
    "text, code, message",
    [
        ("2 6\n" + "1 1 1 1 1 1\n" * 2, 2, "error: claim main needs a square matrix"),
        ("2 2\n1 0\n1 1\n", 2, "error: entries must be +-1"),
        ("2 2\n1 1\n1 1\n", 1, "precondition failed: input is not skew-type"),
    ],
)
def test_check_main_refuses_inputs_outside_the_family(tmp_path, capsys, text, code, message):
    path = tmp_path / "x.mat"
    path.write_text(text)
    captured = run(capsys, ["check", str(path), "--theorem", "main"], code)
    assert captured.err == message + "\n"


@pytest.mark.parametrize(
    "claim", ["main", "skew-head", "skew-last", "scaled-inverse", "block-squarefree", "block-prime-square"]
)
def test_check_refuses_order_2_as_a_precondition(tmp_path, capsys, claim):
    # [[1, 1], [-1, 1]] is skew-type and EW, but t = 0 predicts nothing
    path = tmp_path / "x.mat"
    path.write_text("2 2\n1 1\n-1 1\n")
    captured = run(capsys, ["check", str(path), "--theorem", claim], 1)
    assert captured.err == "precondition failed: the claim needs t >= 1; order 2 gives t = 0\n"
    run(capsys, ["check", str(path), "--theorem", "ew-head"], 0)


def test_tournament_verify_and_claims_refuse_a_non_tournament_alike(tmp_path, capsys):
    path = tmp_path / "x.mat"
    path.write_text(format_matrix(IntMatrix.identity(5)))
    refusal = "precondition failed: not a tournament matrix: tournament diagonal must be zero\n"
    assert run(capsys, ["verify", str(path), "--kind", "tournament"], 1).err == refusal
    assert run(capsys, ["check", str(path), "--theorem", "tournament-snf"], 1).err == refusal


def test_check_chain_on_tournament(capsys, t5_path):
    for claim in ("tournament-snf", "border-link", "aplusi-head", "a2a-tail"):
        run(capsys, ["check", t5_path, "--theorem", claim], 0)


# ---------------------------------------------------------------------------
# search


def test_search_text_summary(capsys):
    captured = run(capsys, ["search", "--kind", "ew-tournaments", "--order", "5", "--limit", "2"], 0)
    summary = json.loads(captured.out.strip().splitlines()[-1])
    assert summary["count"] == "2"


def test_search_empty_is_still_success(capsys):
    # 2 * 17 - 1 = 33 is not a square, so no circulant Barba row has order 17
    captured = run(capsys, ["search", "--kind", "circulant-barba", "--order", "17"], 0)
    summary = json.loads(captured.out.strip().splitlines()[-1])
    assert summary["count"] == "0"


def test_empty_search_needs_no_cap(capsys, schema):
    # order 45 has 2^45 candidate rows, above the default cap, but 89 is not
    # a square, so the answer is known without a scan
    argv = ["search", "--kind", "circulant-barba", "--order", "45", "--json"]
    doc = run_json(capsys, argv, 0, schema)
    assert doc["status"] == "pass"
    assert [r["count"] for r in doc["results"]] == ["0"]


def test_search_refusal_and_usage(capsys):
    captured = run(capsys, ["search", "--kind", "ew-tournaments", "--order", "9"], 1)
    assert "refused" in captured.err
    run(capsys, ["search", "--kind", "ew-tournaments", "--order", "7"], 2)
    run(capsys, ["search", "--kind", "ew-tournaments"], 2)
    run(capsys, ["search", "--kind", "barba-scan"], 2)


def test_search_rejects_out_of_range_arguments(capsys):
    order5 = ["search", "--kind", "circulant-barba", "--order", "5"]
    assert "limit" in run(capsys, order5 + ["--limit", "-1"], 2).err
    for n in ("0", "-3"):
        assert "--parallel" in run(capsys, order5 + ["--parallel", n], 2).err
    assert "--max-candidates" in run(capsys, order5 + ["--max-candidates", "0"], 2).err
    for argv in (["--kind", "circulant-barba", "--order", "-3"], ["--kind", "barba-scan", "--orders", "-3"]):
        assert "order must be positive, got -3" in run(capsys, ["search"] + argv, 2).err
    assert "order 0 is not 1 (mod 4)" in run(capsys, ["search", "--kind", "barba-scan", "--orders", "0"], 2).err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--kind", "barba-scan", "--order", "5"], "--order"),
        (["--kind", "ew-tournaments", "--order", "5", "--orders", "5"], "--orders"),
        (["--kind", "circulant-barba", "--order", "5", "--orders", "5"], "--orders"),
        (["--kind", "barba-scan", "--orders", "13", "--order", "5"], "--order"),
        (["--kind", "barba-scan", "--orders", "5", "--limit", "1"], "--limit"),
    ],
)
def test_search_rejects_flags_its_kind_ignores(capsys, argv, flag):
    captured = run(capsys, ["search"] + argv, 2)
    assert f"{flag} does not apply to --kind {argv[1]}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "E26", "--kind", "skew", "--strict"], "--strict does not apply to --kind skew"),
        (["verify", "E26", "--kind", "tournament", "--strict"], "--strict does not apply to --kind tournament"),
        (["verify", "E26", "--kind", "barba", "--strict", "--json"], "--strict does not apply to --kind barba"),
        (["check", "--list", "--json"], "--json does not apply to --list"),
        (["check", "--list", "--theorem", "main"], "--theorem does not apply to --list"),
        (["check", "E26", "--list"], "input file E26 does not apply to --list"),
    ],
)
def test_verify_and_check_reject_flags_they_ignore(capsys, e26_path, argv, message):
    captured = run(capsys, [e26_path if a == "E26" else a for a in argv], 2)
    assert message.replace("E26", e26_path) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "family, argv, flag",
    [
        ("example26", ["--row", "1 2 3"], "--row"),
        ("example66", ["--input", "IN"], "--input"),
        ("circulant", ["--row", "0 1 0", "--input", "/nonexistent"], "--input"),
        ("skew-from-tournament", ["--input", "IN", "--row", "0 1 0"], "--row"),
    ],
)
def test_construct_rejects_flags_its_family_ignores(capsys, t5_path, family, argv, flag):
    argv = ["construct", "--family", family] + [t5_path if a == "IN" else a for a in argv]
    captured = run(capsys, argv, 2)
    assert f"{flag} does not apply to --family {family}" in captured.err
    assert captured.out == ""


def test_barba_double_takes_row_or_input(capsys, t5_path):
    argv = ["construct", "--family", "barba-double", "--row", "-1 -1 -1 -1 1", "--input", t5_path]
    captured = run(capsys, argv, 2)
    assert "takes --row or --input, not both" in captured.err
    assert captured.out == ""


def test_row_takes_ascii_decimals_only(capsys):
    for row in ("1_000 0 0", "١٢ 0 0"):
        captured = run(capsys, ["construct", "--family", "circulant", "--row", row], 2)
        assert "not a decimal integer" in captured.err
        assert captured.out == ""


def test_barba_scan_orders_without_rows(capsys):
    # 2n - 1 is not a square at 17, 29 and 37, so no scan runs and no cap refuses
    out = run(capsys, ["search", "--kind", "barba-scan", "--orders", "17", "29", "37"], 0).out
    for order in (17, 29, 37):
        assert f"order {order}: 0 rows" in out


def test_search_barba_scan_text(capsys):
    captured = run(capsys, ["search", "--kind", "barba-scan", "--orders", "5", "13"], 0)
    lines = captured.out.splitlines()
    assert [line for line in lines if line.startswith("order ")] == ["order 5: 10 rows", "order 13: 104 rows"]
    assert "1, 2^13, 12^10, 60^2" in captured.out


# ---------------------------------------------------------------------------
# JSON reports all validate against the shipped schema


def test_json_construct(capsys, schema, example26):
    doc = run_json(capsys, ["construct", "--family", "example26", "--json"], 0, schema)
    assert doc["command"] == "construct"
    entries = doc["results"][0]["entries"]
    assert len(entries) == 26 and entries[0][0] == "1"


def test_json_snf(capsys, schema, e26_path):
    doc = run_json(capsys, ["snf", e26_path, "--json", "--transforms"], 0, schema)
    res = doc["results"][0]
    assert res["factors_rle"] == "1, 2^13, 12^10, 60^2"
    assert res["factors"][-1] == "60"
    assert res["rank"] == "26"
    assert res["left"]["rows"] == "26"


def test_json_snf_formats_no_transform_text(monkeypatch, capsys, schema, e26_path):
    """The --json report prints no text, so the transforms' text is not built;
    the report itself is unchanged."""
    doc = run_json(capsys, ["snf", e26_path, "--json", "--transforms"], 0, schema)

    def no_format(*args, **kwargs):
        raise AssertionError("format_matrix ran")

    monkeypatch.setattr(cli, "format_matrix", no_format)
    again = run_json(capsys, ["snf", e26_path, "--json", "--transforms"], 0, schema)
    assert {**again, "elapsed_ms": None} == {**doc, "elapsed_ms": None}


def test_json_verify(capsys, schema, e26_path):
    doc = run_json(capsys, ["verify", e26_path, "--kind", "ew", "--json"], 0, schema)
    assert doc["status"] == "pass"
    assert doc["results"][0]["row_block_sums"] == ["5", "5"]
    doc = run_json(capsys, ["verify", e26_path, "--kind", "barba", "--json"], 1, schema)
    assert doc["status"] == "fail"


def test_json_check(capsys, schema, e26_path):
    doc = run_json(capsys, ["check", e26_path, "--theorem", "block-prime-square", "--json"], 0, schema)
    assert doc["status"] == "pass"
    assert doc["results"][0]["passed"] is True
    # precondition mismatch is an error report, not a crash
    doc = run_json(capsys, ["check", e26_path, "--theorem", "main", "--json"], 1, schema)
    assert doc["status"] == "error"
    assert doc["error"]


def test_json_search(capsys, schema):
    doc = run_json(
        capsys, ["search", "--kind", "ew-tournaments", "--order", "5", "--json", "--limit", "2"], 0, schema
    )
    kinds = [r["kind"] for r in doc["results"]]
    assert kinds == ["search-summary", "matrix", "matrix"]
    # barbaScan allows no other property, so validation also refuses a stray key
    doc = run_json(capsys, ["search", "--kind", "barba-scan", "--orders", "1", "5", "17", "--json"], 0, schema)
    records = doc["results"]
    assert {r["kind"] for r in records} == {"barba-scan"}
    assert [(r["order"], len(r["entries"])) for r in records] == [("1", 2), ("5", 10), ("17", 0)]


@pytest.mark.parametrize(
    "argv, command",
    [
        (["verify", "E26", "--kind", "tournament"], "verify"),
        (["construct", "--family", "barba-double", "--row", "1 1 1 1 1"], "construct"),
        (["search", "--kind", "ew-tournaments", "--order", "9"], "search"),
    ],
)
def test_json_refusal_is_an_error_report(capsys, schema, e26_path, argv, command):
    argv = [e26_path if a == "E26" else a for a in argv]
    doc = run_json(capsys, argv + ["--json"], 1, schema)
    assert doc["command"] == command
    assert doc["status"] == "error"
    assert doc["results"] == []
    assert doc["error"]


def test_json_tournament_verify(capsys, schema, t5_path):
    doc = run_json(capsys, ["verify", t5_path, "--kind", "tournament", "--json"], 0, schema)
    assert doc["results"][0]["a_param"] in ("0", "3")


# ---------------------------------------------------------------------------
# Fresh processes: `python -m doptsnf.cli` and what each command imports

SRC = str(Path(doptsnf.__file__).resolve().parent.parent)


def python(args, cwd):
    """Run `python -S *args` with this checkout's src first on the path.

    -S skips site-packages hooks, which may import modules of their own.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-S", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["construct", "--family", "barba-double", "--row", "1 1 1 1 1"], "construction failed: "),
        (["check", "e66.mat", "--theorem", "main"], "precondition failed: "),
        (["search", "--kind", "ew-tournaments", "--order", "9"], "search refused: "),
    ],
)
@pytest.mark.parametrize("as_json", [False, True])
def test_refusals_under_python_m(tmp_path, schema, example66, argv, prefix, as_json):
    # Under -m the module runs as __main__, so _ConstructionFailure is
    # __main__._ConstructionFailure; only a fresh process sees that.
    (tmp_path / "e66.mat").write_text(format_matrix(example66))
    proc = python(["-m", "doptsnf.cli", *argv] + (["--json"] if as_json else []), tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(prefix), proc.stderr
    if as_json:
        doc = json.loads(proc.stdout)
        jsonschema.validate(doc, schema)
        assert doc["status"] == "error"
        assert doc["error"] == proc.stderr[len(prefix):].rstrip("\n")
    else:
        assert proc.stdout == ""


@pytest.mark.parametrize("limit", [[], ["--limit", "7"]])
def test_parallel_search_under_python_m(tmp_path, schema, limit):
    """With --parallel 2 the pool's workers build the tournaments; the report
    equals the serial one but for its elapsed time."""
    argv = ["-m", "doptsnf.cli", "search", "--kind", "ew-tournaments", "--order", "5", "--json", *limit]
    docs = []
    for parallel in ([], ["--parallel", "2"]):
        proc = python(argv + parallel, tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        jsonschema.validate(doc, schema)
        del doc["elapsed_ms"]
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["results"][0]["count"] == ("7" if limit else "40")


#: Runs the command in argv, if any, then prints the names of the loaded modules.
LOADED = (
    "import sys\n"
    "from doptsnf.cli import main\n"
    "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(' '.join(sys.modules))\n"
    "sys.exit(code)\n"
)
NO_DATACLASSES = ("dataclasses", "inspect")


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        ([], ("designs", "snf", "verify", "search")),
        (["snf", "e26.mat"], ("designs", "verify", "search")),
        (["construct", "--family", "example26"], ("snf", "verify", "search")),
    ],
)
def test_each_command_imports_only_what_it_runs(tmp_path, example26, argv, unloaded):
    (tmp_path / "e26.mat").write_text(format_matrix(example26))
    proc = python(["-c", LOADED, *argv], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "doptsnf.exactmat" in loaded
    unloaded = NO_DATACLASSES + tuple("doptsnf." + m for m in unloaded)
    assert loaded.isdisjoint(unloaded), sorted(loaded.intersection(unloaded))


def test_no_module_loads_dataclasses(tmp_path):
    modules = sorted(p.stem for p in Path(doptsnf.__file__).parent.glob("*.py") if p.stem != "__init__")
    assert {"cli", "designs", "exactmat", "kernels", "search", "snf", "verify"} <= set(modules)
    script = "".join(f"import doptsnf.{m}\n" for m in modules)
    script += "import sys\nprint(' '.join(sys.modules))\n"
    proc = python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"doptsnf." + m for m in modules} <= loaded
    assert loaded.isdisjoint(NO_DATACLASSES)
