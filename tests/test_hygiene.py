"""Source hygiene: every name a doptsnf module imports is used in that
module, every module-level function and class and every public
module-level constant has a caller in the library or a stated reason,
each refusal message is raised from one place unless a reason is stated,
only ``IntMatrix.is_pm1`` spells the +-1 entry test, only ``snf`` names
the routes by which its local engine gets a |det|, no public function or
method takes a parameter named as a |det|, the tests' oracles
import no doptsnf code, each module imports only the modules of the
layers below it, every doptsnf name the benchmark harness in
``layerbench/`` uses still exists, the README's library example and CLI
commands print what their comments say, no test is skipped or marked to
fail, and every record of the hand-written ``BENCH_layers.json`` has the
format its readers rely on."""

import ast
import importlib
import json
import re
import shlex
from pathlib import Path

import pytest
from test_cli import python

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "doptsnf"
LAYERBENCH = SRC.parent.parent / "layerbench"
README = SRC.parent.parent / "README.md"
BENCH_LAYERS = SRC.parent.parent / "BENCH_layers.json"
BENCHMARK = SRC.parent.parent / "BENCHMARK.json"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in source and named
    nowhere else in it (``from __future__`` imports excepted)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_leftovers():
    source = """
from __future__ import annotations
import os.path, re
from x import a, b as c

c(re)
"""
    assert unused_imports(source) == ["a", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def callerless(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level function or class, public or
    private, and each public module-level constant of sources (module name
    -> source) that no source names, as a name or an attribute, outside the
    name's own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = [
        (node, node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("_")]
            else:
                continue
            inside = {id(sub) for sub in ast.walk(node)}
            for name in names:
                if not any(
                    used_name == name and id(user) not in inside for user, used_name in used
                ):
                    found.append(f"{module}.{name}")
    return sorted(found)


def test_callerless_finds_unnamed_public_definitions():
    sources = {
        "a": """
LIMIT = 3
_PRIVATE = 4
def used(x):
    return helper(x) + LIMIT + _scaled(x)
def _scaled(x):
    return 2 * x
def _unused(x):
    return x
def helper(x):
    return helper(x - 1) if x else 0
def recursive(x):
    return recursive(x - 1)
class Report:
    pass
""",
        "b": """
from . import a
a.used(2)
""",
    }
    assert callerless(sources) == ["a.Report", "a._unused", "a.recursive"]


#: Names with no caller in the library, each kept for a reason.
CALLERLESS = {
    "cli.parse_factors_rle": "layerbench decodes the CLI's run-length factors with it",
    "designs.normalize_skew_to_border": "layerbench builds its order-13 tournament with it",
    "designs.tournament_from_skew": "layerbench builds its order-13 tournament with it",
    "kernels.BACKEND": "layerbench records it with each run",
    "kernels.adjugate": "layerbench traces it; the tests' Gauss-Jordan adjugate oracle",
    "search.search_circulant_tournament": (
        "layerbench's search-scan times it; ROADMAP item 12 deletes it with that job"
    ),
    "verify.block_determinant_formula": "a statement of the paper the tests check",
    "verify.normalized_block_row_sums": "a statement of the paper the tests check",
    "verify.p_rank_report": "a statement of the paper the tests check; layerbench traces it",
}


def test_every_public_name_has_a_caller_or_a_reason():
    found = callerless({path.stem: path.read_text() for path in SRC.glob("*.py")})
    assert [name for name in found if name not in CALLERLESS] == []
    # An entry whose name gained a caller, or was deleted, goes too.
    assert sorted(CALLERLESS) == found


def test_the_oracles_import_no_doptsnf_code():
    """A fault in a library kernel cannot reach the oracle that checks it."""
    tree = ast.parse((TESTS / "oracles.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert modules == {"itertools", "math"}


#: Each module's layer: a module imports only modules of lower layers, so
#: the kernels and the SNF engine can never reach into the claims that
#: check them. The package root imports nothing.
LAYERS = {
    "__init__": 0,
    "kernels": 0,
    "exactmat": 1,
    "snf": 2,
    "designs": 2,
    "verify": 3,
    "search": 4,
    "cli": 5,
}


def package_imports(source: str) -> set[str]:
    """The doptsnf modules that source imports, at any depth in the file,
    by relative or absolute import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 or module.split(".")[0] == "doptsnf":
                base = module.removeprefix("doptsnf").lstrip(".")
                found |= {base} if base else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("doptsnf.")}
    return found


def test_package_imports_finds_relative_absolute_and_nested_imports():
    source = """
from . import kernels
from .exactmat import IntMatrix
import doptsnf.snf
import os.path
from doptsnf.designs import is_barba
from collections import Counter

def f():
    from .verify import CLAIMS
"""
    assert package_imports(source) == {"kernels", "exactmat", "snf", "designs", "verify"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_each_module_imports_only_lower_layers(path):
    layer = LAYERS[path.stem]
    assert {name: LAYERS[name] for name in package_imports(path.read_text()) if LAYERS[name] >= layer} == {}


def raise_sites(sources: dict[str, str]) -> dict[str, list[str]]:
    """``file:line`` of each ``raise X(message)`` and ``_require(cond, message)``
    in sources (file name -> source), keyed by the message with each
    f-string placeholder written ``{}``; other messages are skipped."""
    sites = {}
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                args = node.exc.args[:1]
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "_require":
                args = node.args[1:2]
            else:
                continue
            for arg in args:
                if isinstance(arg, ast.JoinedStr):
                    parts = [v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values]
                    message = "".join(parts)
                elif isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    message = arg.value
                else:
                    continue
                sites.setdefault(message, []).append(f"{name}:{node.lineno}")
    return sites


def test_raise_sites_compares_literal_parts():
    sources = {
        "a.py": """
def f(x, n):
    if n:
        raise ValueError(f"order {n} is bad")
    _require(x, f"order {x + 1} is bad")
    _require(x, "plain")
    raise TypeError(str(x))
""",
        "b.py": """
raise KeyError("plain")
raise ValueError(f"order {n!r} is bad: {why}")
raise
""",
    }
    assert raise_sites(sources) == {
        "order {} is bad": ["a.py:4", "a.py:5"],
        "plain": ["a.py:6", "b.py:2"],
        "order {} is bad: {}": ["b.py:3"],
    }


#: Refusals raised from more than one place, each for a reason.
REPEATED_REFUSALS = {
    "t must be >= 1": "each closed form checks its own argument",
    "order {} is not 1 (mod 4)": "each search checks its own order",
}


def test_each_refusal_is_raised_from_one_place():
    sites = raise_sites({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))})
    repeated = {message: where for message, where in sites.items() if len(where) > 1}
    assert {m: w for m, w in repeated.items() if m not in REPEATED_REFUSALS} == {}
    # An entry whose message is raised from one place, or none, goes too.
    assert sorted(REPEATED_REFUSALS) == sorted(repeated)


def hand_spelled_pm1(source: str) -> list[int]:
    """Lines of source holding a (1, -1) or {1, -1} literal, in either order,
    outside the ``is_pm1`` method of a class ``IntMatrix``."""
    tree = ast.parse(source)
    owner = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "IntMatrix"
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name == "is_pm1"
        for node in ast.walk(method)
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Tuple, ast.Set)) and id(node) not in owner:
            try:
                value = ast.literal_eval(node)
                spelled = len(value) == 2 and set(value) == {1, -1}
            except (ValueError, TypeError):
                continue
            if spelled:
                lines.append(node.lineno)
    return sorted(lines)


def test_hand_spelled_pm1_finds_entry_tests():
    source = """
class IntMatrix:
    def is_pm1(self):
        return set(self.entries) <= {1, -1}

def check(x, n):
    if any(v not in (1, -1) for v in x):
        return set(x) <= {-1, 1}
    return (1, 1), (0, 1, -1), (n, -1), ((1, -1),)
"""
    assert hand_spelled_pm1(source) == [7, 8, 9]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_is_pm1_spells_the_pm1_entry_test(path):
    assert hand_spelled_pm1(path.read_text()) == []


#: The SNF engine's own routes to the local engine with a |det| or an s_n in
#: hand, and the places a Gram block becomes a det or an s_n: a module
#: outside snf.py that named one could hand the engine a |det| or an s_n it
#: did not prove. The Gram-block rule itself lives in kernels, which both
#: snf and verify call.
SNF_DET_ROUTES = ("local_smith_form", "_local_factors", "_gram_abs_det", "_block_det", "_block_sn")


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "snf.py"), ids=lambda path: path.name
)
def test_only_snf_names_its_det_routes(path):
    source = path.read_text()
    assert [name for name in SNF_DET_ROUTES if re.search(rf"\b{name}\b", source)] == []


#: Parameter names that would take a |det|, or the largest invariant factor
#: s_n, which fixes the local engine's schedule as |det| fixes its exponents.
DET_PARAMETERS = {"d", "det", "abs_det", "sn", "s_n"}


def det_doors(source: str) -> list[str]:
    """The public functions of source, and the public methods and
    constructors of its public classes, with a parameter named as a |det|."""
    doors = []

    def scan(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef) and not prefix and not node.name.startswith("_"):
                scan(node.body, f"{node.name}.")
            elif isinstance(node, ast.FunctionDef) and (
                not node.name.startswith("_") or (prefix and node.name == "__init__")
            ):
                args = node.args
                if DET_PARAMETERS & {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
                    doors.append(prefix + node.name)

    scan(ast.parse(source).body, "")
    return doors


def test_det_doors_finds_public_parameters_named_as_a_det():
    source = """
def f(rows, d=None): ...
def g(rows, *, abs_det): ...
def _h(rows, d): ...
class A:
    def __init__(self, det): ...
    def m(self, d): ...
    def _p(self, d): ...
class _B:
    def m(self, d): ...
def ok(rows, dd, det_bits): ...
def hint(rows, *, s_n=None): ...
def _hint(rows, sn): ...
"""
    assert det_doors(source) == ["f", "g", "A.__init__", "A.m", "hint"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_public_door_takes_a_det(path):
    """No caller can hand the library a |det| or an s_n: each engine proves
    its own."""
    assert det_doors(path.read_text()) == []


def doptsnf_names(source: str) -> set[str]:
    """Dotted doptsnf names that source uses: the (module, attribute, ...)
    rows of a ``TARGETS`` tuple, every name imported from doptsnf, and every
    attribute chain read off such a name or off ``doptsnf`` itself."""
    tree = ast.parse(source)
    names = set()
    bound = {"doptsnf": "doptsnf"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and "TARGETS" in map(ast.unparse, node.targets):
            names.update(f"{module}.{attr}" for module, attr, *_ in ast.literal_eval(node.value))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "doptsnf":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                names.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id], *chain]))
    return names


def resolves(dotted: str) -> bool:
    """Whether dotted names an attribute chain from an importable module."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_doptsnf_names_finds_targets_imports_and_attributes():
    source = """
from doptsnf.snf import smith_normal_form
from doptsnf import cli
import doptsnf.kernels
TARGETS = (("doptsnf.verify", "ew_gram_check", "span"),)
cli.parse_factors_rle(text)
doptsnf.kernels.BACKEND
self.cli.missing
"""
    assert doptsnf_names(source) == {
        "doptsnf.snf.smith_normal_form",
        "doptsnf.cli",
        "doptsnf.verify.ew_gram_check",
        "doptsnf.cli.parse_factors_rle",
        "doptsnf.kernels",
        "doptsnf.kernels.BACKEND",
    }
    assert resolves("doptsnf.kernels.BACKEND") and resolves("doptsnf.cli.main")
    assert not resolves("doptsnf.snf.no_such_name") and not resolves("doptsnf.no_such_module")


def test_every_doptsnf_name_layerbench_uses_resolves():
    """A refactor that drops one of these names breaks the traced benchmark run."""
    names = set().union(*(doptsnf_names(p.read_text()) for p in LAYERBENCH.glob("*.py")))
    assert {"doptsnf.kernels.BACKEND", "doptsnf.cli.parse_factors_rle"} <= names
    assert "doptsnf.designs.skew_from_tournament" in names  # from spans.TARGETS
    assert sorted(n for n in names if not resolves(n)) == []


def test_readme_library_example_prints_its_comments(capsys):
    """Each line the ```python block under "## Library" prints equals the
    trailing ``# ...`` comment of its print call."""
    library = README.read_text().split("\n## Library\n", 1)[1]
    source = library.split("```python\n", 1)[1].split("```", 1)[0]
    promised = re.findall(r"^print\(.*#\s*(.*?)\s*$", source, re.MULTILINE)
    assert promised
    exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == promised


def test_readme_cli_commands_do_what_their_comments_say(tmp_path):
    """The commands of the ```sh block under "## CLI" run in order, as
    ``python -m doptsnf.cli`` subprocesses in one directory (so that no pool
    starts inside pytest). A trailing ``# -> ...`` is the first line the
    command prints, a trailing ``# exit N`` its exit code; any other exits 0."""
    cli = README.read_text().split("\n## CLI\n", 1)[1]
    block = cli.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("doptsnf ")]
    assert commands
    for line in commands:
        command, _, comment = line.partition(" #")
        proc = python(["-m", "doptsnf.cli", *shlex.split(command)[1:]], tmp_path)
        code = re.fullmatch(r"\s*exit (\d+).*", comment)
        assert proc.returncode == (int(code[1]) if code else 0), (line, proc.stderr)
        printed = re.fullmatch(r"\s*->\s*(.*?)\s*", comment)
        if printed:
            assert proc.stdout.splitlines()[0] == printed[1], line


#: pytest names that park a check instead of running it.
PARKING = {"skip", "skipif", "xfail", "importorskip"}


def parked_checks(source: str) -> list[int]:
    """Lines of source that skip a test or expect it to fail: a
    ``pytest.skip``, ``pytest.importorskip`` or ``pytest.xfail`` call, a
    ``pytest.mark.skip``, ``skipif`` or ``xfail`` mark, or one of these
    names imported from pytest."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in PARKING:
            if ast.unparse(node.value) in ("pytest", "pytest.mark", "mark"):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "pytest":
            if PARKING & {alias.name for alias in node.names}:
                lines.append(node.lineno)
    return sorted(lines)


def test_parked_checks_finds_skips_and_xfails():
    source = """
import pytest
from pytest import importorskip, mark
pytestmark = pytest.mark.skipif(True, reason="x")

@pytest.mark.xfail
def test_a():
    pytest.skip("later")

@mark.skip
def test_b(skip):
    skip.it()
    pytest.mark.parametrize("x", [1])
"""
    assert parked_checks(source) == [3, 4, 6, 8, 10]


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda path: path.name)
def test_no_test_is_parked(path):
    """A check that cannot run is deleted or mended, not skipped."""
    assert parked_checks(path.read_text()) == []


#: The end-to-end metrics each alternating-pairs workload reports.
PAIR_METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mib")


def bench_record_problems(record: dict, workloads: set[str]) -> list[str]:
    """What a BENCH_layers.json change record lacks: its change text, its
    alternating pairs on known workloads, for each end-to-end metric a
    parent and a change median inside its quartiles and a count of lower
    change runs out of the pairs, one seed per pair, and clean runs."""
    if "change" not in record:
        return ["no change"]
    problems = []
    pairs = record.get("alternating_pairs", {}).get("workloads")
    if not pairs:
        return ["no alternating_pairs.workloads"]
    for name, w in pairs.items():
        if name not in workloads:
            problems.append(f"{name}: not a benchmark workload")
            continue
        n = w.get("pairs", 0)
        first, last = w.get("seeds", (0, -1))
        if last - first + 1 != n:
            problems.append(f"{name}: seeds {first}..{last} are not {n} seeds")
        for metric in PAIR_METRICS:
            m = w.get(metric, {})
            for side in ("parent", "change"):
                q = m.get(side, {})
                if not all(k in q for k in ("q1", "median", "q3")) or not q["q1"] <= q["median"] <= q["q3"]:
                    problems.append(f"{name}: {metric} {side} quartiles {q}")
            if not 0 <= m.get("change_lower_in", -1) <= n:
                problems.append(f"{name}: {metric} change_lower_in is not within {n} pairs")
        if w.get("all_correct") is not True or w.get("failed") != 0:
            problems.append(f"{name}: runs were not all correct")
    return problems


def test_bench_record_problems_finds_gaps():
    quartiles = {"q1": 1.0, "median": 2.0, "q3": 3.0}
    metric = {"parent": quartiles, "change": quartiles, "change_lower_in": 2}
    good = {"seeds": [7, 8], "pairs": 2, **{m: metric for m in PAIR_METRICS}, "all_correct": True, "failed": 0}
    record = {"change": "x", "alternating_pairs": {"workloads": {"w": good}}}
    assert bench_record_problems(record, {"w"}) == []
    assert bench_record_problems({"alternating_pairs": {}}, {"w"}) == ["no change"]
    assert bench_record_problems({"change": "x"}, {"w"}) == ["no alternating_pairs.workloads"]
    assert bench_record_problems(record, {"v"}) == ["w: not a benchmark workload"]
    bad = dict(good, seeds=[7, 9], wall_s={"parent": {"q1": 1, "median": 0, "q3": 3}, "change_lower_in": 3}, failed=1)
    assert bench_record_problems({"change": "x", "alternating_pairs": {"workloads": {"w": bad}}}, {"w"}) == [
        "w: seeds 7..9 are not 2 seeds",
        "w: wall_s parent quartiles {'q1': 1, 'median': 0, 'q3': 3}",
        "w: wall_s change quartiles {}",
        "w: wall_s change_lower_in is not within 2 pairs",
        "w: runs were not all correct",
    ]


def test_bench_layers_records_are_well_formed():
    workloads = {w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]}
    records = json.loads(BENCH_LAYERS.read_text())["changes"]
    assert records
    for record in records:
        assert bench_record_problems(record, workloads) == [], record.get("change")
