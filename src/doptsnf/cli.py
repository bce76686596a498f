"""Command-line front end: construct, snf, verify, check, search.

Matrices travel in the shared text format (see exactmat.parse_matrix);
machine-readable output is a JSON report (--json) whose schema ships with
the package as report_schema.json. All numbers inside JSON reports are
decimal strings because invariant factors routinely exceed 64-bit range.

Exit codes: 0 success / verdict true / check passed; 1 failed check,
failed precondition, or refused construction/search; 2 usage, parse, or
argument errors. A refused request prints its reason on stderr and,
under --json, also a report with status "error" and the reason in
"error". A flag the request does not read is a usage error: --strict
applies only to verify --kind ew, check --list takes no other flag and
no input file, and each construct --family and search --kind names the
flags it ignores (search --kind barba-scan reads --orders, not --order).

Every run is a fresh process, so start-up counts. At the top this module
imports only the standard library and exactmat, which also defines the
refusals' exception classes; each cmd_* imports the designs, snf, verify
or search functions it runs, so `snf` never loads search and `construct`
never loads snf.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
import time
from collections.abc import Sequence

from .exactmat import (
    InfeasibleSearchError,
    IntMatrix,
    PreconditionError,
    circulant,
    format_matrix,
    parse_int,
    parse_matrix,
)


class _ConstructionFailure(Exception):
    """A well-formed construct request that cannot be satisfied."""


def format_factors_rle(factors: Sequence[int]) -> str:
    """Run-length encode a factor sequence, e.g. (1,2,2,10) -> '1, 2^2, 10'."""
    parts = []
    for value, group in itertools.groupby(factors):
        count = sum(1 for _ in group)
        parts.append(f"{value}^{count}" if count > 1 else f"{value}")
    return ", ".join(parts)


def parse_factors_rle(text: str) -> tuple[int, ...]:
    """Inverse of format_factors_rle; values and counts are ASCII decimals, counts >= 1."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        value, count = part.split("^") if "^" in part else (part, "1")
        reps = parse_int(count)
        if reps < 1:
            raise ValueError(f"run count must be at least 1, got {part!r}")
        out.extend([parse_int(value)] * reps)
    return tuple(out)


# ---------------------------------------------------------------------------
# Commands: each returns (status, results, text). status is "pass" or
# "fail", results holds plain values for the JSON report and text is the
# exact stdout of text mode; _run prints one of them.


def _load_matrix(path: str) -> IntMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _parse_row(text: str) -> tuple[int, ...]:
    tokens = [tok for tok in re.split(r"[,\s]+", text.strip()) if tok]
    if not tokens:
        raise ValueError("empty --row")
    return tuple(parse_int(tok) for tok in tokens)


def _refuse_unused(args, flags: Sequence[str], context: str) -> None:
    """Usage error for each of `flags` given although `context` does not read it."""
    for flag in flags:
        if getattr(args, flag) not in (None, False):
            raise ValueError(f"--{flag} does not apply to {context}")


# Construct flags that a --family does not read; giving one is a usage error.
_UNUSED_CONSTRUCT_FLAGS = {
    "example26": ("row", "input"),
    "example66": ("row", "input"),
    "circulant": ("input",),
    "barba-double": (),
    "skew-from-tournament": ("row",),
}


def cmd_construct(args):
    from .designs import (
        Tournament,
        barba_double,
        build_example_26,
        build_example_66,
        is_barba,
        skew_from_tournament,
    )

    _refuse_unused(args, _UNUSED_CONSTRUCT_FLAGS[args.family], f"--family {args.family}")
    if args.family == "example26":
        m = build_example_26()
    elif args.family == "example66":
        m = build_example_66()
    elif args.family == "circulant":
        if args.row is None:
            raise ValueError("--family circulant needs --row")
        m = circulant(_parse_row(args.row))
    elif args.family == "barba-double":
        if args.row is not None and args.input is not None:
            raise ValueError("--family barba-double takes --row or --input, not both")
        if args.row is not None:
            base = circulant(_parse_row(args.row))
        elif args.input:
            base = _load_matrix(args.input)
        else:
            raise ValueError("--family barba-double needs --row or --input")
        try:
            if not is_barba(base):
                raise _ConstructionFailure(f"base of order {base.rows} is not a barba matrix")
            m = barba_double(base)
        except ValueError as exc:
            raise _ConstructionFailure(str(exc)) from exc
    else:  # skew-from-tournament: argparse's choices hold the families
        if not args.input:
            raise ValueError("--family skew-from-tournament needs --input")
        raw = _load_matrix(args.input)
        try:
            m = skew_from_tournament(Tournament(raw))
        except ValueError as exc:
            raise _ConstructionFailure(str(exc)) from exc
    text = format_matrix(m)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return "pass", [m], "" if args.output else text


def cmd_snf(args):
    from .snf import smith_normal_form

    res = smith_normal_form(_load_matrix(args.input), want_transforms=args.transforms)
    rle = format_factors_rle(res.factors)
    payload = {"kind": "snf", "factors": res.factors, "factors_rle": rle, "rank": res.rank}
    text = rle + "\n"
    if args.transforms:
        payload.update(left=res.left, right=res.right)
    if args.transforms and not args.json:  # the JSON report carries no text
        text += "\n" + format_matrix(res.left, comments=("left transform",))
        text += "\n" + format_matrix(res.right, comments=("right transform",))
    return "pass", [payload], text


def cmd_verify(args):
    from .designs import is_barba, is_skew_type
    from .verify import _tournament, ew_gram_check, ew_tournament_check

    if args.kind != "ew":
        _refuse_unused(args, ("strict",), f"--kind {args.kind}")
    m = _load_matrix(args.input)
    suffix = ""
    if args.kind == "ew":
        rep = ew_gram_check(m, strict=args.strict)
        verdict = rep.verdict
        payload = {"kind": "ew-report", **rep._asdict()}
        if not verdict and rep.reason:
            suffix = f" ({rep.reason})"
        if verdict and rep.row_block_sums:
            suffix = f"; block row sums {rep.row_block_sums}"
    elif args.kind == "skew":
        verdict = is_skew_type(m)
        payload = {"kind": "verdict", "name": "skew", "verdict": verdict}
    elif args.kind == "tournament":
        verdict, a_param = ew_tournament_check(_tournament(m))
        payload = {"kind": "tournament-check", "verdict": verdict, "a_param": a_param}
        if verdict:
            suffix = f"; split parameter a = {a_param}"
    else:  # barba
        verdict = is_barba(m)
        payload = {"kind": "verdict", "name": "barba", "verdict": verdict}
    status = "pass" if verdict else "fail"
    return status, [payload], f"{args.kind}: {status}{suffix}\n"


def cmd_check(args):
    from .verify import CLAIMS, theorem_conformance

    if args.list:
        _refuse_unused(args, ("theorem", "json"), "--list")
        if args.input:
            raise ValueError(f"input file {args.input} does not apply to --list")
        return "pass", [], "".join(
            f"{name:20s} {description}\n" for name, (description, _) in sorted(CLAIMS.items())
        )
    if not args.input or not args.theorem:
        raise ValueError("check needs an input file and --theorem CLAIM (or --list)")
    chk = theorem_conformance(_load_matrix(args.input), args.theorem)
    status = "pass" if chk.passed else "fail"
    payload = {
        "kind": "theorem-check",
        "claim_id": chk.claim_id,
        "computed": chk.computed,
        "predicted": chk.predicted,
        "passed": chk.passed,
        "detail": chk.detail,
    }
    text = (
        f"{chk.claim_id}: {status}\n"
        f"  computed:  {format_factors_rle(chk.computed)}\n"
        f"  predicted: {format_factors_rle(chk.predicted)}\n"
    )
    if chk.detail:
        text += f"  ({chk.detail})\n"
    return status, [payload], text


# Search flags that a --kind does not read; giving one is a usage error.
_UNUSED_SEARCH_FLAGS = {
    "ew-tournaments": ("orders",),
    "circulant-barba": ("orders",),
    "barba-scan": ("limit", "order"),
}


def cmd_search(args):
    from .search import barba_problem_scan, enumerate_ew_tournaments, search_circulant_barba

    workers = 1 if args.parallel is None else args.parallel
    if workers < 1:
        raise ValueError(f"--parallel must be at least 1, got {workers}")
    cap = args.max_candidates
    if cap is not None and cap < 1:
        raise ValueError(f"--max-candidates must be at least 1, got {cap}")
    _refuse_unused(args, _UNUSED_SEARCH_FLAGS[args.kind], f"--kind {args.kind}")
    if args.kind == "barba-scan":
        if args.orders is None:
            raise ValueError("barba-scan needs --orders")
        report = barba_problem_scan(args.orders, workers=workers, max_candidates=cap)
        results, text = [], ""
        for rep in report.per_order:
            text += f"order {rep.order}: {len(rep.entries)} rows\n"
            entries = []
            for e in rep.entries:
                rle = format_factors_rle(e.factors)
                entries.append({"first_row": e.first_row, "factors": e.factors, "factors_rle": rle})
                text += f"  [{' '.join(map(str, e.first_row))}]  ->  {rle}\n"
            results.append({
                "kind": "barba-scan",
                "order": rep.order,
                "t_param": rep.t_param,
                "entries": entries,
            })
        return "pass", results, text
    if args.order is None:
        raise ValueError(f"--kind {args.kind} needs --order")
    if args.kind == "ew-tournaments":
        found = enumerate_ew_tournaments(
            args.order, limit=args.limit, workers=workers, max_candidates=cap
        )
        matrices = [t.matrix for t in found]
    else:  # circulant-barba
        matrices = search_circulant_barba(
            args.order, limit=args.limit, workers=workers, max_candidates=cap
        )
    summary = {
        "kind": "search-summary", "search_kind": args.kind, "order": args.order, "count": len(matrices)
    }
    text = "".join(format_matrix(m) + "\n" for m in matrices)
    return "pass", [summary] + matrices, text + json.dumps(_jsonable(summary)) + "\n"


# ---------------------------------------------------------------------------
# Report


# Requests that are well formed but refused: exit 1, with this stderr prefix.
_REFUSALS = {
    PreconditionError: "precondition failed",
    _ConstructionFailure: "construction failed",
    InfeasibleSearchError: "search refused",
}


def _jsonable(value):
    """Report form of a result value: every int a decimal string, every IntMatrix a "matrix" record."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, IntMatrix):
        value = {"kind": "matrix", "rows": value.rows, "cols": value.cols, "entries": value.to_rows()}
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    return [_jsonable(v) for v in value]


def _run(args) -> int:
    """Run one command, print its text or its JSON report, return the exit code."""
    started = time.perf_counter()
    try:
        status, results, text = args.func(args)
        error = None
    except tuple(_REFUSALS) as exc:
        print(f"{_REFUSALS[type(exc)]}: {exc}", file=sys.stderr)
        status, results, text, error = "error", [], "", str(exc)
    if args.json:
        doc = {
            "command": args.command,
            "inputs": [args.input] if getattr(args, "input", None) else [],
            "status": status,
            "elapsed_ms": int((time.perf_counter() - started) * 1000),
            "results": results,
        }
        if error is not None:
            doc["error"] = error
        sys.stdout.write(json.dumps(_jsonable(doc), indent=2) + "\n")
    else:
        print(text, end="")
    return 0 if status == "pass" else 1


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doptsnf",
        description="Exact Smith normal forms and structure checks for maximal-determinant design families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a matrix from a named family")
    p.add_argument(
        "--family",
        required=True,
        choices=["example26", "example66", "skew-from-tournament", "barba-double", "circulant"],
    )
    p.add_argument("--row", help="first row for circulant-based families, e.g. '0 1 0'")
    p.add_argument("--input", help="input matrix file (tournament or base matrix)")
    p.add_argument("-o", "--output", help="write the matrix here instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("snf", help="invariant factors of a matrix file")
    p.add_argument("input")
    p.add_argument("--transforms", action="store_true", help="also print unimodular left/right transforms")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_snf)

    p = sub.add_parser("verify", help="structure predicates")
    p.add_argument("input")
    p.add_argument("--kind", required=True, choices=["ew", "skew", "tournament", "barba"])
    p.add_argument("--strict", action="store_true", help="literal block form, no sign/permutation freedom")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", help="closed-form claim conformance")
    p.add_argument("input", nargs="?")
    p.add_argument("--theorem", metavar="CLAIM", help="claim id; see --list")
    p.add_argument("--list", action="store_true", help="list known claim ids")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="exhaustive witness searches")
    p.add_argument(
        "--kind",
        required=True,
        choices=["ew-tournaments", "circulant-barba", "barba-scan"],
    )
    p.add_argument("--order", type=int)
    p.add_argument("--orders", type=int, nargs="+", help="orders for barba-scan")
    p.add_argument("--limit", type=int)
    p.add_argument("--parallel", type=int, metavar="N", help="worker processes")
    p.add_argument("--max-candidates", type=int, help="override the candidate-space cap")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Entries and factors may have any number of digits, but CPython (from
    # 3.10.7) caps int<->str conversion at 4300; lift the cap for this call.
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return _run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
