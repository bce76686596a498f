"""Command-line front end: construct, snf, verify, check, search.

Matrices travel in the shared text format (see exactmat.parse_matrix);
machine-readable output is a JSON report (--json) whose schema ships with
the package as report_schema.json. All numbers inside JSON reports are
decimal strings because invariant factors routinely exceed 64-bit range.

Exit codes: 0 success / verdict true / check passed; 1 failed check,
failed precondition, or refused construction/search; 2 usage, parse, or
argument errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
import time
from typing import Optional, Sequence

from .designs import (
    Tournament,
    barba_double,
    build_example_26,
    build_example_66,
    is_barba,
    skew_from_tournament,
)
from .exactmat import DimensionError, IntMatrix, circulant, format_matrix, parse_matrix
from .search import (
    InfeasibleSearchError,
    barba_problem_scan,
    enumerate_ew_tournaments,
    search_circulant_barba,
    search_circulant_tournament,
)
from .snf import smith_normal_form
from .verify import (
    CLAIMS,
    EwReport,
    PreconditionError,
    TheoremCheck,
    ew_gram_check,
    ew_tournament_check,
    is_skew_type,
    theorem_conformance,
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
    """Inverse of format_factors_rle."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "^" in part:
            value, count = part.split("^")
            out.extend([int(value)] * int(count))
        else:
            out.append(int(part))
    return tuple(out)


# ---------------------------------------------------------------------------
# JSON serialization (all numbers as decimal strings)


def _s(v: int) -> str:
    return str(int(v))


def _matrix_json(m: IntMatrix) -> dict:
    return {
        "kind": "matrix",
        "rows": _s(m.rows),
        "cols": _s(m.cols),
        "entries": [[_s(v) for v in m.row(i)] for i in range(m.rows)],
    }


def _ew_report_json(rep: EwReport) -> dict:
    def part(p):
        if p is None:
            return None
        return [[_s(i) for i in block] for block in p]

    return {
        "kind": "ew-report",
        "verdict": rep.verdict,
        "order": _s(rep.order),
        "clique_partition_rows": part(rep.clique_partition_rows),
        "clique_partition_cols": part(rep.clique_partition_cols),
        "row_block_sums": None
        if rep.row_block_sums is None
        else [_s(v) for v in rep.row_block_sums],
        "reason": rep.reason,
    }


def _theorem_check_json(chk: TheoremCheck) -> dict:
    return {
        "kind": "theorem-check",
        "claim_id": chk.claim_id,
        "computed": [_s(v) for v in chk.computed],
        "predicted": [_s(v) for v in chk.predicted],
        "passed": chk.passed,
        "detail": chk.detail,
    }


def _print_report(command: str, inputs, results, status: str, started: float, error: str = "") -> None:
    doc = {
        "command": command,
        "inputs": list(inputs),
        "status": status,
        "elapsed_ms": _s(int((time.perf_counter() - started) * 1000)),
        "results": results,
    }
    if error:
        doc["error"] = error
    json.dump(doc, sys.stdout, indent=2)
    print()


# ---------------------------------------------------------------------------
# Command implementations


def _load_matrix(path: str) -> IntMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _parse_row(text: str) -> tuple[int, ...]:
    tokens = [tok for tok in re.split(r"[,\s]+", text.strip()) if tok]
    if not tokens:
        raise ValueError("empty --row")
    return tuple(int(tok) for tok in tokens)


def cmd_construct(args) -> int:
    started = time.perf_counter()
    inputs = [args.input] if args.input else []
    if args.family == "example26":
        m = build_example_26()
    elif args.family == "example66":
        m = build_example_66()
    elif args.family == "circulant":
        if args.row is None:
            raise ValueError("--family circulant needs --row")
        m = circulant(_parse_row(args.row))
    elif args.family == "barba-double":
        if args.row is not None:
            base = circulant(_parse_row(args.row))
        elif args.input:
            base = _load_matrix(args.input)
        else:
            raise ValueError("--family barba-double needs --row or --input")
        try:
            if not is_barba(base):
                raise _ConstructionFailure(
                    f"base of order {base.rows} is not a barba matrix"
                )
            m = barba_double(base)
        except ValueError as exc:
            raise _ConstructionFailure(str(exc)) from exc
    elif args.family == "skew-from-tournament":
        if not args.input:
            raise ValueError("--family skew-from-tournament needs --input")
        raw = _load_matrix(args.input)
        try:
            m = skew_from_tournament(Tournament(raw))
        except ValueError as exc:
            raise _ConstructionFailure(str(exc)) from exc
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown family {args.family!r}")
    text = format_matrix(m)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        _print_report("construct", inputs, [_matrix_json(m)], "pass", started)
    elif not args.output:
        print(text, end="")
    return 0


def cmd_snf(args) -> int:
    started = time.perf_counter()
    m = _load_matrix(args.input)
    res = smith_normal_form(m, want_transforms=args.transforms)
    rle = format_factors_rle(res.factors)
    if args.json:
        payload = {
            "kind": "snf",
            "factors": [_s(f) for f in res.factors],
            "factors_rle": rle,
            "rank": _s(res.rank),
        }
        if args.transforms:
            payload["left"] = _matrix_json(res.left)
            payload["right"] = _matrix_json(res.right)
        _print_report("snf", [args.input], [payload], "pass", started)
    else:
        print(rle)
        if args.transforms:
            print()
            print(format_matrix(res.left, comments=("left transform",)), end="")
            print()
            print(format_matrix(res.right, comments=("right transform",)), end="")
    return 0


def cmd_verify(args) -> int:
    started = time.perf_counter()
    m = _load_matrix(args.input)
    if args.kind == "ew":
        rep = ew_gram_check(m, strict=args.strict)
        verdict = rep.verdict
        payload = _ew_report_json(rep)
        text = f"ew: {'pass' if verdict else 'fail'}"
        if not verdict and rep.reason:
            text += f" ({rep.reason})"
        if verdict and rep.row_block_sums:
            text += f"; block row sums {rep.row_block_sums}"
    elif args.kind == "skew":
        verdict = is_skew_type(m)
        payload = {"kind": "verdict", "name": "skew", "verdict": verdict}
        text = f"skew: {'pass' if verdict else 'fail'}"
    elif args.kind == "tournament":
        try:
            verdict, a_param = ew_tournament_check(Tournament(m))
        except ValueError as exc:
            raise PreconditionError(f"not a tournament matrix: {exc}") from exc
        payload = {
            "kind": "tournament-check",
            "verdict": verdict,
            "a_param": None if a_param is None else _s(a_param),
        }
        text = f"tournament: {'pass' if verdict else 'fail'}"
        if verdict:
            text += f"; split parameter a = {a_param}"
    else:  # barba
        verdict = is_barba(m)
        payload = {"kind": "verdict", "name": "barba", "verdict": verdict}
        text = f"barba: {'pass' if verdict else 'fail'}"
    if args.json:
        _print_report(
            "verify", [args.input], [payload], "pass" if verdict else "fail", started
        )
    else:
        print(text)
    return 0 if verdict else 1


def cmd_check(args) -> int:
    started = time.perf_counter()
    if args.list:
        for name, (description, _) in sorted(CLAIMS.items()):
            print(f"{name:20s} {description}")
        return 0
    if not args.input or not args.theorem:
        raise ValueError("check needs an input file and --theorem CLAIM (or --list)")
    m = _load_matrix(args.input)
    try:
        chk = theorem_conformance(m, args.theorem)
    except PreconditionError as exc:
        if args.json:
            _print_report("check", [args.input], [], "error", started, error=str(exc))
        else:
            print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _print_report(
            "check",
            [args.input],
            [_theorem_check_json(chk)],
            "pass" if chk.passed else "fail",
            started,
        )
    else:
        state = "pass" if chk.passed else "fail"
        print(f"{chk.claim_id}: {state}")
        print(f"  computed:  {format_factors_rle(chk.computed)}")
        print(f"  predicted: {format_factors_rle(chk.predicted)}")
        if chk.detail:
            print(f"  ({chk.detail})")
    return 0 if chk.passed else 1


# Search flags that a --kind does not read; giving one is a usage error.
_UNUSED_SEARCH_FLAGS = {
    "ew-tournaments": ("orders",),
    "circulant-tournament": ("orders", "parallel"),
    "circulant-barba": ("orders",),
    "barba-scan": ("limit",),
}


def cmd_search(args) -> int:
    started = time.perf_counter()
    workers = 1 if args.parallel is None else args.parallel
    if workers < 1:
        raise ValueError(f"--parallel must be at least 1, got {workers}")
    cap = args.max_candidates
    if cap is not None and cap < 1:
        raise ValueError(f"--max-candidates must be at least 1, got {cap}")
    for flag in _UNUSED_SEARCH_FLAGS[args.kind]:
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} does not apply to --kind {args.kind}")
    if args.kind == "barba-scan":
        if args.order is not None and args.orders is not None:
            raise ValueError("--kind barba-scan takes --order or --orders, not both")
        orders = args.orders if args.order is None else [args.order]
        if orders is None:
            raise ValueError("barba-scan needs --orders")
        report = barba_problem_scan(orders, workers=workers, max_candidates=cap)
        if args.json:
            payload = [
                {
                    "kind": "barba-scan",
                    "order": _s(rep.order),
                    "t_param": _s(rep.t_param),
                    "reference": None
                    if rep.reference is None
                    else [_s(v) for v in rep.reference],
                    "entries": [
                        {
                            "first_row": [_s(v) for v in e.first_row],
                            "factors": [_s(v) for v in e.factors],
                            "factors_rle": format_factors_rle(e.factors),
                        }
                        for e in rep.entries
                    ],
                }
                for rep in report.per_order
            ]
            _print_report("search", [], payload, "pass", started)
        else:
            for rep in report.per_order:
                ref = (
                    "none (8t+1 is not a perfect square)"
                    if rep.reference is None
                    else format_factors_rle(rep.reference)
                )
                print(f"order {rep.order}: {len(rep.entries)} rows; reference diagonal: {ref}")
                for e in rep.entries:
                    row = " ".join(str(v) for v in e.first_row)
                    print(f"  [{row}]  ->  {format_factors_rle(e.factors)}")
        return 0
    if args.order is None:
        raise ValueError(f"--kind {args.kind} needs --order")
    if args.kind == "ew-tournaments":
        found = enumerate_ew_tournaments(
            args.order, limit=args.limit, workers=workers, max_candidates=cap
        )
        matrices = [t.matrix for t in found]
    elif args.kind == "circulant-tournament":
        found = search_circulant_tournament(args.order, limit=args.limit, max_candidates=cap)
        matrices = [t.matrix for t in found]
    else:  # circulant-barba
        matrices = search_circulant_barba(
            args.order, limit=args.limit, workers=workers, max_candidates=cap
        )
    summary = {
        "kind": "search-summary",
        "search_kind": args.kind,
        "order": _s(args.order),
        "count": _s(len(matrices)),
    }
    if args.json:
        _print_report("search", [], [summary] + [_matrix_json(m) for m in matrices], "pass", started)
    else:
        for m in matrices:
            print(format_matrix(m))
        print(json.dumps(summary))
    return 0


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
        choices=["ew-tournaments", "circulant-tournament", "circulant-barba", "barba-scan"],
    )
    p.add_argument("--order", type=int)
    p.add_argument("--orders", type=int, nargs="+", help="orders for barba-scan")
    p.add_argument("--limit", type=int)
    p.add_argument("--parallel", type=int, metavar="N", help="worker processes")
    p.add_argument("--max-candidates", type=int, help="override the candidate-space cap")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # Entries and factors may have any number of digits, but CPython (from
    # 3.10.7) caps int<->str conversion at 4300; lift the cap for this call.
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    except _ConstructionFailure as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    except InfeasibleSearchError as exc:
        print(f"search refused: {exc}", file=sys.stderr)
        return 1
    except (ValueError, DimensionError) as exc:
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
