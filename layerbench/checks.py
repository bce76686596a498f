"""Output checks: pinned digests, CLI stdout normalisation, report schema.

Every check returns a list of problems; an empty list means the output is
correct. Checks never raise on a wrong answer, so one bad job counts in
the error rate without aborting the run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_FILE = Path(__file__).resolve().parent / "pins.json"


def load_pins() -> dict:
    with open(PINS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def digest(value) -> str:
    """sha256 of a canonical text form of ints, strings, bytes and sequences."""
    if isinstance(value, bytes):
        data = value
    elif isinstance(value, str):
        data = value.encode()
    else:
        data = json.dumps(value, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def compare_digest(label: str, value, pins: dict) -> list[str]:
    """Compare digest(value) with pins[label]; a missing pin is a problem."""
    want = pins.get(label)
    if want is None:
        return [f"{label}: no pinned digest"]
    got = digest(value)
    if got != want:
        return [f"{label}: digest {got[:12]} != pinned {want[:12]}"]
    return []


def strip_elapsed(stdout: bytes) -> bytes:
    """Drop the run-dependent ``elapsed_ms`` field from a JSON report.

    Output that is not a JSON object passes through unchanged.
    """
    try:
        doc = json.loads(stdout)
    except ValueError:
        return stdout
    if not isinstance(doc, dict):
        return stdout
    doc.pop("elapsed_ms", None)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def load_report_validator(root: Path):
    """Validator for the report schema shipped in the checkout's src/."""
    import jsonschema

    with open(root / "src" / "doptsnf" / "report_schema.json", encoding="utf-8") as fh:
        schema = json.load(fh)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def schema_problems(validator, stdout: bytes, label: str) -> list[str]:
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"{label}: stdout is not JSON ({exc})"]
    return [f"{label}: schema: {err.message}" for err in validator.iter_errors(doc)]
