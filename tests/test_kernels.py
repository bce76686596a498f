"""Kernels against independent oracles, and a fresh-process CLI smoke test."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from doptsnf import kernels
from doptsnf.exactmat import format_matrix
from doptsnf.search import _barba_row_from_mask, _circulant_barba_hits

SRC = Path(__file__).resolve().parents[1] / "src"

KERNELS = ("matmul", "bareiss_determinant", "adjugate", "smith_reduce", "gf_rank", "autocorrelations")


def test_backend_selection_reports_something_sane():
    assert kernels.BACKEND == "python"


def test_pure_backend_always_available():
    assert not hasattr(kernels, "__path__")  # one module, not a package
    assert all(callable(getattr(kernels, name)) for name in KERNELS)


@pytest.mark.parametrize("order", [5, 9, 13])
def test_popcount_filter_matches_autocorrelations(order):
    """The scan's popcount filter keeps exactly the rows the textbook
    autocorrelation definition accepts, checked on every mask."""
    total = 1 << order
    expected = [
        mask
        for mask in range(total)
        if all(c == 1 for c in kernels.autocorrelations(_barba_row_from_mask(order, mask))[1:])
    ]
    assert list(_circulant_barba_hits(order, 0, total)) == expected


def test_determinant_certificates_on_big_entries(example26):
    """|det| equals the product of the invariant factors, and A adj(A) = det I;
    intermediates here overflow any machine word."""
    x = 3**40
    huge = [[x ** (i + j + 1) for j in range(3)] for i in range(3)]  # x u u^T, rank 1
    shifted = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(huge)]
    assert kernels.bareiss_determinant(shifted) == 1 + x + x**3 + x**5  # det(I + x u u^T)
    for name, a in {"example26": example26.to_rows(), "huge": huge, "huge+I": shifted}.items():
        n = len(a)
        det = kernels.bareiss_determinant(a)
        factors, _, _ = kernels.smith_reduce(a, False)
        assert abs(det) == math.prod(factors), name
        adj, adj_det = kernels.adjugate(a)
        assert adj_det == det, name
        if det == 0:
            assert adj is None, name
            continue
        ident = [[det * (i == j) for j in range(n)] for i in range(n)]
        assert kernels.matmul(a, adj) == ident, name


def test_cli_snf_in_a_fresh_process(tmp_path, example26):
    path = tmp_path / "e26.mat"
    path.write_text(format_matrix(example26))
    out = subprocess.run(
        [sys.executable, "-m", "doptsnf.cli", "snf", str(path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1, 2^13, 12^10, 60^2"
