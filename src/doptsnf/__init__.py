"""Exact integer linear algebra for maximal-determinant design families.

The package constructs conference-style {+-1} block designs and their
tournament relatives, computes Smith normal forms with arbitrary-precision
arithmetic, and machine-checks the closed-form diagonal and p-rank
statements that these families satisfy. Everything runs on Python
integers; the hot loops live in doptsnf.kernels.

Each name has one import path, its submodule: doptsnf.exactmat (matrices,
the text format and the shared exception classes), doptsnf.snf,
doptsnf.designs, doptsnf.verify, doptsnf.search and doptsnf.cli, e.g.

    from doptsnf.snf import smith_normal_form
"""

__version__ = "0.1.0"
