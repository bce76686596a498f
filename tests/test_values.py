"""The value-object contract of the result and input classes.

Equal copies compare and hash equal, fields cannot be assigned, a pickle
round trip gives an equal object, and invalid input raises the exception
and message it always has.
"""

import pickle
import re

import pytest

from doptsnf.designs import BlockEwSpec, Tournament
from doptsnf.exactmat import DimensionError, IntMatrix
from doptsnf.snf import SnfResult
from doptsnf.verify import EwReport, TheoremCheck

T3 = IntMatrix(3, 3, (0, 1, 0, 0, 0, 1, 1, 0, 0))  # the directed 3-cycle

# (make a fresh instance, a field, invalid arguments, exception, message)
CASES = {
    "IntMatrix": (
        lambda: IntMatrix(2, 3, [1, -2, 3, 4, 5, 10**30]),
        "entries",
        [
            ((0, 1, ()), DimensionError, "matrix dimensions must be positive"),
            ((2, 2, (1, 2, 3)), ValueError, "expected 4 entries, got 3"),
            ((1, 1, (1.5,)), TypeError, "'float' object cannot be interpreted as an integer"),
            ((2.0, 2, (1, 2, 3, 4)), TypeError, "'float' object cannot be interpreted as an integer"),
        ],
    ),
    "Tournament": (
        lambda: Tournament(IntMatrix(3, 3, T3.entries)),
        "matrix",
        [
            ((IntMatrix(1, 2, (0, 1)),), ValueError, "matrix is 1x2, not square"),
            ((IntMatrix(2, 2, (0, 1, 1, 0)),), ValueError, "entries (0,1)/(1,0) do not orient exactly one arc"),
            ((IntMatrix(2, 2, (1, 1, 0, 0)),), ValueError, "tournament diagonal must be zero"),
        ],
    ),
    "BlockEwSpec": (
        lambda: BlockEwSpec(IntMatrix.identity(2), IntMatrix.all_ones(2)),
        "r2_block",
        [
            ((IntMatrix.identity(2), IntMatrix.identity(3)), DimensionError,
             "blocks must be square and of equal order"),
        ],
    ),
    "SnfResult": (
        lambda: SnfResult((1, 2, 6), IntMatrix.identity(3), IntMatrix.identity(3)),
        "factors",
        [
            (((2, 3),), ValueError, "not a divisibility chain: (2, 3)"),
            (((0, 1),), ValueError, "not a divisibility chain: (0, 1)"),
        ],
    ),
    # The plain records check nothing; a missing field is their invalid input.
    # Their TypeError names __new__ where it named __init__, so only the tail is pinned.
    "EwReport": (
        lambda: EwReport(True, 6, ((0, 1, 2), (3, 4, 5)), ((0, 1, 2), (3, 4, 5)), (1, 2)),
        "verdict",
        [((True,), TypeError, "missing 1 required positional argument: 'order'")],
    ),
    "TheoremCheck": (
        lambda: TheoremCheck("main", (1, 2), (1, 2), "detail"),
        "computed",
        [(("main", (1,)), TypeError, "missing 1 required positional argument: 'predicted'")],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_contract(name):
    make, field, invalid = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert not a != b
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert getattr(a, field) == getattr(b, field)
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and copy == a and hash(copy) == hash(a)
    cls = type(a)
    for args, exc, message in invalid:
        with pytest.raises(exc, match=re.escape(message) + "$") as info:
            cls(*args)
        assert info.type is exc


def test_validated_values_differ_by_class_and_field():
    m = IntMatrix.identity(2)
    assert m != IntMatrix.identity(3) and m != IntMatrix(2, 2, (1, 0, 0, 2))
    assert m != m.entries and m != (2, 2, m.entries)
    assert SnfResult((1, 2)) != SnfResult((1, 2), m, m)
    assert SnfResult((1, 2)).rank == 2 and SnfResult((1, 0)).rank == 1
    with pytest.raises(AttributeError):
        del m.rows
    with pytest.raises(AttributeError):
        m.extra = 1


def test_intmatrix_is_no_sequence():
    m = IntMatrix(2, 2, (1, -2, 3, 4))
    assert 2 * m == m * 2 == IntMatrix(2, 2, (2, -4, 6, 8))
    assert (-1) * m == -m
    with pytest.raises(TypeError):
        len(m)
    with pytest.raises(TypeError):
        iter(m)
    with pytest.raises(TypeError):
        m * m


def test_reprs():
    big = IntMatrix(2, 4, (1, 2, 3, 4, 5, 6, 7, 8))
    assert repr(big) == "IntMatrix(2x4: 1, 2, 3, 4, 5, 6, ...)"
    assert repr(IntMatrix(1, 2, (1, 2))) == "IntMatrix(1x2: 1, 2)"
    assert repr(Tournament(T3)) == "Tournament(matrix=IntMatrix(3x3: 0, 1, 0, 0, 0, 1, ...))"
    assert repr(SnfResult((1, 2))) == "SnfResult(factors=(1, 2), left=None, right=None)"
    assert repr(EwReport(False, 5, reason="x")) == (
        "EwReport(verdict=False, order=5, clique_partition_rows=None, "
        "clique_partition_cols=None, row_block_sums=None, reason='x')"
    )
