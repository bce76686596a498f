"""Shared fixtures: the exhaustive order-5 witness list, skew designs of
orders 14 and 26 (two circulant blocks each) with their bordered
tournaments, and the reference designs of orders 26 and 66."""

import pytest

from doptsnf.designs import (
    BlockEwSpec,
    build_example_26,
    build_example_66,
    normalize_skew_to_border,
    tournament_from_skew,
)
from doptsnf.exactmat import block2x2, circulant
from doptsnf.search import enumerate_ew_tournaments

# First rows of the two circulant blocks; [[R1, R2], [-R2^T, R1^T]] is a
# skew-type design of order 14 (the t=3 member of the family).
SKEW14_ROW_A = (1, 1, 1, -1, 1, -1, -1)
SKEW14_ROW_B = (1, -1, -1, -1, -1, -1, -1)


@pytest.fixture(scope="session")
def skew14():
    r1 = circulant(SKEW14_ROW_A)
    r2 = circulant(SKEW14_ROW_B)
    return block2x2(r1, r2, -r2.transpose(), r1.transpose())


@pytest.fixture(scope="session")
def tournament13(skew14):
    return tournament_from_skew(normalize_skew_to_border(skew14))


# The t=6 member: r1 is skew (r1[j] = -r1[13-j]) with row sum 1, r2 has row
# sum -7, and 1 + 49 = 8t + 2.
SKEW26_ROW_A = (1, 1, -1, 1, -1, -1, -1, 1, 1, 1, -1, 1, -1)
SKEW26_ROW_B = (1, 1, -1, -1, 1, -1, -1, -1, -1, -1, -1, -1, -1)


@pytest.fixture(scope="session")
def skew26():
    return BlockEwSpec(circulant(SKEW26_ROW_A), circulant(SKEW26_ROW_B)).assemble()


@pytest.fixture(scope="session")
def tournament25(skew26):
    return tournament_from_skew(normalize_skew_to_border(skew26))


@pytest.fixture(scope="session")
def witnesses5():
    """All 40 order-5 tournaments whose bordered double attains the bound."""
    found = enumerate_ew_tournaments(5)
    assert found, "exhaustive order-5 search came back empty"
    return found


@pytest.fixture(scope="session")
def example26():
    return build_example_26()


@pytest.fixture(scope="session")
def example66():
    return build_example_66()
