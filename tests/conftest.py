from fractions import Fraction as F

import pytest

from wkam import make_instance
from wkam.barrier import limits_grid
from wkam.core import PotentialTable, from_grid, minplus_product

from walk_reference import ref_orbit


def orbit(inst, crit, u, forward=False):
    """The normalized orbit of u up to its limit: u, T-u + alpha0, ... up to
    u_minus, or with ``forward`` u, T+u - alpha0, ... up to u_plus, by the
    reference's full steps on the kernel's grid refined to u's."""
    D, start, _, _ = limits_grid(inst, crit, u)
    return [from_grid(inst.mode, v, D) for v in ref_orbit(crit.kernel.at(D), start, forward)]


def power(inst, n):
    """The n-step chain costs c^n (n >= 1): n - 1 min-plus products of the
    cost table, as a table on its grid."""
    t = inst.cost_grid
    g = t.grid
    for _ in range(n - 1):
        g = minplus_product(g, t.grid)
    return PotentialTable(g, t.scale, t.mode)


@pytest.fixture
def t2():
    """2-point instance with minimum cycle mean 1/2 on the 2-cycle."""
    return make_instance([[F(2), F(0)], [F(1), F(3)]], labels=["a", "b"])


@pytest.fixture
def t3():
    """3-point instance whose only zero-mean cycle is a <-> b; c is isolated."""
    return make_instance(
        [[F(1), F(0), F(9)], [F(0), F(9), F(9)], [F(9), F(9), F(9)]],
        labels=["a", "b", "c"],
    )


@pytest.fixture
def connector():
    """Two zero self-loops joined by a tight path through the middle point.

    The middle point lies on no zero cycle (it is not globally Aubry), yet
    the all-zero function calibrates a bi-infinite chain through it.
    """
    return make_instance(
        [[F(0), F(0), F(10)], [F(10), F(10), F(0)], [F(10), F(10), F(0)]],
        labels=["left", "mid", "right"],
    )
