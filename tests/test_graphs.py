from math import gcd

import pytest

from obstruct.graphs import DirectedGraph, unit_compare, xk_invariant


def cuntz_graph(n):
    """One vertex with n loops: its graph algebra is the Cuntz algebra O_n."""
    return DirectedGraph(["v"], [("v", "v", n)])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_cuntz_invariant(n):
    inv = xk_invariant(cuntz_graph(n))
    (point,) = inv.ideals.poset.points
    # K0(O_n) = coker(1 - n) = Z/(n-1), K1(O_n) = ker(1 - n) = 0
    expected = [n - 1] if n > 2 else []
    assert inv.xk0.groups[point].invariant_factors == expected
    assert inv.xk1.groups[point].is_trivial()
    assert inv.unit_group.invariant_factors == expected
    # the unit class [1] generates K0(O_n)
    if n > 2:
        (u,) = inv.unit
        assert gcd(u, n - 1) == 1
    else:
        assert inv.unit == ()


def test_cuntz_unit_compare():
    assert unit_compare(cuntz_graph(4), cuntz_graph(4)).verdict == "yes"
    assert unit_compare(cuntz_graph(4), cuntz_graph(3)).verdict == "no"
