import pytest

from obstruct.posets import (
    FinitePoset,
    antichain_poset,
    chain_poset,
    diamond_poset,
    is_unique_path_space,
    point_poset,
    sierpinski_poset,
)

from support import hasse_paths, verify_bimodule_resolution


def test_partial_order_validation():
    with pytest.raises(ValueError):
        FinitePoset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        FinitePoset(["a", "a"], [])


def test_a_pair_naming_an_unknown_point_is_a_named_error():
    with pytest.raises(ValueError, match="unknown point 'c'"):
        FinitePoset(["a", "b"], [("a", "c")])


def test_hasse_arrows_of_chain():
    c = chain_poset(3)
    assert set(c.hasse_arrows) == {("c1", "c0"), ("c2", "c1")}
    assert c.leq("c0", "c2")


def test_hasse_removes_transitive_pairs():
    p = FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert set(p.hasse_arrows) == {("b", "a"), ("c", "b")}


def test_unique_path_space_examples():
    assert is_unique_path_space(chain_poset(4))[0]
    assert is_unique_path_space(antichain_poset(3))[0]
    ok, witness = is_unique_path_space(diamond_poset())
    assert not ok
    assert len(witness) == 2
    assert witness[0] != witness[1]
    assert witness[0][0] == witness[1][0] and witness[0][-1] == witness[1][-1]


def test_up_sets():
    s = sierpinski_poset()
    assert s.up_set("a") == ["a", "b"]
    assert s.up_set("b") == ["b"]


def test_bimodule_resolution_point():
    rep = verify_bimodule_resolution(point_poset())
    assert rep.exact
    assert rep.algebra_rank == 1
    assert rep.middle_module_rank == 1
    assert rep.left_module_rank == 0


def test_bimodule_resolution_sierpinski():
    rep = verify_bimodule_resolution(sierpinski_poset())
    assert rep.exact
    # basis of marked paths: algebra rank 3, middle module rank 4, and the
    # maps have ranks 3 (middle, = algebra rank by surjectivity) and 1 (left)
    assert rep.algebra_rank == 3
    assert rep.middle_module_rank == 4
    assert rep.left_module_rank == 1
    assert rep.middle_map_rank == 3
    assert rep.left_map_rank == 1


def test_bimodule_resolution_chain5():
    rep = verify_bimodule_resolution(chain_poset(5))
    assert rep.exact


def test_bimodule_resolution_rejects_non_ups():
    with pytest.raises(ValueError):
        verify_bimodule_resolution(diamond_poset())


def test_hasse_paths_count_sierpinski():
    assert len(hasse_paths(sierpinski_poset())) == 3


def test_poset_isomorphisms():
    s1 = sierpinski_poset()
    s2 = FinitePoset(["x", "y"], [("y", "x")])  # y <= x
    isos = s1.isomorphisms(s2)
    assert len(isos) == 1
    assert isos[0] == {"a": "y", "b": "x"}
    assert s1.isomorphisms(antichain_poset(2)) == []


def test_linear_extension_descends():
    c = chain_poset(3)
    order = c.linear_extension()
    assert order == ["c2", "c1", "c0"]
