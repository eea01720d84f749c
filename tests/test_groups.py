"""Group tables: validation, subgroup lattices, cosets, characters."""

import itertools

import numpy as np
import pytest

from quidem.catalogue import builtin
from quidem.groups import GroupTable, characters, cyclic, dihedral, symmetric
from quidem.idempotents import enumerate_function_algebra


def test_table_validation_rejects_junk():
    with pytest.raises(ValueError):
        GroupTable(((0, 1), (1, 1)))  # 1 has no inverse / not associative
    with pytest.raises(ValueError):
        GroupTable(((1, 0), (0, 0)))  # no identity... actually has one; broken assoc caught
    with pytest.raises(ValueError):
        GroupTable(((0, 1), (0, 1)))


def test_table_validation_rejects_a_loop():
    """An order-5 loop: a two-sided identity and an inverse in every row, and
    still (1·1)·2 = 2 ≠ 4 = 1·(1·2)."""
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    with pytest.raises(ValueError, match="^table is not associative$"):
        GroupTable(loop)


def test_irreps_are_read_only_stacks_over_the_elements():
    """A table keeps its irreps as read-only copies, one (order, n, n) array
    each, and refuses another shape by name; equality and hashing ignore them."""
    rho = np.ones((2, 1, 1))
    table = GroupTable(cyclic(2).mult, irreps=(rho,))
    assert not table.irreps[0].flags.writeable and rho.flags.writeable
    assert table == cyclic(2) and hash(table) == hash(cyclic(2))
    for bad in (np.ones((3, 1, 1)), np.ones((2, 1, 2)), np.ones((2, 1))):
        with pytest.raises(ValueError, match="^each irrep must be an \\(order, n, n\\) array$"):
            GroupTable(cyclic(2).mult, irreps=(bad,))


def test_cyclic_basics():
    z6 = cyclic(6)
    assert z6.order == 6
    assert z6.identity == 0
    assert z6.inverse[2] == 4
    assert z6.element_order(2) == 3


def test_dihedral_relations():
    d4 = dihedral(4)
    r, s = 1, 4
    assert d4.element_order(r) == 4
    assert d4.element_order(s) == 2
    # s r s = r^{-1}
    assert d4.op(d4.op(s, r), s) == d4.inverse[r]


def test_symmetric_order():
    assert symmetric(3).order == 6


def test_subgroup_counts():
    assert len(cyclic(2).subgroups) == 2
    assert len(cyclic(4).subgroups) == 3
    assert len(symmetric(3).subgroups) == 6
    assert len(dihedral(4).subgroups) == 10


def _elementary_abelian_2(rank):
    n = 2 ** rank
    return GroupTable(tuple(tuple(a ^ b for b in range(n)) for a in range(n)))


def test_subgroup_lattice_counts():
    # Z2^4 needs four generators: closing generator sets of size <= 3 misses
    # the whole group
    assert len(_elementary_abelian_2(3).subgroups) == 16
    assert len(_elementary_abelian_2(4).subgroups) == 67
    assert len(symmetric(3).subgroups) == 6
    assert len(dihedral(4).subgroups) == 10
    assert len(symmetric(4).subgroups) == 30
    assert len(symmetric(5).subgroups) == 156


def test_subgroups_sorted_and_closed():
    table = _elementary_abelian_2(4)
    subs = table.subgroups
    assert subs == sorted(subs, key=lambda s: (len(s), sorted(s)))
    assert subs[0] == frozenset({table.identity}) and subs[-1] == frozenset(range(16))
    assert all(table.closure(h) == h for h in subs)


def test_coset_partition():
    z4 = cyclic(4)
    h = z4.closure([2])
    cosets = z4.left_cosets(h)
    assert len(cosets) == 2
    assert frozenset({0, 2}) in cosets
    assert frozenset({1, 3}) in cosets


def test_normality():
    d4 = dihedral(4)
    rot = d4.closure([1])
    refl = d4.closure([4])
    assert d4.is_normal(rot)
    assert not d4.is_normal(refl)


def _cyclic_product(*ns):
    """Z_n1 × ... × Z_nr, its elements the tuples g in lexicographic order."""
    elems = list(itertools.product(*map(range, ns)))
    pos = {g: i for i, g in enumerate(elems)}
    mult = tuple(tuple(pos[tuple((a + b) % n for a, b, n in zip(g, h, ns))] for h in elems) for g in elems)
    return GroupTable(mult), elems


def _derived_subgroup(table):
    return table.closure({table.op(table.op(g, h), table.op(table.inverse[g], table.inverse[h]))
                          for g in range(table.order) for h in range(table.order)})


def test_characters_z4():
    table = cyclic(4)
    chars = characters(table, range(table.order))
    assert len(chars) == 4
    for chi in chars:
        for g in range(4):
            for h in range(4):
                assert chi[table.op(g, h)] == pytest.approx(chi[g] * chi[h], abs=1e-12)
    # the four characters are 1, i^t, (-1)^t, (-i)^t in some order
    values = sorted((complex(np.round(c[1], 9)) for c in chars), key=lambda z: (z.real, z.imag))
    assert values == [(-1 + 0j), -1j, 1j, (1 + 0j)]


@pytest.mark.parametrize("ns", [(1,), (2,), (5,), (12,), (16,), (2, 2), (2, 4), (3, 6), (2, 2, 2), (4, 4), (2, 3, 5)])
def test_characters_of_cyclic_products_match_closed_form(ns):
    """The characters of Z_n1 × ... × Z_nr are g ↦ Π_r exp(2πi j_r g_r/n_r),
    one per tuple j."""
    table, elems = _cyclic_product(*ns)
    closed = [np.array([np.prod([np.exp(2j * np.pi * jr * gr / n) for jr, gr, n in zip(j, g, ns)]) for g in elems])
              for j in itertools.product(*map(range, ns))]
    chars = characters(table, range(table.order))
    assert len(chars) == len(closed) == table.order
    for chi in chars:
        assert sum(np.abs(chi - c).max() < 1e-12 for c in closed) == 1


@pytest.mark.parametrize("table", [symmetric(3), symmetric(4), dihedral(4), dihedral(5), dihedral(6)],
                         ids=["S3", "S4", "D4", "D5", "D6"])
def test_character_count_is_abelianization_order(table):
    """A nonabelian group has [G:G′] characters, each trivial on G′ = ⟨ghg⁻¹h⁻¹⟩."""
    derived = _derived_subgroup(table)
    chars = characters(table, range(table.order))
    assert len(chars) == table.order // len(derived)
    assert all(chi[g] == 1 for chi in chars for g in derived)


@pytest.mark.parametrize("table", [cyclic(16), symmetric(4), dihedral(6), _cyclic_product(3, 6)[0]],
                         ids=["Z16", "S4", "D6", "Z3xZ6"])
def test_characters_are_multiplicative_to_roundoff(table):
    """χ(g) = exp(2πi k/m) is exact up to the roundoff of its angle, at most
    3 eps relative on |2πk/m| < 2π, so about 19 eps absolute per value: three
    angles, the product and the exponentials stay under 64 eps (1.4e-14).
    It is 1.2e-15 on Z16, so 1e-15 is below roundoff."""
    for chi in characters(table, range(table.order)):
        for g, h in itertools.product(range(table.order), repeat=2):
            assert abs(chi[table.op(g, h)] - chi[g] * chi[h]) <= 64 * np.finfo(float).eps


def test_trivial_group_has_one_character():
    chars = characters(GroupTable(((0,),)), range(1))
    assert len(chars) == 1 and chars[0].tolist() == [1.0]


def test_characters_draw_no_random_numbers(monkeypatch):
    """The characters are integer homomorphisms: no seeded draw, no retry."""
    G = builtin("cfun:sn:4")

    def no_rng(*args, **kwargs):
        raise AssertionError("characters drew a random number")
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    assert len(characters(symmetric(4), range(24))) == 2
    # Σ_H [H:H′] over the 30 subgroups of S4
    assert len(enumerate_function_algebra(G)) == 84


def test_characters_of_nonabelian_factor_through_abelianization():
    s3 = symmetric(3)
    chars = characters(s3, range(s3.order))
    assert len(chars) == 2  # trivial and sign
    a3 = s3.closure([s3.names.index("120")])
    assert len(a3) == 3
    for chi in chars:
        for g in a3:
            assert chi[g] == pytest.approx(1.0, abs=1e-12)
