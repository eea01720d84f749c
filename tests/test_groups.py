"""Group tables: validation, subgroup lattices, cosets, characters."""

import numpy as np
import pytest

from quidem.groups import GroupTable, abelian_characters, characters, cyclic, dihedral, symmetric


def test_table_validation_rejects_junk():
    with pytest.raises(ValueError):
        GroupTable(((0, 1), (1, 1)))  # 1 has no inverse / not associative
    with pytest.raises(ValueError):
        GroupTable(((1, 0), (0, 0)))  # no identity... actually has one; broken assoc caught
    with pytest.raises(ValueError):
        GroupTable(((0, 1), (0, 1)))


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


def test_subgroups_sorted_and_closed():
    table = _elementary_abelian_2(4)
    subs = table.subgroups
    assert subs == sorted(subs, key=lambda s: (len(s), sorted(s)))
    assert subs[0] == frozenset({table.identity}) and subs[-1] == frozenset(range(16))
    assert all(table.is_subgroup(h) for h in subs)


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


def test_commutator_subgroup_s3():
    s3 = symmetric(3)
    comm = s3.commutator_subgroup()
    assert len(comm) == 3  # alternating subgroup


def test_abelian_characters_z4():
    chars = abelian_characters(cyclic(4))
    assert len(chars) == 4
    table = cyclic(4)
    for chi in chars:
        for g in range(4):
            for h in range(4):
                assert chi[table.op(g, h)] == pytest.approx(chi[g] * chi[h], abs=1e-12)
    # the four characters are 1, i^t, (-1)^t, (-i)^t in some order
    values = sorted((complex(np.round(c[1], 9)) for c in chars), key=lambda z: (z.real, z.imag))
    assert values == [(-1 + 0j), -1j, 1j, (1 + 0j)]


def test_characters_of_nonabelian_factor_through_abelianization():
    s3 = symmetric(3)
    chars = characters(s3)
    assert len(chars) == 2  # trivial and sign
    comm = s3.commutator_subgroup()
    for chi in chars:
        for g in comm:
            assert chi[g] == pytest.approx(1.0, abs=1e-12)


def test_quotient_group():
    d4 = dihedral(4)
    center = d4.closure([2])  # {e, r^2}
    quotient, proj = d4.quotient(center)
    assert quotient.order == 4
    assert len(set(proj)) == 4
