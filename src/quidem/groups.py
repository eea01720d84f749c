"""Finite classical groups as multiplication tables, with the combinatorics
needed by the enumeration oracles: subgroups, cosets, normality, and
one-dimensional characters."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_SPLIT_GAP = 1e-8   # least relative gap between the eigenvalues that split C[G]
_SNAP_TOL = 1e-12   # largest multiplicativity defect of a snapped character
_CHARACTER_SEED = 5   # seed of the random Hermitian combination that splits C[G]


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its multiplication table of element indices."""

    mult: tuple  # tuple of tuples, mult[g][h] = index of g·h
    names: tuple = ()

    def __post_init__(self):
        table = tuple(tuple(int(x) for x in row) for row in self.mult)
        object.__setattr__(self, "mult", table)
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square")
        if any(x < 0 or x >= n for row in table for x in row):
            raise ValueError("table entries must be element indices")
        names = tuple(self.names) if self.names else tuple(str(i) for i in range(n))
        if len(names) != n:
            raise ValueError("names must match the group order")
        object.__setattr__(self, "names", names)
        self._validate()

    def _validate(self):
        n = self.order
        ident = None
        for e in range(n):
            if all(self.mult[e][g] == g and self.mult[g][e] == g for g in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("table has no identity element")
        object.__setattr__(self, "_identity", ident)
        for g in range(n):
            if ident not in self.mult[g]:
                raise ValueError(f"element {g} has no inverse")
        for g in range(n):
            for h in range(n):
                for k in range(n):
                    if self.mult[self.mult[g][h]][k] != self.mult[g][self.mult[h][k]]:
                        raise ValueError("table is not associative")

    @property
    def order(self) -> int:
        return len(self.mult)

    @property
    def identity(self) -> int:
        return self._identity

    @cached_property
    def inverse(self) -> tuple:
        inv = [None] * self.order
        for g in range(self.order):
            inv[g] = self.mult[g].index(self.identity)
        return tuple(inv)

    def op(self, g: int, h: int) -> int:
        return self.mult[g][h]

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = self.op(x, g)
            k += 1
        return k

    def closure(self, gens) -> frozenset:
        elems = {self.identity, *gens}
        frontier = list(elems)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(elems):
                    for c in (self.op(a, b), self.op(b, a)):
                        if c not in elems:
                            elems.add(c)
                            nxt.append(c)
            frontier = nxt
        return frozenset(elems)

    @cached_property
    def subgroups(self) -> list[frozenset]:
        """All subgroups, sorted by (order, elements).

        Cyclic-extension lattice: every subgroup is generated by finitely
        many elements, so it is reached from the trivial subgroup by joining
        one cyclic subgroup at a time.  Each newly found subgroup is joined
        with every cyclic subgroup until no join is new; the result is exact
        for every finite group."""
        cyclics = {self.closure([g]) for g in range(self.order)}
        found = {frozenset({self.identity})} | cyclics
        frontier = list(cyclics)
        while frontier:
            joins = {self.closure(h | c) for h in frontier for c in cyclics if not c <= h}
            frontier = list(joins - found)
            found |= joins
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def left_cosets(self, subgroup: frozenset) -> list[frozenset]:
        seen, out = set(), []
        for g in range(self.order):
            coset = frozenset(self.op(g, h) for h in subgroup)
            if coset not in seen:
                seen.add(coset)
                out.append(coset)
        return sorted(out, key=lambda s: sorted(s))

    def is_subgroup(self, subset) -> bool:
        s = set(subset)
        return self.identity in s and all(self.op(a, b) in s for a in s for b in s)

    def is_normal(self, subgroup: frozenset) -> bool:
        for g in range(self.order):
            gi = self.inverse[g]
            if any(self.op(self.op(g, h), gi) not in subgroup for h in subgroup):
                return False
        return True

    def commutator_subgroup(self) -> frozenset:
        comms = set()
        for g in range(self.order):
            for h in range(self.order):
                c = self.op(self.op(g, h), self.op(self.inverse[g], self.inverse[h]))
                comms.add(c)
        return self.closure(comms)

    def subtable(self, subgroup: frozenset) -> tuple["GroupTable", list[int]]:
        """Group table of a subgroup; also returns the element list in table order."""
        elems = sorted(subgroup)
        pos = {g: i for i, g in enumerate(elems)}
        mult = tuple(tuple(pos[self.op(a, b)] for b in elems) for a in elems)
        names = tuple(self.names[g] for g in elems)
        return GroupTable(mult, names), elems

    def quotient(self, normal: frozenset) -> tuple["GroupTable", list[int]]:
        """Quotient by a normal subgroup; returns the table and the map
        element index -> coset index."""
        if not self.is_normal(normal):
            raise ValueError("quotient requires a normal subgroup")
        cosets = self.left_cosets(normal)
        lookup = {}
        for ci, c in enumerate(cosets):
            for g in c:
                lookup[g] = ci
        mult = tuple(
            tuple(lookup[self.op(min(a), min(b))] for b in cosets) for a in cosets
        )
        table = GroupTable(mult)
        return table, [lookup[g] for g in range(self.order)]


def cyclic(n: int) -> GroupTable:
    mult = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return GroupTable(mult, tuple(str(i) for i in range(n)))


def dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n: indices 0..n-1 are rotations r^i, indices
    n..2n-1 are reflections r^i·s."""
    if n < 1:
        raise ValueError("dihedral requires n >= 1")

    def op(a, b):
        ia, fa = a % n, a // n
        ib, fb = b % n, b // n
        if fa == 0:
            return (ia + ib) % n + n * fb
        # (r^ia s)(r^ib s^fb) = r^{ia-ib} s^{1+fb}
        return (ia - ib) % n + n * (1 - fb)

    mult = tuple(tuple(op(a, b) for b in range(2 * n)) for a in range(2 * n))
    names = tuple(f"r{i}" for i in range(n)) + tuple(f"r{i}s" for i in range(n))
    return GroupTable(mult, names)


def symmetric(n: int) -> GroupTable:
    perms = sorted(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p∘q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    mult = tuple(tuple(pos[compose(p, q)] for q in perms) for p in perms)
    names = tuple("".join(map(str, p)) for p in perms)
    return GroupTable(mult, names)


def _snap_root_of_unity(z: complex, order: int) -> complex:
    """Round z to the nearest order-th root of unity."""
    angle = np.angle(z)
    k = round(angle / (2 * np.pi / order)) % order
    return complex(np.exp(2j * np.pi * k / order))


def abelian_characters(table: GroupTable) -> list[np.ndarray]:
    """All characters of an abelian group, as value vectors over the elements.

    Simultaneously diagonalizes the regular representation with a random
    Hermitian combination, then snaps eigenvalues to exact roots of unity.
    """
    n = table.order
    if n == 1:
        return [np.array([1.0 + 0.0j])]
    perms = []
    for g in range(n):
        p = np.zeros((n, n))
        for h in range(n):
            p[table.op(g, h), h] = 1.0
        perms.append(p)
    rng = np.random.default_rng(_CHARACTER_SEED)
    for _ in range(20):
        coeff = rng.standard_normal(n)
        skew = rng.standard_normal(n)
        h = sum(c * (p + p.T) + 1j * s * (p - p.T) for c, s, p in zip(coeff, skew, perms))
        w, v = np.linalg.eigh(h)
        if np.min(np.diff(w)) > _SPLIT_GAP * max(1.0, abs(w).max()):
            break
    else:
        raise RuntimeError("failed to split the regular representation of an abelian group")
    chars = []
    for j in range(n):
        vec = v[:, j]
        raw = np.array([np.vdot(vec, p @ vec) for p in perms])
        snapped = np.array(
            [_snap_root_of_unity(raw[g], table.element_order(g)) for g in range(n)]
        )
        chars.append(snapped)
    # characters must be distinct, multiplicative and n in number
    uniq = {tuple(np.round(c, 12)) for c in chars}
    if len(uniq) != n:
        raise RuntimeError("character extraction produced duplicates")
    for c in chars:
        for g in range(n):
            for h in range(n):
                if abs(c[table.op(g, h)] - c[g] * c[h]) > _SNAP_TOL:
                    raise RuntimeError("snapped character is not multiplicative")
    chars.sort(key=lambda c: tuple(zip(np.round(c.real, 9), np.round(c.imag, 9))))
    return chars


def characters(table: GroupTable) -> list[np.ndarray]:
    """One-dimensional characters of an arbitrary finite group, i.e. the
    characters of its abelianization pulled back along the quotient map."""
    comm = table.commutator_subgroup()
    quot, proj = table.quotient(comm)
    return [np.array([chi[proj[g]] for g in range(table.order)]) for chi in abelian_characters(quot)]
