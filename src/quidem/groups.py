"""Finite classical groups as multiplication tables, with the combinatorics
needed by the enumeration oracles: subgroups, cosets, normality, and
one-dimensional characters."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


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
        m = np.array(self.mult, dtype=np.intp).reshape(n, n)
        units = np.flatnonzero((m == np.arange(n)).all(axis=1) & (m.T == np.arange(n)).all(axis=1))
        if units.size == 0:
            raise ValueError("table has no identity element")
        object.__setattr__(self, "_identity", int(units[0]))
        lacking = np.flatnonzero(~(m == units[0]).any(axis=1))
        if lacking.size:
            raise ValueError(f"element {lacking[0]} has no inverse")
        if not np.array_equal(m[m], m[:, m]):   # (gh)k against g(hk), all triples at once
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

    def subtable(self, subgroup: frozenset) -> tuple["GroupTable", list[int]]:
        """Group table of a subgroup; also returns the element list in table order."""
        elems = sorted(subgroup)
        pos = {g: i for i, g in enumerate(elems)}
        mult = tuple(tuple(pos[self.op(a, b)] for b in elems) for a in elems)
        names = tuple(self.names[g] for g in elems)
        return GroupTable(mult, names), elems


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


def characters(table: GroupTable) -> list[np.ndarray]:
    """One-dimensional characters of a finite group, as value vectors over
    the elements: the homomorphisms G → Q/Z, found in integers.

    A character sends each generator s (taken greedily, largest order first)
    to some exp(2πi k_s/ord(s)).  Each tuple (k_s) is spread from the
    identity along right multiplication by the generators, and is a
    character exactly when no element receives two phases.  χ(g) is written
    exp(2πi k/m), m the order of g's image in G/[G,G]: the lcm over all
    characters of the order of χ(g)."""
    gens, span = [], {table.identity}
    for g in sorted(range(table.order), key=table.element_order, reverse=True):
        if g not in span:
            gens.append(g)
            span = table.closure(gens)
    orders = [table.element_order(s) for s in gens]
    lcm = math.lcm(*orders)
    phases = []
    for ks in itertools.product(*(range(o) for o in orders)):
        phase = _spread(table, gens, [k * (lcm // o) for k, o in zip(ks, orders)], lcm)
        if phase is not None:
            phases.append(phase)
    denominators = [math.lcm(*(lcm // math.gcd(p[g], lcm) for p in phases)) for g in range(table.order)]
    chars = [
        np.array([complex(np.exp(2j * np.pi * (p[g] * m // lcm) / m)) for g, m in enumerate(denominators)])
        for p in phases
    ]
    chars.sort(key=lambda c: tuple(zip(np.round(c.real, 9), np.round(c.imag, 9))))
    return chars


def _spread(table: GroupTable, gens: list[int], steps: list[int], lcm: int) -> list[int] | None:
    """Phases in Z_lcm from phase(e) = 0 and phase(g·s) = phase(g) + step(s),
    breadth first over the generators; None at the first element reached
    with two different phases."""
    phase = [None] * table.order
    phase[table.identity] = 0
    queue = [table.identity]
    for g in queue:   # the queue grows as the loop runs
        for s, step in zip(gens, steps):
            h, p = table.mult[g][s], (phase[g] + step) % lcm
            if phase[h] is None:
                phase[h] = p
                queue.append(h)
            elif phase[h] != p:
                return None
    return phase
