"""Finite classical groups as multiplication tables, with the combinatorics
needed by the enumeration oracles: subgroups, cosets, normality, and
one-dimensional characters, each search read off one breadth-first walk.
The builtin families (cyclic, dihedral, symmetric) also carry their unitary
irreducible representations, from which catalogue.group_algebra builds C*(G)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its multiplication table of element indices."""

    mult: tuple  # tuple of tuples, mult[g][h] = index of g·h
    names: tuple = ()
    # one read-only (order, n, n) array ρ(g) per unitary irrep, pairwise
    # inequivalent, blocks in ascending size; empty where the table has none
    irreps: tuple = field(default=(), compare=False, repr=False)

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
        irreps = tuple(np.array(rho) for rho in self.irreps)
        if any(rho.ndim != 3 or rho.shape[0] != n or rho.shape[1] != rho.shape[2] for rho in irreps):
            raise ValueError("each irrep must be an (order, n, n) array")
        for rho in irreps:
            rho.flags.writeable = False
        object.__setattr__(self, "irreps", irreps)
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
        return len(_walk(self.mult, self.identity, [g]))

    def closure(self, gens) -> frozenset:
        """The subgroup generated by an iterable of element indices: the
        elements the walk from the identity along right multiplication by
        them reaches."""
        return frozenset(h for h, _, _, _ in _walk(self.mult, self.identity, tuple(gens)))

    @cached_property
    def subgroups(self) -> list[frozenset]:
        """All subgroups, sorted by (order, elements).

        Cyclic-extension lattice: every subgroup is generated by finitely
        many elements, so it is reached from the trivial subgroup by joining
        one cyclic subgroup at a time.  Each subgroup found keeps the
        generators it was reached by, and is extended by one generator g of
        each cyclic subgroup outside it, its join the walk from gens + (g,),
        until no join is new; the result is exact for every finite group."""
        found = {frozenset({self.identity}): ()}   # subgroup -> the generators it was reached by
        for g in range(self.order):
            found.setdefault(self.closure([g]), (g,))
        cyclic_gens = [gens[0] for gens in found.values() if gens]
        frontier = list(found.items())[1:]
        while frontier:
            joins = []
            for h, gens in frontier:
                for g in cyclic_gens:
                    if g not in h:
                        ext = gens + (g,)
                        join = self.closure(ext)
                        if join not in found:
                            found[join] = ext
                            joins.append((join, ext))
            frontier = joins
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def left_cosets(self, subgroup: frozenset) -> list[frozenset]:
        seen, out = set(), []
        for g in range(self.order):
            coset = frozenset(self.op(g, h) for h in subgroup)
            if coset not in seen:
                seen.add(coset)
                out.append(coset)
        return sorted(out, key=lambda s: sorted(s))

    def is_normal(self, subgroup: frozenset) -> bool:
        for g in range(self.order):
            gi = self.inverse[g]
            if any(self.op(self.op(g, h), gi) not in subgroup for h in subgroup):
                return False
        return True

    def subtable(self, subgroup: frozenset) -> tuple["GroupTable", list[int]]:
        """Group table of a subgroup; also returns the element list in table order.
        A nonempty subset closed under the product (else KeyError) is a
        subgroup, so its table is a group's and is not validated again."""
        if not subgroup:
            raise ValueError("the empty set is not a subgroup")
        elems = sorted(subgroup)
        pos = {g: i for i, g in enumerate(elems)}
        mult = tuple(tuple(pos[self.op(a, b)] for b in elems) for a in elems)
        sub = object.__new__(GroupTable)
        for name, value in (("mult", mult), ("names", tuple(self.names[g] for g in elems)), ("irreps", ()),
                            ("_identity", pos[self.identity])):
            object.__setattr__(sub, name, value)
        return sub, elems


def cyclic(n: int) -> GroupTable:
    """Z_n with its n characters χ_k(m) = exp(2πi km/n), k = 0..n−1."""
    if n < 1:
        raise ValueError("cyclic requires n >= 1")
    mult = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    phase = np.exp(2j * np.pi * (np.multiply.outer(np.arange(n), np.arange(n)) % n) / n)
    return GroupTable(mult, tuple(str(i) for i in range(n)), irreps=tuple(phase[:, :, None, None]))


def dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n: indices 0..n-1 are rotations r^i, indices
    n..2n-1 are reflections r^i·s.  Its irreps are the 2 (n odd) or 4 (n
    even) characters r ↦ ±1, s ↦ ±1, then for j = 1..⌊(n−1)/2⌋ the rotation
    r ↦ R(2πj/n) with s ↦ diag(1, −1)."""
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
    i, f = np.tile(np.arange(n), 2), np.repeat([0, 1], n)   # element r^i s^f
    irreps = [(a ** i * b ** f)[:, None, None] for a in ((1.0, -1.0) if n % 2 == 0 else (1.0,)) for b in (1.0, -1.0)]
    angle = 2 * np.pi * (np.arange(1, (n - 1) // 2 + 1)[:, None] * i % n) / n   # j·i, one row per j
    c, s, flip = np.cos(angle), np.sin(angle), 1.0 - 2.0 * f
    # R(θ)^i diag(1, (−1)^f) = [[c, −s·flip], [s, c·flip]]
    irreps += list(np.stack([c, -s * flip, s, c * flip], axis=-1).reshape(len(angle), 2 * n, 2, 2))
    return GroupTable(mult, names, irreps=tuple(irreps))


def symmetric(n: int) -> GroupTable:
    """S_n on the permutation tuples in lexicographic order, (pq)(x) =
    p(q(x)), with Young's orthogonal form of every partition of n, blocks in
    ascending size (James and Kerber, The Representation Theory of the
    Symmetric Group, 1981)."""
    if n < 1:
        raise ValueError("symmetric requires n >= 1")
    perms = sorted(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p∘q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    mult = tuple(tuple(pos[compose(p, q)] for q in perms) for p in perms)
    names = tuple("".join(map(str, p)) for p in perms)
    # the adjacent transpositions s_k = (k, k+1) generate S_n
    gens = [pos[tuple(range(k)) + (k + 1, k) + tuple(range(k + 2, n))] for k in range(n - 1)]
    # one basis of standard tableaux per partition; the stable sort keeps partition order among equal sizes
    bases = sorted((_standard_tableaux(shape) for shape in _partitions(n)), key=len)
    # every irrep at once, as the blocks of their direct sum
    cuts = list(itertools.accumulate(map(len, bases), initial=0))
    images = np.zeros((n - 1, cuts[-1], cuts[-1]))
    for basis, lo, hi in zip(bases, cuts, cuts[1:]):
        for k in range(n - 1):
            images[k, lo:hi, lo:hi] = _young_matrix(basis, k)
    rho = _spread_matrices(mult, pos[tuple(range(n))], gens, images)
    return GroupTable(mult, names, irreps=tuple(rho[:, lo:hi, lo:hi] for lo, hi in zip(cuts, cuts[1:])))


def _partitions(n: int) -> list[tuple[int, ...]]:
    """The partitions of n, in decreasing lexicographic order."""
    def parts(rest, largest):
        if rest == 0:
            yield ()
        for k in range(min(rest, largest), 0, -1):
            for tail in parts(rest - k, k):
                yield (k, *tail)
    return list(parts(n, n))


def _standard_tableaux(shape: tuple[int, ...]) -> list[tuple]:
    """The standard Young tableaux of a shape, each the (row, column) of the
    numbers 0..n−1 in turn."""
    out, rows = [], [0] * len(shape)

    def place(cells):
        if len(cells) == sum(shape):
            out.append(tuple(cells))
        for r, length in enumerate(rows):
            if length < shape[r] and (r == 0 or rows[r - 1] > length):
                rows[r] += 1
                place(cells + [(r, length)])
                rows[r] -= 1

    place([])
    return out


def _young_matrix(tableaux: list[tuple], k: int) -> np.ndarray:
    """Young's orthogonal form of s_k = (k, k+1): with r the axial distance
    c(k+1) − c(k), c = column − row, T ↦ T/r + √(1 − 1/r²)·s_kT."""
    index = {t: a for a, t in enumerate(tableaux)}
    out = np.zeros((len(tableaux), len(tableaux)))
    for a, t in enumerate(tableaux):
        (r0, c0), (r1, c1) = t[k], t[k + 1]
        dist = (c1 - r1) - (c0 - r0)
        out[a, a] = 1.0 / dist
        if abs(dist) > 1:   # s_kT is standard
            out[index[t[:k] + (t[k + 1], t[k]) + t[k + 2:]], a] = math.sqrt(1.0 - 1.0 / dist ** 2)
    return out


def _walk(mult: tuple, identity: int, gens) -> list[tuple[int, int, int, int]]:
    """Breadth-first walk from the identity along right multiplication by
    gens: one (h, g, k, depth) per element reached, in the order reached,
    where h = g·gens[k] and g is h's parent one level up; the identity is
    (e, e, −1, 0).  In a finite group the elements reached are exactly the
    subgroup gens generates."""
    walk, seen = [(identity, identity, -1, 0)], {identity}
    for g, _, _, depth in walk:   # the walk grows as the loop runs
        row = mult[g]
        for k, s in enumerate(gens):
            h = row[s]
            if h not in seen:
                seen.add(h)
                walk.append((h, g, k, depth + 1))
    return walk


def _spread_matrices(mult: tuple, identity: int, gens: list[int], images: np.ndarray) -> np.ndarray:
    """ρ on every element from ρ(e) = 1 and ρ(g·s) = ρ(g)ρ(s), images[k] =
    ρ(gens[k]), along the tree of _walk: one batched product per depth
    level, each level a contiguous run of the walk."""
    out = np.empty((len(mult), *images.shape[1:]))
    out[identity] = np.eye(images.shape[-1])
    elems, parents, ks, depths = zip(*_walk(mult, identity, gens))
    cuts = [i for i in range(1, len(depths)) if depths[i] != depths[i - 1]] + [len(depths)]   # level starts, then the end
    for lo, hi in zip(cuts, cuts[1:]):
        out[list(elems[lo:hi])] = out[list(parents[lo:hi])] @ images[list(ks[lo:hi])]
    return out


def characters(table: GroupTable) -> list[np.ndarray]:
    """One-dimensional characters of a finite group, as value vectors over
    the elements: the homomorphisms G → Q/Z, found in integers.

    A character sends each generator s (taken greedily, largest order first)
    to some exp(2πi k_s/ord(s)).  Each tuple (k_s) is spread from the
    identity along the tree of the walk over the generators, and is a
    character exactly when every edge g → g·s agrees with it.  χ(g) is
    written exp(2πi k/m), m the order of g's image in G/[G,G]: the lcm over
    all characters of the order of χ(g)."""
    gens, span = [], {table.identity}
    for g in sorted(range(table.order), key=table.element_order, reverse=True):
        if g not in span:
            gens.append(g)
            span = table.closure(gens)
    orders = [table.element_order(s) for s in gens]
    lcm = math.lcm(*orders)
    tree = _walk(table.mult, table.identity, gens)[1:]
    phases = []
    for ks in itertools.product(*(range(o) for o in orders)):
        steps = [k * (lcm // o) for k, o in zip(ks, orders)]
        phase = [0] * table.order
        for h, g, k, _ in tree:
            phase[h] = (phase[g] + steps[k]) % lcm
        if all(phase[row[s]] == (p + step) % lcm
               for row, p in zip(table.mult, phase) for s, step in zip(gens, steps)):
            phases.append(phase)
    denominators = [math.lcm(*(lcm // math.gcd(p[g], lcm) for p in phases)) for g in range(table.order)]
    values = np.exp([[2j * np.pi * (p[g] * m // lcm) / m for g, m in enumerate(denominators)] for p in phases])
    re, im = np.round(values.real, 9).tolist(), np.round(values.imag, 9).tolist()
    return [values[k] for k in sorted(range(len(phases)), key=lambda k: tuple(zip(re[k], im[k])))]
