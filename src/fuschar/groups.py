"""Finite groups enumerated from generators: permutations or matrices over
a prime field, conjugacy classes, centralizer orders, Sylow subgroups and
class fusion inside an overgroup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .intlinalg import is_prime, p_part, rref_mod

DEFAULT_MAX_ORDER = 2_000_000


def _element_power(x, n: int, identity):
    if n < 0:
        x = x.inverse()
        n = -n
    out = identity
    while n:
        if n & 1:
            out = out * x
        x = x * x
        n >>= 1
    return out


class Perm:
    """Permutation of {0..n-1}, stored as the image tuple."""

    __slots__ = ("images", "_hash")

    def __init__(self, images) -> None:
        self.images = tuple(images)
        self._hash = hash(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Perm":
        images = list(range(degree))
        for cyc in cycles:
            for i, a in enumerate(cyc):
                images[a] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    def validate(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection: {list(self.images)}")

    def __mul__(self, other: "Perm") -> "Perm":
        a, b = self.images, other.images
        return Perm([a[x] for x in b])

    def __pow__(self, n: int) -> "Perm":
        return _element_power(self, n, Perm.identity(len(self.images)))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Perm(inv)

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def encoding(self) -> tuple:
        return self.images

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Perm{self.images}"


class FpMat:
    """Invertible square matrix over F_p, stored as a flat entry tuple."""

    __slots__ = ("p", "dim", "entries", "_hash")

    def __init__(self, p: int, dim: int, entries) -> None:
        self.p = p
        self.dim = dim
        self.entries = tuple(x % p for x in entries)
        self._hash = hash((p, dim, self.entries))

    @classmethod
    def identity(cls, p: int, dim: int) -> "FpMat":
        return cls(p, dim, [1 if i == j else 0 for i in range(dim) for j in range(dim)])

    @classmethod
    def from_rows(cls, p: int, rows) -> "FpMat":
        flat = [x for row in rows for x in row]
        return cls(p, len(rows), flat)

    def rows(self) -> list[list[int]]:
        d = self.dim
        return [list(self.entries[i * d:(i + 1) * d]) for i in range(d)]

    def __mul__(self, other: "FpMat") -> "FpMat":
        d, p = self.dim, self.p
        a, b = self.entries, other.entries
        out = [0] * (d * d)
        for i in range(d):
            ai = i * d
            for k in range(d):
                x = a[ai + k]
                if x:
                    bk = k * d
                    for j in range(d):
                        out[ai + j] += x * b[bk + j]
        return FpMat(p, d, out)

    def __pow__(self, n: int) -> "FpMat":
        return _element_power(self, n, FpMat.identity(self.p, self.dim))

    def inverse(self) -> "FpMat":
        _, pivots, t = rref_mod(self.rows(), self.p)
        if len(pivots) != self.dim:
            raise ValueError("matrix not invertible over F_p")
        return FpMat(self.p, self.dim, [x for row in t for x in row])

    def is_identity(self) -> bool:
        d = self.dim
        return all(self.entries[i * d + j] == (1 if i == j else 0)
                   for i in range(d) for j in range(d))

    def validate(self) -> None:
        self.inverse()

    def encoding(self) -> tuple:
        return self.entries

    def __eq__(self, other):
        return (isinstance(other, FpMat) and self.p == other.p
                and self.dim == other.dim and self.entries == other.entries)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.entries < other.entries

    def __repr__(self):
        return f"FpMat(p={self.p}, {self.rows()})"


@dataclass
class FiniteGroup:
    generators: list
    elements: list
    identity: object
    order: int
    index: dict = field(repr=False)
    _classes: object = field(default=None, repr=False)
    designated: dict = field(default_factory=dict, repr=False)

    def __contains__(self, x) -> bool:
        return x in self.index

    def element_order(self, x) -> int:
        n = 1
        y = x
        while not y.is_identity():
            y = y * x
            n += 1
        return n

    def exponent(self) -> int:
        return lcm(*(c.rep_order for c in conjugacy_classes(self).classes))

    def is_subgroup_of(self, other: "FiniteGroup") -> bool:
        return all(x in other.index for x in self.elements)


def enumerate_group(generators: list, max_order: int | None = None,
                    designated: dict | None = None) -> FiniteGroup:
    """Breadth-first closure of the generators, canonically ordered."""
    cap = max_order if max_order is not None else DEFAULT_MAX_ORDER
    if generators:
        first = generators[0]
        if isinstance(first, Perm):
            ident = Perm.identity(len(first.images))
            if any(len(g.images) != len(first.images) for g in generators):
                raise ValueError("permutation generators must share a degree")
        else:
            ident = FpMat.identity(first.p, first.dim)
            if any((g.p, g.dim) != (first.p, first.dim) for g in generators):
                raise ValueError("matrix generators must share dimension and characteristic")
    else:
        ident = Perm.identity(1)
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for g in generators:
            for x in frontier:
                y = g * x
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if len(seen) > cap:
                        raise ValueError(
                            f"group too large: closure exceeded the cap of {cap} elements")
        frontier = new
    elements = sorted(seen, key=lambda e: e.encoding())
    index = {e: i for i, e in enumerate(elements)}
    return FiniteGroup(list(generators), elements, ident, len(elements), index,
                       designated=dict(designated or {}))


@dataclass(frozen=True)
class ConjClass:
    rep: object
    size: int
    centralizer_order: int
    rep_order: int
    member_indices: frozenset


@dataclass(frozen=True)
class ConjugacyClassSet:
    classes: tuple
    class_of: tuple  # element position -> class index

    def class_index_of(self, group: FiniteGroup, x) -> int:
        return self.class_of[group.index[x]]


CENTRALIZER_CHECK_LIMIT = 1000


def conjugacy_classes(G: FiniteGroup) -> ConjugacyClassSet:
    """Orbit algorithm under conjugation by the generators.

    Centralizer orders come from orbit-stabilizer and are cross-checked by a
    direct count for classes of size <= CENTRALIZER_CHECK_LIMIT.
    """
    if G._classes is not None:
        return G._classes
    n = G.order
    gen_pairs = [(g, g.inverse()) for g in G.generators]
    assigned = [-1] * n
    raw = []
    for start in range(n):
        if assigned[start] >= 0:
            continue
        cls_id = len(raw)
        seed = G.elements[start]
        assigned[start] = cls_id
        members = [start]
        frontier = [seed]
        while frontier:
            new = []
            for x in frontier:
                for g, ginv in gen_pairs:
                    y = g * x * ginv
                    pos = G.index[y]
                    if assigned[pos] < 0:
                        assigned[pos] = cls_id
                        members.append(pos)
                        new.append(y)
            frontier = new
        raw.append(members)
    infos = []
    for members in raw:
        rep_pos = min(members)
        rep = G.elements[rep_pos]
        size = len(members)
        if G.order % size:
            raise AssertionError("class size must divide the group order")
        cent = G.order // size
        if size <= CENTRALIZER_CHECK_LIMIT:
            direct = sum(1 for x in G.elements if x * rep == rep * x)
            if direct != cent:
                raise AssertionError(
                    "orbit-stabilizer centralizer order failed direct count")
        infos.append(ConjClass(rep, size, cent, G.element_order(rep),
                               frozenset(members)))
    order = sorted(range(len(infos)),
                   key=lambda i: (infos[i].size, infos[i].rep_order,
                                  infos[i].rep.encoding()))
    relabel = {old: new for new, old in enumerate(order)}
    classes = tuple(infos[i] for i in order)
    class_of = tuple(relabel[assigned[pos]] for pos in range(n))
    result = ConjugacyClassSet(classes, class_of)
    G._classes = result
    return result


def subgroup(G: FiniteGroup, gens: list) -> FiniteGroup:
    for g in gens:
        if g not in G.index:
            raise ValueError("subgroup generators must lie in the ambient group")
    return enumerate_group(gens, max_order=G.order)


def sylow_subgroup(G: FiniteGroup, p: int) -> FiniteGroup:
    """A Sylow p-subgroup, grown from a maximal-order p-element by repeated
    normalizer extensions; a p-group is its own."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    target = p_part(G.order, p)
    if target == G.order:
        return G
    if target == 1:
        return enumerate_group([], designated={})
    # seed: a p-element of maximal order
    best = None
    best_order = 0
    for c in conjugacy_classes(G).classes:
        o = c.rep_order
        if o == p_part(o, p) and o > best_order and o > 1:
            best, best_order = c.rep, o
    gens = [best]
    P = enumerate_group(gens, max_order=G.order)
    while P.order < target:
        ext = None
        pset = P.index
        for x in G.elements:
            if x in pset:
                continue
            o = G.element_order(x)
            if o != p_part(o, p):
                continue
            xinv = x.inverse()
            if all(x * g * xinv in pset for g in gens):
                ext = x
                break
        if ext is None:
            raise AssertionError("Sylow extension step found no normalizing p-element")
        gens.append(ext)
        P = enumerate_group(gens, max_order=G.order)
    return P


def class_fusion_map(G: FiniteGroup, S: FiniteGroup) -> list[int]:
    """For each S-class index, the index of the G-class containing it."""
    if not S.is_subgroup_of(G):
        raise ValueError("S is not a subgroup of G")
    gc = conjugacy_classes(G)
    return [gc.class_index_of(G, c.rep) for c in conjugacy_classes(S).classes]


# -- standard groups used by the verification corpus -------------------------


def cyclic_group(n: int) -> FiniteGroup:
    g = Perm([(i + 1) % n for i in range(n)])
    return enumerate_group([g], designated={"a": g})


def dihedral_group(order: int) -> FiniteGroup:
    if order % 2 or order < 6:
        raise ValueError("dihedral groups here have even order >= 6")
    m = order // 2
    rot = Perm([(i + 1) % m for i in range(m)])
    flip = Perm([(-i) % m for i in range(m)])
    return enumerate_group([rot, flip], designated={"r": rot, "s": flip})


def symmetric_group(n: int) -> FiniteGroup:
    cycle = Perm([(i + 1) % n for i in range(n)])
    swap = Perm.from_cycles(n, [(0, 1)])
    return enumerate_group([cycle, swap])


def alternating_group(n: int) -> FiniteGroup:
    three = Perm.from_cycles(n, [(0, 1, 2)])
    if n % 2:
        rest = Perm([(i + 1) % n for i in range(n)])
    else:
        rest = Perm([0] + [1 + (i + 1) % (n - 1) for i in range(n - 1)])
    return enumerate_group([three, rest])


def sl2_3() -> FiniteGroup:
    a = FpMat.from_rows(3, [[1, 1], [0, 1]])
    b = FpMat.from_rows(3, [[1, 0], [1, 1]])
    return enumerate_group([a, b])


def gl2_3() -> FiniteGroup:
    a = FpMat.from_rows(3, [[1, 1], [0, 1]])
    b = FpMat.from_rows(3, [[2, 0], [0, 1]])
    c = FpMat.from_rows(3, [[0, 1], [1, 0]])
    return enumerate_group([a, b, c])


def heisenberg_group(p: int) -> FiniteGroup:
    """Extraspecial group of order p**3 and exponent p (p odd)."""
    x = FpMat.from_rows(p, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    y = FpMat.from_rows(p, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    z = FpMat.from_rows(p, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    return enumerate_group([x, y], designated={"x": x, "y": y, "z": z})


def standard_group(name: str) -> FiniteGroup:
    """Build a named group: C<n>, D<order>, S<n>, A<n>, SL2_3, GL2_3, ES7."""
    if name.startswith("C") and name[1:].isdigit():
        return cyclic_group(int(name[1:]))
    if name.startswith("D") and name[1:].isdigit():
        return dihedral_group(int(name[1:]))
    if name.startswith("S") and name[1:].isdigit():
        return symmetric_group(int(name[1:]))
    if name.startswith("A") and name[1:].isdigit():
        return alternating_group(int(name[1:]))
    if name == "SL2_3":
        return sl2_3()
    if name == "GL2_3":
        return gl2_3()
    if name.startswith("ES") and name[2:].isdigit():
        return heisenberg_group(int(name[2:]))
    raise ValueError(f"unknown group name {name!r}")
