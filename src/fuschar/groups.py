"""Finite groups enumerated from generators: permutations or matrices over
a prime field, conjugacy classes, centralizer orders, Sylow subgroups and
class fusion inside an overgroup.
"""

from __future__ import annotations

from array import array
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


class PositionActions:
    """Multiplication of an enumerated group on its sorted element positions.

    `act[i][x]` is the position of `generators[i] * elements[x]`.  Every
    element x other than the identity is `generators[gen[x]] * elements[parent[x]]`
    with its parent earlier in the breadth-first order `bfs`, so right
    multiplication by any element, conjugation and left multiplication along
    an element's word in the generators are list indexing, with no element
    products (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
    ch. 4).
    """

    __slots__ = ("act", "bfs", "parent", "gen")

    def __init__(self, act: list, bfs: array, parent: array, gen: array) -> None:
        self.act = act
        self.bfs = bfs
        self.parent = parent
        self.gen = gen

    def check(self) -> None:
        """Raise unless every generator acts as a permutation of the positions
        and every non-root position is its generator's image of its parent."""
        n = len(self.bfs)
        everything = set(range(n))
        for images in self.act:
            if len(images) != n or set(images) != everything:
                raise AssertionError("a generator action is not a permutation of the elements")
        act, parent, gen = self.act, self.parent, self.gen
        if any(act[gen[x]][parent[x]] != x for x in self.bfs[1:]):
            raise AssertionError("the breadth-first tree disagrees with the generator actions")

    def along_tree(self, start: int, maps: list) -> array:
        """`out[x] = maps[gen[x]][out[parent[x]]]` down the breadth-first tree
        from `out[identity] = start`.  With the generator actions as `maps`
        this is x -> x*h for h at `start` (if x = g*y then x*h = g*(y*h)); with
        conjugation by the generators it is x -> x*h*x^-1."""
        out = array("i", [0]) * len(self.bfs)
        out[self.bfs[0]] = start
        parent, gen = self.parent, self.gen
        for x in self.bfs[1:]:
            out[x] = maps[gen[x]][out[parent[x]]]
        return out

    def right(self, h: int) -> array:
        """Position of elements[x] * elements[h], for every position x."""
        return self.along_tree(h, self.act)

    def left(self, h: int, xs) -> array:
        """Positions of elements[h] * elements[x] for x in xs: the generator
        actions composed along the breadth-first word of h."""
        word = []
        while h != self.bfs[0]:
            word.append(self.gen[h])
            h = self.parent[h]
        out = array("i", xs)
        for i in reversed(word):
            images = self.act[i]
            out = array("i", [images[x] for x in out])
        return out

    def conjugations(self) -> list[array]:
        """For each generator g, the position of g * elements[x] * g^-1."""
        n = len(self.bfs)
        maps = []
        for images in self.act:
            by_g = self.right(images[self.bfs[0]])
            undo = array("i", [0]) * n  # right multiplication by g^-1
            for x, y in enumerate(by_g):
                undo[y] = x
            maps.append(array("i", [images[y] for y in undo]))
        return maps


@dataclass
class FiniteGroup:
    generators: list
    elements: list
    identity: object
    order: int
    index: dict = field(repr=False)
    _classes: object = field(default=None, repr=False)
    designated: dict = field(default_factory=dict, repr=False)
    actions: PositionActions = field(default=None, repr=False)

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
    """Breadth-first closure of the generators, canonically ordered, with the
    generator actions and the breadth-first tree kept on element positions."""
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
    # discovery numbers: found[e] is e's place in `found_order`
    found = {ident: 0}
    found_order = [ident]
    parent = array("i", [-1])
    gen = array("i", [-1])
    act = [array("i") for _ in generators]  # in discovery numbers
    start = 0
    while start < len(found_order):
        stop = len(found_order)
        for i, g in enumerate(generators):
            images = act[i]
            for d in range(start, stop):
                y = g * found_order[d]
                j = found.get(y)
                if j is None:
                    j = len(found_order)
                    found[y] = j
                    found_order.append(y)
                    parent.append(d)
                    gen.append(i)
                    if len(found) > cap:
                        raise ValueError(
                            f"group too large: closure exceeded the cap of {cap} elements")
                images.append(j)
        start = stop
    # the discovery-numbered data is freed before `index` is built, to keep
    # the peak down
    del found
    by_pos = sorted(range(len(found_order)), key=lambda d: found_order[d].encoding())
    elements = [found_order[d] for d in by_pos]
    pos = array("i", [0]) * len(by_pos)  # discovery number -> position
    for x, d in enumerate(by_pos):
        pos[d] = x
    for i, images in enumerate(act):
        act[i] = array("i", [pos[images[d]] for d in by_pos])
    actions = PositionActions(act, pos,
                              array("i", [pos[parent[d]] if d else -1 for d in by_pos]),
                              array("i", [gen[d] for d in by_pos]))
    del found_order, by_pos
    index = {e: i for i, e in enumerate(elements)}
    return FiniteGroup(list(generators), elements, ident, len(elements), index,
                       designated=dict(designated or {}), actions=actions)


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
    """Orbit algorithm under conjugation by the generators, on positions.

    Centralizer orders come from orbit-stabilizer and are cross-checked by a
    direct count of the positions where x*rep and rep*x agree, for classes of
    size <= CENTRALIZER_CHECK_LIMIT.
    """
    if G._classes is not None:
        return G._classes
    n = G.order
    actions = G.actions
    actions.check()
    conj = actions.conjugations()
    assigned = [-1] * n
    raw = []
    for start in range(n):
        if assigned[start] >= 0:
            continue
        cls_id = len(raw)
        assigned[start] = cls_id
        members = [start]
        frontier = [start]
        while frontier:
            new = []
            for x in frontier:
                for images in conj:
                    y = images[x]
                    if assigned[y] < 0:
                        assigned[y] = cls_id
                        members.append(y)
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
            pairs = zip(actions.right(rep_pos), actions.left(rep_pos, range(n)))
            direct = sum(1 for a, b in pairs if a == b)
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
    classes = conjugacy_classes(G)
    # seed: a p-element of maximal order
    best = None
    best_order = 0
    for c in classes.classes:
        o = c.rep_order
        if o == p_part(o, p) and o > best_order and o > 1:
            best, best_order = c.rep, o
    p_element_class = [c.rep_order == p_part(c.rep_order, p) for c in classes.classes]
    actions = G.actions
    conj = actions.conjugations()
    gens = [best]
    P = enumerate_group(gens, max_order=G.order)
    while P.order < target:
        pset = {G.index[y] for y in P.elements}
        # x -> x g x^-1 for each generator g of P
        conjugates = [actions.along_tree(G.index[g], conj) for g in gens]
        ext = next((x for x in range(G.order)
                    if x not in pset and p_element_class[classes.class_of[x]]
                    and all(c[x] in pset for c in conjugates)), None)
        if ext is None:
            raise AssertionError("Sylow extension step found no normalizing p-element")
        gens.append(G.elements[ext])
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
