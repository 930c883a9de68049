"""Finite groups enumerated from generators: permutations or matrices over
a prime field, conjugacy classes, centralizer orders, Sylow subgroups and
class fusion inside an overgroup.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from math import lcm
from operator import eq
from typing import NamedTuple

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

    def word(self, h: int) -> list:
        """The generator actions whose composition, in list order, is left
        multiplication by elements[h]: h's breadth-first word, last letter first."""
        word = []
        while h != self.bfs[0]:
            word.append(self.act[self.gen[h]])
            h = self.parent[h]
        return word[::-1]

    def left(self, h: int, xs) -> array:
        """Positions of elements[h] * elements[x] for x in xs."""
        out = array("i", xs)
        for images in self.word(h):
            out = array("i", [images[x] for x in out])
        return out

    def right_by_inverses(self) -> list[array]:
        """For each generator g, the position of elements[x] * g^-1: the
        inverse permutation of right multiplication by g."""
        maps = []
        for images in self.act:
            undo = array("i", [0]) * len(self.bfs)
            for x, y in enumerate(self.right(images[self.bfs[0]])):
                undo[y] = x
            maps.append(undo)
        return maps

    def conjugations(self, undo: list | None = None) -> list[array]:
        """For each generator g, the position of g * elements[x] * g^-1, from
        `undo = right_by_inverses()`."""
        return [array("i", [images[y] for y in by_inv])
                for images, by_inv in zip(self.act, undo or self.right_by_inverses())]


class ElementIndex:
    """`G.index`: element -> position, looked up by the element's code, which
    `encode` gives as None for an element of another kind, p, dim or degree."""

    __slots__ = ("position", "encode")

    def __init__(self, position: dict, encode) -> None:
        self.position = position
        self.encode = encode

    def __getitem__(self, x) -> int:
        return self.position[self.encode(x)]

    def __contains__(self, x) -> bool:
        return self.encode(x) in self.position


class FiniteGroup:
    """A group enumerated from generators, its elements held as integer codes
    in canonical order; element objects are decoded only where asked for."""

    def __init__(self, generators: list, codes: list, index: ElementIndex, decode,
                 designated: dict, actions: PositionActions) -> None:
        self.generators = generators
        self.codes = codes
        self.index = index
        self.decode = decode
        self.order = len(codes)
        self.identity = decode(codes[actions.bfs[0]])
        self.designated = designated
        self.actions = actions
        self._classes = None
        self._table = None

    @cached_property
    def elements(self) -> list:
        """Every element in canonical order, decoded on first access."""
        return list(map(self.decode, self.codes))

    def element(self, x: int):
        return self.decode(self.codes[x])

    def __contains__(self, x) -> bool:
        return x in self.index

    def exponent(self) -> int:
        return lcm(*(c.rep_order for c in conjugacy_classes(self).classes))

    def is_subgroup_of(self, other: "FiniteGroup") -> bool:
        # elements of one kind share their codes, and the identity tells kinds apart
        return self.identity in other and all(map(other.index.position.__contains__, self.codes))


def _digits(code: int, base: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        code, r = divmod(code, base)
        out.append(r)
    return out


def _perm_codes(degree: int, generators: list):
    """A permutation's code is its image tuple, ordered like `encoding()`;
    g * x maps each image of x through g.  Returns the identity's code, one
    left-multiplication map per generator, the sort key, encoder and decoder."""
    def left_by(g):
        images = g.images
        return lambda x: tuple([images[k] for k in x])

    def encode(x):  # an image tuple of another degree is no code of this group
        return x.images if isinstance(x, Perm) else None
    return tuple(range(degree)), [left_by(g) for g in generators], None, encode, Perm


def _column_sum(q: int, fills: list):
    """x -> the sum over places j of fills[j](the j-th base-q digit of x), each
    fill memoised in a table filled as digits are first met."""
    tables = [({}, fill) for fill in fills]

    def total(x: int) -> int:
        out = 0
        for table, fill in tables:
            c = x % q
            x //= q
            try:
                out += table[c]
            except KeyError:
                out += table.setdefault(c, fill(c))
        return out
    return total


def _matrix_codes(generators: list):
    """A matrix's code is one int whose base-p^d digits are its columns, each
    column written in base p.  g * x maps each column of x through g's action
    on F_p^d, and the sort key weighs its entries by their row-major places,
    to order like `encoding()`: each one lookup per column in a table filled
    as columns are first met.  Returns as `_perm_codes` does."""
    p, dim = generators[0].p, generators[0].dim
    q = p ** dim
    # weights[i*dim + j]: the place of entry (i, j) in the code
    weights = [p ** (i + dim * j) for i in range(dim) for j in range(dim)]

    def left_by(g):
        rows = g.rows()

        def image(c: int) -> int:
            v = _digits(c, p, dim)
            return sum(sum(map(int.__mul__, row, v)) % p * p ** i for i, row in enumerate(rows))
        # column j of g * x is g times column j of x
        return _column_sum(q, [lambda c, s=q ** j: image(c) * s for j in range(dim)])

    def row_major(c: int, j: int) -> int:
        last = dim * dim - 1
        return sum(v * p ** (last - i * dim - j) for i, v in enumerate(_digits(c, p, dim)))

    def encode(x):
        if not (isinstance(x, FpMat) and x.p == p and x.dim == dim):
            return None
        return sum(map(int.__mul__, x.entries, weights))

    def decode(x: int) -> FpMat:
        return FpMat(p, dim, [x // w % p for w in weights])

    order_key = _column_sum(q, [lambda c, j=j: row_major(c, j) for j in range(dim)])
    return sum(weights[::dim + 1]), [left_by(g) for g in generators], order_key, encode, decode


def enumerate_group(generators: list, max_order: int | None = None,
                    designated: dict | None = None) -> FiniteGroup:
    """Breadth-first closure of the generators on integer codes, sorted into
    the canonical order, with the generator actions and the breadth-first
    tree kept on element positions.  No element is decoded here."""
    cap = max_order if max_order is not None else DEFAULT_MAX_ORDER
    if generators and isinstance(generators[0], FpMat):
        first = generators[0]
        if any((g.p, g.dim) != (first.p, first.dim) for g in generators):
            raise ValueError("matrix generators must share dimension and characteristic")
        start, steps, order_key, encode, decode = _matrix_codes(generators)
    else:
        degree = len(generators[0].images) if generators else 1
        if any(len(g.images) != degree for g in generators):
            raise ValueError("permutation generators must share a degree")
        start, steps, order_key, encode, decode = _perm_codes(degree, generators)
    # discovery numbers: found[c] is code c's place in `found_order`
    found = {start: 0}
    found_order = [start]
    parent = array("i", [-1])
    gen = array("i", [-1])
    act = [array("i") for _ in generators]  # in discovery numbers
    first_new = 0
    while first_new < len(found_order):
        stop = len(found_order)
        for i, step in enumerate(steps):
            images = act[i]
            for d in range(first_new, stop):
                y = step(found_order[d])
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
        first_new = stop
    del steps
    codes = found_order  # sorted in place into the canonical order
    codes.sort(key=order_key)
    by_pos = array("i", map(found.__getitem__, codes))  # position -> discovery number
    pos = array("i", [0]) * len(codes)  # discovery number -> position
    for x, d in enumerate(by_pos):
        pos[d] = x
    for x, c in enumerate(codes):  # `found` now maps each code to its position
        found[c] = x
    for i, images in enumerate(act):
        act[i] = array("i", map(pos.__getitem__, map(images.__getitem__, by_pos)))
    actions = PositionActions(act, pos,
                              array("i", [pos[parent[d]] if d else -1 for d in by_pos]),
                              array("i", map(gen.__getitem__, by_pos)))
    return FiniteGroup(list(generators), codes, ElementIndex(found, encode), decode,
                       dict(designated or {}), actions)


def orbit_stabiliser(G: FiniteGroup, point, act) -> tuple[dict, FiniteGroup]:
    """The orbit of `point` under a right action act(x, g) of G, with
    act(act(x, g), h) == act(x, g * h): the transversal {b: t with
    act(point, t) == b}, grown breadth-first over G's generators, and the
    stabiliser, closed from the Schreier generators t_b g t_(b g)^-1 that
    its closure does not yet hold, until it has |G| / |orbit| elements
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, ch. 4).
    A point fixed by all of G has G itself as its stabiliser."""
    transversal = {point: G.identity}
    frontier = [point]
    while frontier:
        nxt = []
        for b in frontier:
            t = transversal[b]
            for g in G.generators:
                c = act(b, g)
                if c not in transversal:
                    transversal[c] = t * g
                    nxt.append(c)
        frontier = nxt
    if any(act(point, t) != b for b, t in transversal.items()):
        raise AssertionError("orbit-stabiliser transversal: act(point, t) is not the "
                             "orbit point of t, so act is not a right action")
    if len(transversal) == 1:
        return transversal, G
    target = G.order // len(transversal)
    stab = enumerate_group([G.identity])
    schreier = (t * g * transversal[act(b, g)].inverse()
                for b, t in transversal.items() for g in G.generators)
    for s in schreier:
        if stab.order >= target:
            break
        if act(point, s) != point:
            raise AssertionError("orbit-stabiliser Schreier generator: it does not fix the point")
        if s not in stab:  # the closure lies in G, so G's order caps it
            stab = enumerate_group(stab.generators + [s], max_order=G.order)
    if stab.order * len(transversal) != G.order:
        raise AssertionError("orbit-stabiliser count: |orbit| * |stabiliser| != |G|")
    return transversal, stab


class ConjClass(NamedTuple):
    rep: object
    size: int
    centralizer_order: int
    rep_order: int
    member_indices: frozenset


class ConjugacyClassSet(NamedTuple):
    classes: tuple
    class_of: tuple  # element position -> class index
    powers: tuple  # powers[i][r]: the class of classes[i].rep ** r, for r < rep_order

    def class_index_of(self, group: FiniteGroup, x) -> int:
        return self.class_of[group.index[x]]


CENTRALIZER_CHECK_LIMIT = 1000


def _checked_powers(actions: PositionActions, inv: array, rep: int, cent: int | None) -> list:
    """Positions of rep ** r for r below its order, each the previous one
    times rep.  Unless cent is None, first checks by direct count that cent
    elements x have x*rep = rep*x: with f(x) = x^-1 * rep, f(f(x)) is
    rep^-1 * x * rep.  That walk of the group then multiplies by rep; else rep's
    word does, in ord(rep) x |word| steps (a word can be as long as the group)."""
    if cent is None:
        times_rep = actions.word(rep)
    else:
        by_rep = actions.right(rep).tolist()
        f = list(map(by_rep.__getitem__, inv))
        if sum(map(eq, map(f.__getitem__, f), range(len(f)))) != cent:
            raise AssertionError("orbit-stabilizer centralizer order failed direct count")
        times_rep = [by_rep]
    one = actions.bfs[0]
    pw = [one]
    x = rep
    while x != one:
        if len(pw) == len(inv):
            raise AssertionError("the powers of an element never return to the identity")
        pw.append(x)
        for images in times_rep:
            x = images[x]
    return pw


def conjugacy_classes(G: FiniteGroup) -> ConjugacyClassSet:
    """Orbit algorithm under conjugation by the generators, on positions.

    Centralizer orders come from orbit-stabilizer and are cross-checked by a
    direct count of the positions where x*rep and rep*x agree, for classes of
    size <= CENTRALIZER_CHECK_LIMIT, read off right multiplication by rep and
    one inverse map of the group.  The power map of a larger class multiplies
    along its rep's word, with no walk of the group.
    """
    if G._classes is not None:
        return G._classes
    n = G.order
    actions = G.actions
    actions.check()
    undo = actions.right_by_inverses()
    conj = actions.conjugations(undo)
    inv = actions.along_tree(actions.bfs[0], undo)  # x = g*y gives x^-1 = y^-1 * g^-1
    del undo  # one array of |G| entries per generator, not needed past here
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
    infos, powers = [], []
    for members in raw:
        rep_pos = min(members)
        size = len(members)
        if G.order % size:
            raise AssertionError("class size must divide the group order")
        cent = G.order // size
        pw = _checked_powers(actions, inv, rep_pos,
                             cent if size <= CENTRALIZER_CHECK_LIMIT else None)
        powers.append(pw)
        infos.append(ConjClass(G.element(rep_pos), size, cent, len(pw), frozenset(members)))
    # positions follow `encoding()`, so the least position is the least encoding
    order = sorted(range(len(infos)),
                   key=lambda i: (infos[i].size, infos[i].rep_order, min(raw[i])))
    relabel = {old: new for new, old in enumerate(order)}
    classes = tuple(infos[i] for i in order)
    class_of = tuple(relabel[assigned[pos]] for pos in range(n))
    result = ConjugacyClassSet(classes, class_of,
                               tuple(tuple(class_of[x] for x in powers[i]) for i in order))
    G._classes = result
    return result


def sylow_subgroup(G: FiniteGroup, p: int) -> FiniteGroup:
    """A Sylow p-subgroup, grown from a maximal-order p-element by repeated
    normalizer extensions; a p-group is its own."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    target = p_part(G.order, p)
    if target == G.order:
        return G
    if target == 1:  # the trivial subgroup, of G's own kind
        return enumerate_group([G.identity])
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
        pset = set(map(G.index.position.__getitem__, P.codes))
        # x -> x g x^-1 for each generator g of P
        conjugates = [actions.along_tree(G.index[g], conj) for g in gens]
        ext = next((x for x in range(G.order)
                    if x not in pset and p_element_class[classes.class_of[x]]
                    and all(c[x] in pset for c in conjugates)), None)
        if ext is None:
            raise AssertionError("Sylow extension step found no normalizing p-element")
        gens.append(G.element(ext))
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
