"""Seeded inputs for the `merges` workload: fusion specs in the JSON format
that `fuschar verify-fusion` reads.

The generator works on its own small copies of the group generators and
never imports fuschar, so the program under test receives only the finished
specs.  Element words use the `g<i>[^k]` tokens defined in the README.

The merged classes are drawn once, from the fixed stream `SYSTEMS_SEED`;
the workload seed picks the elements of those classes that the words name,
and the item order.  Merging conjugates merges the same classes, so every
seed verifies the same fusion systems through different specs.  When the
workload seed drew the classes, the pass time followed the draw: one merge
costs 1.4 s to 5 s for ES7 at the same k, depending on where the merged
classes fall in fuschar's canonical class order.
"""

from __future__ import annotations

import random


def _perm_mul(a, b):
    # (a*b)(x) = a(b(x)), the convention of fuschar's Perm
    return tuple(a[x] for x in b)


def _mat_mul(a, b, p):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
                 for i in range(n))


class SpecGroup:
    """A generated group spec plus a breadth-first word for every element."""

    def __init__(self, name: str, p: int, spec: dict, gens: list):
        self.name, self.p, self.spec = name, p, spec
        if spec["kind"] == "permutation":
            self.mul = _perm_mul
            ident = tuple(range(spec["degree"]))
        else:
            q = spec["char"]
            self.mul = lambda a, b: _mat_mul(a, b, q)
            ident = tuple(tuple(int(i == j) for j in range(spec["dim"]))
                          for i in range(spec["dim"]))
        self.identity = ident
        words = {ident: []}
        frontier = [ident]
        while frontier:
            new = []
            for x in frontier:
                for gi, g in enumerate(gens):
                    y = self.mul(x, g)
                    if y not in words:
                        words[y] = words[x] + [gi]
                        new.append(y)
            frontier = new
        self.words = words
        self.elements = sorted(words)
        self.order_of = {x: self._order(x) for x in self.elements}
        inverses = [self._power(g, self.order_of[g] - 1) for g in gens]
        self.class_of: dict = {}
        for x in self.elements:
            if x in self.class_of:
                continue
            members = [x]
            self.class_of[x] = members
            for y in members:
                for g, g_inv in zip(gens, inverses):
                    z = self.mul(self.mul(g, y), g_inv)
                    if z not in self.class_of:
                        self.class_of[z] = members
                        members.append(z)

    def _power(self, x, n: int):
        y = self.identity
        for _ in range(n):
            y = self.mul(y, x)
        return y

    def _order(self, x) -> int:
        n, y = 1, x
        while y != self.identity:
            y, n = self.mul(y, x), n + 1
        return n

    def word(self, x) -> str:
        """The BFS word of x with runs written as powers, e.g. g0^2*g1."""
        toks: list[list[int]] = []
        for gi in self.words[x]:
            if toks and toks[-1][0] == gi:
                toks[-1][1] += 1
            else:
                toks.append([gi, 1])
        return "*".join(f"g{g}" if k == 1 else f"g{g}^{k}" for g, k in toks)


def _cyclic(n: int, p: int) -> SpecGroup:
    g = [(i + 1) % n for i in range(n)]
    return SpecGroup(f"C{n}", p, {"kind": "permutation", "degree": n,
                                  "generators": [g]}, [tuple(g)])


def _dihedral(order: int) -> SpecGroup:
    m = order // 2
    rot = [(i + 1) % m for i in range(m)]
    flip = [(-i) % m for i in range(m)]
    return SpecGroup(f"D{order}", 2, {"kind": "permutation", "degree": m,
                                      "generators": [rot, flip]},
                     [tuple(rot), tuple(flip)])


def _matrix_group(name: str, p: int, gens: list) -> SpecGroup:
    spec = {"kind": "matrix", "dim": len(gens[0]), "char": p, "generators": gens}
    return SpecGroup(name, p, spec, [tuple(tuple(r) for r in g) for g in gens])


def _extraspecial(p: int) -> SpecGroup:
    """Order p^3, exponent p: upper unitriangular 3x3 matrices over F_p."""
    return _matrix_group(f"ES{p}", p, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                                       [[1, 0, 0], [0, 1, 1], [0, 0, 1]]])


def _p4_group(p: int) -> SpecGroup:
    """S = V:U of order p^4: translations of F_p^3 and the unipotent u acting
    on binary quadratic forms, as 4x4 affine matrices."""
    def t(i):
        return [[int(r == c) if c < 3 else int(r == i) for c in range(4)] for r in range(3)] \
            + [[0, 0, 0, 1]]
    u = [[1, 1, 1, 0], [0, 1, 2 % p, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    return _matrix_group(f"S4_{p}", p, [t(0), t(1), t(2), u])


def group_pool() -> list[SpecGroup]:
    return [_extraspecial(3), _extraspecial(5), _extraspecial(7),
            _dihedral(16), _dihedral(32), _dihedral(64),
            _cyclic(16, 2), _cyclic(25, 5), _cyclic(27, 3), _cyclic(32, 2),
            _p4_group(3), _p4_group(5)]


SYSTEMS_SEED = 0


def merge_specs(seed: int, rounds: int) -> list[tuple[str, dict]]:
    """`rounds` specs per pool group, shuffled.

    Item r of the i-th pool group merges 1 + (i + r) % 3 pairs of elements
    of equal order, its pairs taking the group's element orders in a fixed
    rotation.  The pairs' classes come from `SYSTEMS_SEED`; `seed` picks
    the elements.
    """
    systems = random.Random(SYSTEMS_SEED)
    rng = random.Random(seed)
    items = []
    for i, grp in enumerate(group_pool()):
        by_order: dict[int, list] = {}
        for x in grp.elements:
            by_order.setdefault(grp.order_of[x], []).append(x)
        orders = sorted((o for o, xs in by_order.items() if o > 1 and len(xs) > 1),
                        reverse=True)
        for r in range(rounds):
            merges = []
            for j in range(1 + (i + r) % 3):
                pair = systems.sample(by_order[orders[(r + j) % len(orders)]], 2)
                merges.append([grp.word(rng.choice(grp.class_of[x])) for x in pair])
            spec = {"group": grp.spec, "p": grp.p, "merges": merges, "mode": "group"}
            items.append((f"{grp.name}#{r}", spec))
    rng.shuffle(items)
    return items
