"""Element-level fusion data on a finite p-group S: the partition of S into
fusion classes, fully centralised representatives and their S-centralizer
orders.  Fusion comes from an overgroup, from merging classes of a base
partition, or (table mode) from explicit class data without any group.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from .cyclotomic import Cyclotomic
from .groups import FiniteGroup, class_fusion_map, conjugacy_classes
from .intlinalg import is_prime, p_part, spec_int


class FusionClass(NamedTuple):
    s_class_indices: tuple[int, ...]
    rep: object
    rep_order: int
    centralizer_order: int
    size: int


class FusionData:
    __slots__ = ("S", "p", "classes", "saturation_certified", "_class_of_s_class")

    def __init__(self, S: FiniteGroup, p: int, classes: list[FusionClass],
                 saturation_certified: bool) -> None:
        self.S = S
        self.p = p
        self.classes = classes
        self.saturation_certified = saturation_certified
        self._class_of_s_class = {}  # S-class index -> fusion class index

    @property
    def k(self) -> int:
        return len(self.classes)

    def class_of_element(self, x) -> int:
        sc = conjugacy_classes(self.S)
        return self._class_of_s_class[sc.class_index_of(self.S, x)]


def _build_classes(S: FiniteGroup, groups: list[list[int]]) -> list[FusionClass]:
    """Assemble fusion classes from groups of S-class indices.

    The representative maximises |C_S| over the class (ties broken by the
    canonical element order), which is the fully-centralised choice.
    """
    sc = conjugacy_classes(S)
    out = []
    for grp in groups:
        best = min(grp, key=lambda i: (sc.classes[i].size, sc.classes[i].rep.encoding()))
        rep = sc.classes[best].rep
        out.append(FusionClass(
            s_class_indices=tuple(sorted(grp)),
            rep=rep,
            rep_order=sc.classes[best].rep_order,
            centralizer_order=sc.classes[best].centralizer_order,
            size=sum(sc.classes[i].size for i in grp),
        ))
    out.sort(key=lambda c: (c.size, c.rep_order, c.rep.encoding()))
    return out


def _finalise(S: FiniteGroup, p: int, groups: list[list[int]], certified: bool) -> FusionData:
    classes = _build_classes(S, groups)
    fd = FusionData(S, p, classes, certified)
    for ci, fc in enumerate(classes):
        for si in fc.s_class_indices:
            fd._class_of_s_class[si] = ci
    if not (fd.classes[0].size == 1 and fd.classes[0].rep_order == 1):
        raise AssertionError("the identity must form a singleton fusion class")
    if sum(c.size for c in fd.classes) != S.order:
        raise AssertionError("fusion classes must partition S")
    return fd


def fusion_from_group(G: FiniteGroup, S: FiniteGroup, p: int) -> FusionData:
    """Fusion of S induced by G-conjugacy; classes are G-classes met with S."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if S.order != p_part(S.order, p):
        raise ValueError("S must be a p-group")
    if not S.is_subgroup_of(G):
        raise ValueError("S must be a subgroup of G")
    fusion = class_fusion_map(G, S)
    by_g_class: dict[int, list[int]] = {}
    for s_idx, g_idx in enumerate(fusion):
        by_g_class.setdefault(g_idx, []).append(s_idx)
    return _finalise(S, p, list(by_g_class.values()), certified=S.order == p_part(G.order, p))


def fusion_of_self(S: FiniteGroup, p: int) -> FusionData:
    return fusion_from_group(S, S, p)


def join(n: int, pairs) -> list[list[int]]:
    """The blocks of the finest partition of range(n) joining each pair (union-find)."""
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i
    for a, b in pairs:
        parent[find(a)] = find(b)
    return [list(block) for _, block in groupby(sorted(range(n), key=find), key=find)]


def apply_merges(base: FusionData, merges: list[tuple]) -> FusionData:
    """Finest coarsening of `base` putting each merge pair in a common class.

    Pairs are elements of S of equal order.  Because element fusion is
    induced by injective homomorphisms, merging x with y also merges x^k
    with y^k for every k; the closure keeps the partition power-closed,
    which is what guarantees rank(stable lattice) = class count downstream.
    The result is not certified saturated.
    """
    sc = conjugacy_classes(base.S)
    fused = base._class_of_s_class.__getitem__
    pairs = []
    for a, b in merges:
        if a not in base.S or b not in base.S:
            raise ValueError("merge elements must lie in S")
        # a ** r lies in the S-class of rep ** r, for rep the representative of a's class
        pa, pb = (sc.powers[sc.class_index_of(base.S, x)] for x in (a, b))
        if len(pa) != len(pb):
            raise ValueError("fused elements must have equal order")
        pairs += zip(map(fused, pa), map(fused, pb))
    return _finalise(base.S, base.p, [[si for ci in blk for si in base.classes[ci].s_class_indices]
                                      for blk in join(base.k, pairs)], certified=False)


def centralizer_product(F: FusionData) -> int:
    prod = 1
    for c in F.classes:
        prod *= c.centralizer_order
    return prod


# -- table mode ----------------------------------------------------------------


class TableFusion:
    """Fusion data given by explicit class data instead of a group.

    `basis_values[i][j]` is the value of the i-th basis virtual character at
    the j-th class of the base partition; merging the listed label groups
    produces the fusion partition to verify.
    """

    __slots__ = ("p", "group_order", "labels", "class_sizes", "centralizer_orders",
                 "basis_values", "merge_groups", "name")

    def __init__(self, p: int, group_order: int, labels: list[str], class_sizes: list[int],
                 centralizer_orders: list[int], basis_values: list[list[Cyclotomic]],
                 merge_groups: list[list[int]], name: str = "table-mode") -> None:
        self.p = p
        self.group_order = group_order
        self.labels = labels
        self.class_sizes = class_sizes
        self.centralizer_orders = centralizer_orders
        self.basis_values = basis_values
        self.merge_groups = merge_groups  # groups of column indices to identify
        self.name = name
        k = len(self.labels)
        if not is_prime(self.p):
            raise ValueError(f"table-mode p = {self.p} is not prime")
        if k == 0:
            raise ValueError("a table-mode fusion needs at least one class")
        if not (len(self.class_sizes) == len(self.centralizer_orders) == k):
            raise ValueError("inconsistent table-mode class data")
        if min(self.class_sizes) <= 0 or min(self.centralizer_orders) <= 0:
            raise ValueError("class sizes and centralizer orders must be positive")
        if len(self.basis_values) != k or any(len(row) != k for row in self.basis_values):
            raise ValueError("basis value matrix must be square over the classes")
        if sum(self.class_sizes) != self.group_order:
            raise ValueError("class sizes must sum to the group order")
        if p_part(self.group_order, self.p) != self.group_order:
            raise ValueError(f"table-mode group order {self.group_order} is not a power "
                             f"of p = {self.p}")
        for c in self.centralizer_orders:
            if self.group_order % c:  # the divisors of a p-power are its p-powers
                raise ValueError(f"centralizer order {c} is not a power of p = {self.p} "
                                 f"dividing the group order {self.group_order}")
        seen: set[int] = set()
        for grp in self.merge_groups:
            if not grp:
                raise ValueError("merge groups must be nonempty")
            for j in grp:
                if not 0 <= j < k:
                    raise ValueError(f"merge group index {j} is out of range 0..{k - 1}")
                if j in seen:
                    raise ValueError(f"class {j} appears in more than one merge group")
                seen.add(j)

    def merged_partition(self) -> list[list[int]]:
        merged = set()
        groups = []
        for grp in self.merge_groups:
            groups.append(sorted(grp))
            merged.update(grp)
        for j in range(len(self.labels)):
            if j not in merged:
                groups.append([j])
        groups.sort(key=lambda g: (sum(self.class_sizes[j] for j in g), g))
        return groups

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "group_order": self.group_order,
            "labels": list(self.labels),
            "class_sizes": list(self.class_sizes),
            "centralizer_orders": list(self.centralizer_orders),
            "basis_values": [[v.to_json() for v in row] for row in self.basis_values],
            "merge_groups": [list(g) for g in self.merge_groups],
            "name": self.name,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TableFusion":
        group_order = spec_int(data["group_order"], "group_order")

        def value(v: dict) -> Cyclotomic:
            # values of S lie in Q(zeta_exp(S)), so every order written minimized
            # divides 2|S|; checked before Cyclotomic builds Phi_order
            order = spec_int(v["order"], "order")
            if order > 0 and (2 * group_order) % order:
                raise ValueError(f"value order {order} does not divide "
                                 f"2 * group_order = {2 * group_order}")
            return Cyclotomic.from_json(v)

        return cls(
            p=spec_int(data["p"], "p"),
            group_order=group_order,
            labels=[str(x) for x in data["labels"]],
            class_sizes=[spec_int(x, "class_sizes") for x in data["class_sizes"]],
            centralizer_orders=[spec_int(x, "centralizer_orders")
                                for x in data["centralizer_orders"]],
            basis_values=[[value(v) for v in row] for row in data["basis_values"]],
            merge_groups=[[spec_int(j, "merge_groups") for j in g]
                          for g in data["merge_groups"]],
            name=str(data.get("name", "table-mode")),
        )
