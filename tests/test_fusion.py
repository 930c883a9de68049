import random

import pytest

from fuschar.constructions import build_group
from fuschar.cyclotomic import Cyclotomic
from fuschar.exotic import table_3492
from fuschar.fusion import (
    TableFusion,
    apply_merges,
    centralizer_product,
    fusion_from_group,
    fusion_of_self,
)
from fuschar.groups import (
    conjugacy_classes,
    cyclic_group,
    standard_group,
    sylow_subgroup,
    symmetric_group,
)

from oracles import full_merge


def test_self_fusion_matches_classes():
    s = standard_group("D16")
    f = fusion_of_self(s, 2)
    cc = conjugacy_classes(s)
    assert f.k == len(cc.classes)
    assert f.saturation_certified
    assert centralizer_product(f) == \
        eval("*".join(str(c.centralizer_order) for c in cc.classes))


def test_c8_self_fusion_then_merge():
    c8 = cyclic_group(8)
    a = c8.designated["a"]
    base = fusion_of_self(c8, 2)
    assert base.k == 8
    merged = apply_merges(base, [(a * a, a * a * a * a * a * a)])
    assert merged.k == 7
    assert not merged.saturation_certified
    two_class = next(c for c in merged.classes if c.size == 2)
    members = {c8.elements[i] for idx in two_class.s_class_indices
               for i in conjugacy_classes(c8).classes[idx].member_indices}
    assert members == {a * a, a * a * a * a * a * a}
    assert centralizer_product(merged) == 2 ** 21


def test_merge_drop_counts():
    s4 = symmetric_group(4)
    syl = sylow_subgroup(s4, 2)
    base = fusion_of_self(syl, 2)
    reps = [c.rep for c in base.classes if c.rep_order > 1]
    merged = apply_merges(base, [(reps[0], reps[1])])
    assert merged.k == base.k - 1
    merged2 = apply_merges(base, [(reps[0], reps[1]), (reps[0], reps[2])])
    assert merged2.k == base.k - 2
    # merging already-fused elements changes nothing
    same = apply_merges(merged, [(reps[0], reps[1])])
    assert same.k == merged.k


def test_full_merge_transitive_shape():
    es = standard_group("ES7")
    f = full_merge(fusion_of_self(es, 7))
    assert f.k == 2
    assert [c.centralizer_order for c in f.classes] == [343, 343]
    assert centralizer_product(f) == 7 ** 6
    # the representative of the merged class is fully centralised (central)
    assert f.classes[1].rep_order == 7


def test_group_fusion_flags_and_product_drop():
    from fuschar.constructions import build_group, sylow_inside

    n = build_group(3, "N_b")
    s = sylow_inside(3)
    base = fusion_from_group(n, s, 3)
    assert base.saturation_certified
    merged = apply_merges(base, [(s.designated["z"], s.designated["u"])])
    assert merged.k == base.k - 1
    # |C_S(u)| = p^2 makes the product drop by exactly p^2
    assert centralizer_product(base) == 9 * centralizer_product(merged)


def _power_closure(base, merges):
    """The S-class groups of apply_merges, found by multiplying elements."""
    S = base.S
    parent = list(range(base.k))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in merges:
        xa, xb = a, b
        while True:
            ra, rb = find(base.class_of_element(xa)), find(base.class_of_element(xb))
            parent[ra] = rb
            if xa == S.identity:
                break
            xa, xb = xa * a, xb * b
    groups = {}
    for ci, fc in enumerate(base.classes):
        groups.setdefault(find(ci), []).extend(fc.s_class_indices)
    return sorted(sorted(g) for g in groups.values())


def test_merges_of_non_representatives_follow_the_element_powers():
    rng = random.Random(8)
    s4 = symmetric_group(4)
    for base in (fusion_of_self(build_group(3, "S"), 3),
                 fusion_from_group(s4, sylow_subgroup(s4, 2), 2)):
        S = base.S
        sc = conjugacy_classes(S)
        reps = {c.rep for c in sc.classes}
        by_order = {}
        for x in S.elements:
            if x not in reps:
                by_order.setdefault(sc.classes[sc.class_index_of(S, x)].rep_order, []).append(x)
        assert sum(map(len, by_order.values())) > 0
        for _ in range(6):
            merges = []
            for _ in range(rng.randint(1, 3)):
                pool = rng.choice([xs for xs in by_order.values() if len(xs) > 1])
                merges.append(tuple(rng.sample(pool, 2)))
            merged = apply_merges(base, merges)
            assert sorted(list(fc.s_class_indices) for fc in merged.classes) == \
                _power_closure(base, merges)


def test_merge_requires_membership():
    c8 = cyclic_group(8)
    base = fusion_of_self(c8, 2)
    outsider = symmetric_group(3).elements[1]
    with pytest.raises(ValueError):
        apply_merges(base, [(c8.designated["a"], outsider)])


def test_fusion_rejects_non_p_group():
    s4 = symmetric_group(4)
    with pytest.raises(ValueError):
        fusion_from_group(s4, s4, 2)


def test_rep_ordering_deterministic():
    s = standard_group("D32")
    f = fusion_of_self(s, 2)
    keys = [(c.size, c.rep_order, c.rep.encoding()) for c in f.classes]
    assert keys == sorted(keys)
    assert f.classes[0].rep_order == 1


@pytest.mark.parametrize("groups, message", [
    ([[1, 10]], "out of range"),
    ([[1, 5], [5, 6]], "more than one merge group"),
    ([[1, 5], []], "nonempty"),
])
def test_table_fusion_rejects_bad_merge_groups(groups, message):
    from fuschar.exotic import table_3492
    from fuschar.specio import SpecError, fusion_from_spec

    data = table_3492().to_json()
    data["merge_groups"] = groups
    with pytest.raises(ValueError, match=message):
        TableFusion.from_json(data)
    with pytest.raises(SpecError, match=message):
        fusion_from_spec({"mode": "table", "table": data})


# the class data of C2 at p = 2, with the two classes kept apart
C2_TABLE = {"p": 2, "group_order": 2, "labels": ["1", "a"], "class_sizes": [1, 1],
            "centralizer_orders": [2, 2], "merge_groups": [],
            "basis_values": [[Cyclotomic.integer(v).to_json() for v in row]
                             for row in ([1, 1], [1, -1])]}


@pytest.mark.parametrize("fields, message", [
    ({"p": 4}, "not prime"),
    ({"centralizer_orders": [81, 81, -27, 27, 9, 9, 9, 27, 27, 27]}, "must be positive"),
    ({"class_sizes": [1, 2, 0, 6, 18, 18, 18, 6, 6, 6]}, "must be positive"),
    ({"basis_values": table_3492().to_json()["basis_values"][:9]}, "must be square"),
    ({"group_order": 0, "labels": [], "class_sizes": [], "centralizer_orders": [],
      "basis_values": [], "merge_groups": []}, "at least one class"),
    (dict(C2_TABLE, centralizer_orders=[2, 6]), "centralizer order 6 is not a power of p = 2"),
    (dict(C2_TABLE, p=3), "group order 2 is not a power of p = 3"),
    (dict(C2_TABLE, group_order=4, centralizer_orders=[4, 4]), "sum to the group order"),
])
def test_table_fusion_rejects_bad_class_data(fields, message):
    from fuschar.specio import SpecError, fusion_from_spec

    data = dict(table_3492().to_json(), **fields)
    with pytest.raises(ValueError, match=message):
        TableFusion.from_json(data)
    with pytest.raises(SpecError, match=message):
        fusion_from_spec({"mode": "table", "table": data})
