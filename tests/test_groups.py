import hashlib
import json
import random
from itertools import product

import pytest

from fuschar.constructions import build_group
from fuschar.groups import (
    FpMat,
    Perm,
    alternating_group,
    class_fusion_map,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    enumerate_group,
    gl2_3,
    heisenberg_group,
    standard_group,
    subgroup,
    sylow_subgroup,
    symmetric_group,
)
from fuschar.intlinalg import p_part


def test_enumerate_cyclic_and_trivial():
    c8 = cyclic_group(8)
    assert c8.order == 8
    assert enumerate_group([]).order == 1


def test_cap_exceeded_names_cap():
    with pytest.raises(ValueError, match="cap of 5"):
        enumerate_group([Perm([1, 2, 3, 4, 5, 6, 7, 0])], max_order=5)


def test_construction_group_order():
    assert build_group(3, "S").order == 81


def test_s3_classes():
    cc = conjugacy_classes(symmetric_group(3))
    assert sorted(c.size for c in cc.classes) == [1, 2, 3]
    for c in cc.classes:
        assert c.size * c.centralizer_order == 6


def test_c8_classes_abelian():
    cc = conjugacy_classes(cyclic_group(8))
    assert len(cc.classes) == 8
    assert all(c.size == 1 and c.centralizer_order == 8 for c in cc.classes)


def test_class_partition_invariants():
    for name in ("S4", "A5", "SL2_3", "D16"):
        g = standard_group(name)
        cc = conjugacy_classes(g)
        assert sum(c.size for c in cc.classes) == g.order
        for c in cc.classes:
            assert g.order % c.size == 0
            assert c.size * c.centralizer_order == g.order
        # representative is the canonically smallest member
        for c in cc.classes:
            members = [g.elements[i] for i in c.member_indices]
            assert min(members, key=lambda e: e.encoding()) == c.rep


def test_order_162_overgroup_has_ten_classes_meeting_s():
    n = build_group(3, "N_b")
    assert n.order == 162
    s = subgroup(n, [g for g in n.generators[:4]])
    assert s.order == 81
    nc = conjugacy_classes(n)
    meeting = {nc.class_index_of(n, x) for x in s.elements}
    assert len(meeting) == 10


def test_sylow_subgroups():
    assert sylow_subgroup(symmetric_group(4), 2).order == 8
    assert sylow_subgroup(symmetric_group(4), 3).order == 3
    # abelian group: the set of p-elements
    c12 = cyclic_group(12)
    s = sylow_subgroup(c12, 2)
    assert s.order == 4 and all(x in c12.index for x in s.elements)
    assert sylow_subgroup(cyclic_group(5), 3).order == 1


def test_a_p_group_is_its_own_sylow_subgroup():
    for g, p in ((cyclic_group(8), 2), (standard_group("D16"), 2),
                 (standard_group("ES3"), 3), (cyclic_group(1), 5)):
        assert sylow_subgroup(g, p) is g


def test_sylow_of_gamma_overgroup_contains_v():
    n = build_group(3, "N_gamma")
    s = sylow_subgroup(n, 3)
    assert s.order == p_part(n.order, 3) == 81
    from fuschar.constructions import translation

    for vec in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert translation(3, vec) in s.index


def test_class_fusion_identity():
    g = symmetric_group(4)
    fusion = class_fusion_map(g, g)
    assert fusion == list(range(len(conjugacy_classes(g).classes)))


def test_class_fusion_dihedral_sylow_in_s4():
    s4 = symmetric_group(4)
    syl = sylow_subgroup(s4, 2)
    fusion = class_fusion_map(s4, syl)
    sc = conjugacy_classes(syl)
    gc = conjugacy_classes(s4)

    def brute_conjugate(a, b):
        return any(g * a * g.inverse() == b for g in s4.elements)

    # fusion agrees with brute-force conjugacy on every pair of S-classes
    for i, ci in enumerate(sc.classes):
        for j, cj in enumerate(sc.classes):
            same = fusion[i] == fusion[j]
            assert same == brute_conjugate(ci.rep, cj.rep)
    # the fused partition refines into full S-classes
    assert set(fusion) == {gc.class_index_of(s4, c.rep) for c in sc.classes}


def test_class_fusion_requires_containment():
    with pytest.raises(ValueError):
        class_fusion_map(symmetric_group(4), symmetric_group(5))


def test_exponent_and_element_order():
    a4 = alternating_group(4)
    assert a4.order == 12
    assert a4.exponent() == 6
    d = dihedral_group(10)
    assert d.exponent() == 10


def test_fpmat_inverse_and_singular_matrices():
    rng = random.Random(11)
    seen_singular = seen_invertible = 0
    for _ in range(80):
        p, d = rng.choice([2, 3, 5, 7]), rng.randint(1, 4)
        m = FpMat(p, d, [rng.randrange(p) for _ in range(d * d)])
        rows = m.rows()
        # the rows are dependent iff some nonzero combination vanishes
        singular = any(
            any(c) and all(sum(ci * r[j] for ci, r in zip(c, rows)) % p == 0 for j in range(d))
            for c in product(range(p), repeat=d))
        if singular:
            seen_singular += 1
            with pytest.raises(ValueError, match="not invertible"):
                m.inverse()
            with pytest.raises(ValueError):
                m.validate()
        else:
            seen_invertible += 1
            inv = m.inverse()
            assert (inv * m).is_identity() and (m * inv).is_identity()
    assert seen_singular and seen_invertible


def test_position_actions_agree_with_element_products():
    for g in (enumerate_group([]), symmetric_group(4), gl2_3(), heisenberg_group(5),
              standard_group("D16")):
        els, idx, actions = g.elements, g.index, g.actions
        everything = range(g.order)
        for i, gen in enumerate(g.generators):
            assert actions.act[i].tolist() == [idx[gen * x] for x in els]
        for h, y in enumerate(els):
            assert actions.right(h).tolist() == [idx[x * y] for x in els]
            assert actions.left(h, everything).tolist() == [idx[y * x] for x in els]
        conj = actions.conjugations()
        for i, gen in enumerate(g.generators):
            gen_inv = gen.inverse()
            assert conj[i].tolist() == [idx[gen * x * gen_inv] for x in els]


def _classes_sha256(g) -> str:
    cc = conjugacy_classes(g)
    data = [[list(c.rep.encoding()) for c in cc.classes],
            [c.size for c in cc.classes],
            [c.centralizer_order for c in cc.classes],
            list(cc.class_of)]
    return hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()


def test_class_data_of_the_overgroups_is_pinned():
    # digests of the classes computed with whole-group element products
    pinned = {
        (5, "N_b"): "9adb679ecd31022679a7b55f95db6f8ba730312166d7f8d9a056c8c24559510e",
        (5, "N_gamma4star"): "519a42cf85af2a71cce7a0fb8157e298a3b47704988473c264b12fde1f71df58",
        (3, "S"): "53fe6b6cae0b733142b1c948fad0fcf6271e3a052b96b2fb92ee8168641320fc",
    }
    for (p, which), digest in pinned.items():
        assert _classes_sha256(build_group(p, which)) == digest, (p, which)


def test_a_corrupted_generator_action_is_rejected():
    g = symmetric_group(4)
    images = g.actions.act[1]
    images[7] = (images[7] + 1) % g.order
    with pytest.raises(AssertionError, match="not a permutation"):
        conjugacy_classes(g)
    assert g._classes is None
