import hashlib
import importlib.util
import json
import pathlib
import random
import time
from array import array
from itertools import product

import pytest

import fuschar.groups
from fuschar.chartable import dixon_character_table
from fuschar.constructions import (GAMMA_VARIANTS, build_group, gamma_group, linear_parts,
                                   mat_vec, u_linear, vec_mat)
from fuschar.groups import (
    FpMat,
    Perm,
    PositionActions,
    alternating_group,
    class_fusion_map,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    enumerate_group,
    gl2_3,
    heisenberg_group,
    orbit_stabiliser,
    standard_group,
    sylow_subgroup,
    symmetric_group,
)
from fuschar.intlinalg import p_part
from fuschar.specio import fusion_from_spec, table_to_json

from oracles import orbit_by_scan, stabiliser_by_scan


def test_enumerate_cyclic_and_trivial():
    c8 = cyclic_group(8)
    assert c8.order == 8
    assert enumerate_group([]).order == 1


def test_cap_exceeded_names_cap():
    with pytest.raises(ValueError, match="cap of 5"):
        enumerate_group([Perm([1, 2, 3, 4, 5, 6, 7, 0])], max_order=5)
    with pytest.raises(ValueError, match="cap of 47"):
        enumerate_group(gl2_3().generators, max_order=47)
    assert enumerate_group(gl2_3().generators, max_order=48).order == 48


def _product_closure(generators):
    """The breadth-first closure on element objects, one element product per
    generator and element: the oracle for the closure on integer codes.
    Returns the elements in discovery order, the generator actions, and the
    parent and generator of each element, all in discovery numbers."""
    if not generators:
        ident = Perm.identity(1)
    elif isinstance(generators[0], Perm):
        ident = Perm.identity(len(generators[0].images))
    else:
        ident = FpMat.identity(generators[0].p, generators[0].dim)
    found = {ident: 0}
    found_order = [ident]
    parent, gen = [-1], [-1]
    act = [[] for _ in generators]
    start = 0
    while start < len(found_order):
        stop = len(found_order)
        for i, g in enumerate(generators):
            for d in range(start, stop):
                y = g * found_order[d]
                j = found.get(y)
                if j is None:
                    j = found[y] = len(found_order)
                    found_order.append(y)
                    parent.append(d)
                    gen.append(i)
                act[i].append(j)
        start = stop
    return found_order, act, parent, gen


def test_closure_on_codes_matches_the_product_closure():
    cases = [build_group(5, "N_b"), build_group(5, "N_gamma4star"), build_group(3, "N_gamma"),
             build_group(3, "S"), build_group(5, "S"), gl2_3(), standard_group("SL2_3"),
             heisenberg_group(5), symmetric_group(5), alternating_group(5),
             standard_group("D64"), enumerate_group([])]
    for g in cases:
        found_order, act, parent, gen = _product_closure(g.generators)
        by_pos = sorted(range(len(found_order)), key=lambda d: found_order[d].encoding())
        pos = [0] * len(by_pos)
        for x, d in enumerate(by_pos):
            pos[d] = x
        assert g.elements == [found_order[d] for d in by_pos]
        assert g.identity == found_order[0]
        assert g.actions.bfs == array("i", pos)
        assert g.actions.act == [array("i", [pos[images[d]] for d in by_pos]) for images in act]
        assert g.actions.parent == array("i", [pos[parent[d]] if d else -1 for d in by_pos])
        assert g.actions.gen == array("i", [gen[d] for d in by_pos])


def _eager_decode(g) -> list:
    """Every code decoded as the closure once did, permutations from their
    image tuples and matrices from their base-p^d column digits, sorted by
    `encoding()`: the oracle for the canonical order and `elements`."""
    if isinstance(g.identity, Perm):
        return sorted((Perm(c) for c in g.codes), key=Perm.encoding)
    p, d = g.identity.p, g.identity.dim
    decoded = []
    for c in g.codes:
        cols = [[c // (p ** d) ** j // p ** i % p for i in range(d)] for j in range(d)]
        decoded.append(FpMat(p, d, [v for row in zip(*cols) for v in row]))
    return sorted(decoded, key=FpMat.encoding)


def test_code_keyed_groups_decode_like_the_eager_closure():
    cases = [build_group(5, "N_gamma4star"), build_group(5, "N_b"), build_group(3, "S"),
             build_group(5, "S"), gl2_3(), standard_group("SL2_3"), standard_group("ES5"),
             symmetric_group(5), alternating_group(5), standard_group("D64"), cyclic_group(61),
             enumerate_group([])]
    for g in cases:
        elements = _eager_decode(g)
        assert g.elements == elements
        assert [g.element(x) for x in range(g.order)] == elements
        assert g.identity == elements[g.actions.bfs[0]] and g.identity.is_identity()
        for x, e in enumerate(elements):
            assert e in g and e in g.index and g.index[e] == x
        members = set(elements)
        if isinstance(g.identity, Perm):
            n = len(g.identity.images)
            foreign = [Perm.identity(n + 1), Perm(range(1, n + 1)), FpMat.identity(5, n)]
        else:
            p, d = g.identity.p, g.identity.dim
            foreign = [FpMat.identity(7 if p == 5 else 5, d), FpMat.identity(p, d + 1),
                       FpMat(p, d, [0] * (d * d)), Perm.identity(d)]
        foreign += [0, 1, None]
        for x in foreign:
            assert x not in g and x not in g.index
            with pytest.raises(KeyError):
                g.index[x]
        # the generators of every other group, members or not
        for other in cases:
            for x in other.generators:
                assert (x in g) == (x in members) == (x in g.index)
                if x in members:
                    assert g.index[x] == elements.index(x)
                else:
                    with pytest.raises(KeyError):
                        g.index[x]


def test_subgroup_membership_reads_codes_of_the_same_kind():
    n, s = build_group(5, "N_b"), build_group(5, "S")
    assert s.is_subgroup_of(n) and not n.is_subgroup_of(s)
    trivial = enumerate_group([])
    assert trivial.is_subgroup_of(cyclic_group(1))
    assert not trivial.is_subgroup_of(gl2_3()) and not gl2_3().is_subgroup_of(trivial)
    # the trivial groups of GL_1(3) and GL_1(5) share their code, not their element
    one_3 = enumerate_group([FpMat.identity(3, 1)])
    one_5 = enumerate_group([FpMat.identity(5, 1)])
    assert one_3.codes == one_5.codes
    assert not one_3.is_subgroup_of(one_5) and not one_5.is_subgroup_of(one_3)


def _count_fpmat(monkeypatch) -> list:
    count = [0]
    init = FpMat.__init__

    def counted(self, *args):
        count[0] += 1
        init(self, *args)
    monkeypatch.setattr(FpMat, "__init__", counted)
    return count


def test_overgroup_classes_decode_only_their_representatives(monkeypatch):
    count = _count_fpmat(monkeypatch)
    # a fresh group, past the builder's cache
    g = build_group.__wrapped__(5, "N_gamma4star")
    cc = conjugacy_classes(g)
    # its generators, designated elements and 26 class representatives,
    # against 15,000 elements
    assert g.order == 15000 and len(cc.classes) == 26
    assert count[0] <= 200


def test_a_merge_spec_decodes_fewer_elements_than_the_group_has(monkeypatch):
    spec_path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "specgen.py"
    loader = importlib.util.spec_from_file_location("perfbench_specgen", spec_path)
    specgen = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(specgen)
    spec = dict(specgen.merge_specs(1, 2))["S4_5#0"]
    count = _count_fpmat(monkeypatch)
    fusion = fusion_from_spec(spec)
    # 730 when the closure decoded every element; decoding all 625 at any
    # later step would show here too
    assert fusion.S.order == 625 and len(spec["merges"]) >= 1
    assert count[0] < 625


def test_column_tables_fill_lazily():
    # 13^6 > 10^6 possible columns; a table of that size per generator and
    # column would take far longer than the closure of S6
    def perm_matrix(images):
        return FpMat(13, 6, [1 if images[j] == i else 0 for i in range(6) for j in range(6)])
    gens = [perm_matrix([1, 2, 3, 4, 5, 0]), perm_matrix([1, 0, 2, 3, 4, 5])]
    start = time.perf_counter()
    g = enumerate_group(gens)
    assert time.perf_counter() - start < 0.5
    assert g.order == 720
    assert all(x.p == 13 and x.dim == 6 for x in g.elements)


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
    s = enumerate_group(n.generators[:4], max_order=n.order)
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


def test_exponent_is_the_lcm_of_class_orders():
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


def _powers_along_word(actions, h: int) -> list[int]:
    """Positions of elements[h] ** r for r below its order, each power formed
    by left multiplication along h's word in the generators, as conjugacy_classes
    forms those of a class above CENTRALIZER_CHECK_LIMIT; the tests check it
    against element products."""
    word = actions.word(h)
    out = [actions.bfs[0]]
    x = h
    for _ in actions.bfs:
        if x == out[0]:
            return out
        out.append(x)
        for images in word:
            x = images[x]
    raise AssertionError("the powers of an element never return to the identity")


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
            powers = [idx[g.identity]]
            while els[powers[-1]] * y != g.identity:
                powers.append(idx[els[powers[-1]] * y])
            assert _powers_along_word(actions, h) == powers
        undo = actions.right_by_inverses()
        assert actions.conjugations(undo) == actions.conjugations()
        conj = actions.conjugations()
        for i, gen in enumerate(g.generators):
            gen_inv = gen.inverse()
            assert undo[i].tolist() == [idx[x * gen_inv] for x in els]
            assert conj[i].tolist() == [idx[gen * x * gen_inv] for x in els]
        inverses = actions.along_tree(actions.bfs[0], undo)
        assert inverses.tolist() == [idx[x.inverse()] for x in els]


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


def _check_power_maps(groups):
    for g in groups:
        cc = conjugacy_classes(g)
        assert len(cc.powers) == len(cc.classes)
        for c, powers in zip(cc.classes, cc.powers):
            assert len(powers) == c.rep_order
            assert (c.rep ** c.rep_order).is_identity()
            assert powers == tuple(cc.class_index_of(g, c.rep ** r) for r in range(c.rep_order))
            word_powers = _powers_along_word(g.actions, g.index[c.rep])
            assert powers == tuple(cc.class_of[x] for x in word_powers)


def test_class_power_map_agrees_with_element_powers():
    _check_power_maps((enumerate_group([]), symmetric_group(4), gl2_3(), heisenberg_group(5),
                       standard_group("D16"), build_group(5, "N_gamma4star")))


def test_class_power_map_of_unchecked_classes(monkeypatch):
    # no class gets the direct centralizer count, so no power map reads right(rep)
    monkeypatch.setattr(fuschar.groups, "CENTRALIZER_CHECK_LIMIT", 0)
    _check_power_maps((enumerate_group([]), symmetric_group(4), gl2_3(), heisenberg_group(5),
                       standard_group("D16"), alternating_group(8)))


def test_only_centralizer_checks_walk_the_whole_group(monkeypatch):
    walks = [0]
    along_tree = PositionActions.along_tree

    def counted(self, start, maps):
        walks[0] += 1
        return along_tree(self, start, maps)

    monkeypatch.setattr(PositionActions, "along_tree", counted)
    # fresh groups, so their classes are computed here; A8 has 10 classes above
    # the default limit, S5 two above 20
    for g, limit in ((alternating_group(8), fuschar.groups.CENTRALIZER_CHECK_LIMIT),
                     (symmetric_group(5), 20)):
        monkeypatch.setattr(fuschar.groups, "CENTRALIZER_CHECK_LIMIT", limit)
        walks[0] = 0
        cc = conjugacy_classes(g)
        checked = sum(c.size <= limit for c in cc.classes)
        assert checked < len(cc.classes)
        # fixed per group: right multiplication by each generator's inverse, and
        # the inverse map; then one walk for each class counted directly
        assert walks[0] == len(g.generators) + 1 + checked


def _table_sha256(g) -> str:
    data = json.dumps(table_to_json(dixon_character_table(g)), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()


def test_character_tables_are_pinned():
    # digests of the tables computed with element products for the power maps
    pinned = {
        "S5": "353388f4bd0db35ae67a25dca3e2bc2e6c0674f5f108a77fb20d95c76f50c188",
        "A5": "31460fb555e1b7846e7a4c7ae036789021e1528704bd6042e5baf3e372a278ac",
        "GL2_3": "68326082f8113126d95cdc9be0b39d931e1d6e58d67b3ca6a122eb398c34dffe",
        "SL2_3": "ebac8494422ed856764d6a0a024a4c3c2ca6e1c883a4b8479227782b6cb6a2be",
        "D64": "37d3a04dec85ed041ea5f2de310cb1645c5f506ac444d7d23aca5f1d873674f6",
        "C64": "63adf2a5967fb3433db0b2372e3d872dcf7a66fe506265a0909d7783574f5897",
        (3, "S"): "7191e582cdeb000c10686cdcddd0ab2cdf4d3c7b338414bb734e374e0a0c2ce4",
        (5, "S"): "29869f2b89b37d85ecec23948bc30bb2776954baca541c836d8f2251e0591875",
        "ES5": "e7c4bf86e70639cb4e0eaca9a00e71cce059b6113991ddd659123a841db2ac78",
        "ES7": "4288da431f12e884ca1bafb7facf5bf1825204b6c575873066971d963c7ea5c7",
        (5, "N_b"): "38a2cad2bbc22dc8fc8e3aaaddee85d191613c3aafac9c7299d5199b1de7f5a8",
        (5, "N_gamma4star"): "0bfd83bccb96633c42991f06d1c5bf37dd561e93b0577efd325bc59459433df9",
    }
    for key, digest in pinned.items():
        g = build_group(*key) if isinstance(key, tuple) else standard_group(key)
        assert _table_sha256(g) == digest, key


def test_a_corrupted_generator_action_is_rejected():
    g = symmetric_group(4)
    images = g.actions.act[1]
    images[7] = (images[7] + 1) % g.order
    with pytest.raises(AssertionError, match="not a permutation"):
        conjugacy_classes(g)
    assert g._classes is None


def test_the_direct_centralizer_count_catches_a_missing_conjugation(monkeypatch):
    # orbits under all but one generator split classes, so orbit-stabilizer
    # centralizer orders go wrong and only the direct count can notice
    conjugations = PositionActions.conjugations
    monkeypatch.setattr(PositionActions, "conjugations",
                        lambda self, *args: conjugations(self, *args)[:-1])
    for g in (symmetric_group(4), gl2_3(), standard_group("D16")):
        with pytest.raises(AssertionError, match="failed direct count"):
            conjugacy_classes(g)
        assert g._classes is None


# -- orbit_stabiliser on the actions of the p^4 family ---------------------------


def _check_every_orbit(G, points, act):
    """orbit_stabiliser from the first point of each orbit, against the scans
    of every element of G."""
    seen = set()
    for point in points:
        if point in seen:
            continue
        transversal, stab = orbit_stabiliser(G, point, act)
        assert set(transversal) == orbit_by_scan(G, point, act)
        assert all(t in G and act(point, t) == b for b, t in transversal.items())
        assert len(transversal) * stab.order == G.order
        assert stab.is_subgroup_of(G)
        assert set(stab.elements) == set(stabiliser_by_scan(G, point, act))
        seen.update(transversal)


def _conjugate_set(us, x):  # the right action x -> x^-1 . x on sets of elements
    x_inv = x.inverse()
    return frozenset(x_inv * g * x for g in us)


@pytest.mark.parametrize("p, which", [
    (p, which) for p in (3, 5, 7) for which in ("N_b", "N_gamma", "N_gamma2", "N_gamma4star")
    if which != "N_gamma4star" or p % 4 == 1])
def test_orbit_stabiliser_of_h_on_irr_v_and_on_u(p, which):
    """H on the characters of V (a -> a h, as in the Clifford rows) and on
    U - {1} by conjugation (N_H(U), as in the fusion)."""
    h = linear_parts(p, which)
    _check_every_orbit(h, product(range(p), repeat=3), vec_mat)
    _check_every_orbit(h, [frozenset(u_linear(p) ** k for k in range(1, p))], _conjugate_set)


@pytest.mark.parametrize("p, variant", [
    (p, variant) for p in (3, 5, 7) for variant in GAMMA_VARIANTS
    if variant != "gamma4star" or p % 4 == 1])
def test_orbit_stabiliser_of_gamma_on_v(p, variant):
    # Gamma acts on V from the left, so v -> g^-1 v is the right action
    _check_every_orbit(gamma_group(p, variant), product(range(p), repeat=3),
                       lambda v, g: mat_vec(g.inverse(), v))


def test_orbit_stabiliser_of_a_permutation_group():
    # (a * b)(x) = a(b(x)), so x -> g^-1(x) is the right action on points
    _check_every_orbit(symmetric_group(4), range(4), lambda x, g: g.inverse().images[x])
    _check_every_orbit(dihedral_group(12), range(6), lambda x, g: g.inverse().images[x])


def test_orbit_stabiliser_refuses_a_map_that_is_not_a_right_action():
    """v -> g v is a left action of the non-abelian Gamma: the routine's own
    transversal check names it, before any closure could reach a cap."""
    gam = gamma_group(5, "gamma")
    with pytest.raises(AssertionError, match="orbit-stabiliser transversal"):
        orbit_stabiliser(gam, (0, 1, 0), lambda v, g: mat_vec(g, v))
