import random
from dataclasses import replace
from itertools import product

import pytest

from fuschar.chartable import (
    ClassFunction,
    _validate_table,
    _nullspace_mod,
    _solve_coords,
    dixon_character_table,
    induce_class_function,
    inner_product,
    regular_character,
    restrict_table,
    trivial_character,
)
from fuschar.constructions import build_group, sylow_inside
from fuschar.cyclotomic import Cyclotomic
from fuschar.groups import (
    conjugacy_classes,
    cyclic_group,
    enumerate_group,
    standard_group,
    symmetric_group,
)


def test_validate_table_rejects_a_norm_two_character():
    tab = dixon_character_table(symmetric_group(3))
    _validate_table(tab)
    t3 = next(t for t, c in enumerate(tab.classes.classes) if c.rep_order == 3)
    chars = []
    for chi in tab.chars:
        if chi.degree_int() == 2:
            vals = list(chi.values)
            vals[t3] = Cyclotomic.integer(2)  # degrees still square-sum to 6
            chi = ClassFunction(tuple(vals))
        chars.append(chi)
    with pytest.raises(AssertionError, match="not irreducible"):
        _validate_table(replace(tab, chars=chars))


def test_c2_table():
    tab = dixon_character_table(cyclic_group(2))
    values = sorted(tuple(v.rational_value() for v in chi.values) for chi in tab.chars)
    assert values == [(1, -1), (1, 1)]


def test_s3_table_via_orthogonality_oracle():
    tab = dixon_character_table(symmetric_group(3))
    assert sorted(tab.degrees()) == [1, 1, 2]
    assert sum(d * d for d in tab.degrees()) == 6
    for i, chi in enumerate(tab.chars):
        for j, psi in enumerate(tab.chars):
            ip = inner_product(chi, psi, tab.classes, 6)
            assert ip == (1 if i == j else 0)


def commutator_subgroup(g):
    comms = []
    for a in g.elements:
        for b in g.elements:
            comms.append(a.inverse() * b.inverse() * a * b)
    return enumerate_group(list(set(comms)), max_order=g.order)


def test_p4_group_degree_multiset():
    s = build_group(3, "S")
    derived = commutator_subgroup(s)
    assert s.order // derived.order == 9  # p^2 linear characters
    tab = dixon_character_table(s)
    degrees = tab.degrees()
    assert degrees.count(1) == 9
    assert degrees.count(3) == 8
    assert sum(d * d for d in degrees) == 81


def test_column_orthogonality():
    # sum over chi of conj(chi(s)) chi(t) = delta_{st} |C(s)|
    for name in ("S4", "D16", "SL2_3"):
        g = standard_group(name)
        tab = dixon_character_table(g)
        k = tab.k
        for s in range(k):
            for t in range(k):
                acc = Cyclotomic.zero()
                for chi in tab.chars:
                    acc = acc + chi.values[s].conjugate() * chi.values[t]
                want = tab.classes.classes[s].centralizer_order if s == t else 0
                assert acc == want


def test_restriction_basics():
    g = symmetric_group(4)
    s = standard_group("C4")
    syl = None
    # use the cyclic subgroup generated by a 4-cycle inside S4
    four_cycle = next(x for x in g.elements if g.element_order(x) == 4)
    syl = enumerate_group([four_cycle], max_order=24)
    tab_g = dixon_character_table(g)
    restricted, fusion = restrict_table(tab_g, syl)
    triv = next(chi for chi in restricted if all(v == 1 for v in chi.values))
    assert triv is not None
    # restrictions are constant on fused classes by construction
    sc = conjugacy_classes(syl)
    for chi, chi_s in zip(tab_g.chars, restricted):
        for idx, cls in enumerate(sc.classes):
            assert chi_s.values[idx] == chi.values[fusion[idx]]


def test_induce_trivial_from_trivial_subgroup_gives_regular():
    g = symmetric_group(3)
    triv_sub = enumerate_group([], max_order=1)
    # the trivial subgroup embeds via the identity permutation degree mismatch;
    # use the subgroup generated by the identity element of g instead
    triv_sub = enumerate_group([g.identity], max_order=6)
    theta = trivial_character(conjugacy_classes(triv_sub))
    induced = induce_class_function(theta, triv_sub, g)
    reg = regular_character(conjugacy_classes(g), g.order)
    assert induced.values == reg.values


def test_inner_products_with_regular_character():
    g = standard_group("SL2_3")
    tab = dixon_character_table(g)
    reg = regular_character(tab.classes, g.order)
    for chi in tab.chars:
        assert inner_product(reg, chi, tab.classes, g.order) == chi.degree_int()
        assert inner_product(chi, chi, tab.classes, g.order) == 1


def test_induced_values_from_s_to_overgroup():
    # linear characters of S nontrivial on u induce with value -1 at u;
    # degree-p characters with nontrivial central value induce with -p at z
    p = 3
    n = build_group(p, "N_b")
    s = sylow_inside(p, "N_b")
    tab_s = dixon_character_table(s)
    sc = tab_s.classes
    u = s.designated["u"]
    z = s.designated["z"]
    u_idx = sc.class_index_of(s, u)
    z_idx = sc.class_index_of(s, z)
    nc = conjugacy_classes(n)
    nu = nc.class_index_of(n, u)
    nz = nc.class_index_of(n, z)
    lin = next(chi for chi in tab_s.chars
               if chi.degree_int() == 1 and chi.values[u_idx] != 1)
    ind = induce_class_function(lin, s, n)
    assert ind.values[nu] == -1
    assert ind.values[nz] == p - 1
    degp = next(chi for chi in tab_s.chars
                if chi.degree_int() == p and chi.values[z_idx] != p)
    ind2 = induce_class_function(degp, s, n)
    assert ind2.values[nz] == -p


def test_frobenius_reciprocity_random_pairs():
    rng = random.Random(20240801)
    for name in ("S4", "D12", "SL2_3"):
        g = standard_group(name)
        tab_g = dixon_character_table(g)
        for _ in range(3):
            h_gens = [g.elements[rng.randrange(g.order)] for _ in range(2)]
            h = enumerate_group(h_gens, max_order=g.order)
            tab_h = dixon_character_table(h)
            theta = tab_h.chars[rng.randrange(len(tab_h.chars))]
            induced = induce_class_function(theta, h, g)
            restricted, _ = restrict_table(tab_g, h)
            for chi, chi_h in zip(tab_g.chars, restricted):
                lhs = inner_product(induced, chi, tab_g.classes, g.order)
                rhs = inner_product(theta, chi_h, tab_h.classes, h.order)
                assert lhs == rhs


def span_size_mod(rows, l):
    """Oracle: the number of distinct F_l-combinations of the rows."""
    n = len(rows[0])
    return len({tuple(sum(c * row[j] for c, row in zip(cs, rows)) % l for j in range(n))
                for cs in product(range(l), repeat=len(rows))})


def test_nullspace_mod_is_killed_and_has_dimension_n_minus_rank():
    rng = random.Random(10)
    for _ in range(40):
        l = rng.choice([2, 3, 5, 7])
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        rows = [[rng.randrange(-l, 2 * l) for _ in range(n)] for _ in range(m)]
        size = span_size_mod(rows, l)
        rank = next(r for r in range(m + 1) if l ** r == size)
        null = _nullspace_mod(rows, l)
        assert len(null) == n - rank
        for vec in null:
            assert all(sum(a * x for a, x in zip(row, vec)) % l == 0 for row in rows)
        if null:
            assert span_size_mod(null, l) == l ** len(null)  # independent


def test_solve_coords_rejects_an_image_outside_the_subspace():
    w = [[1, 0, 0], [0, 1, 0]]
    assert _solve_coords(w, [[2, 3, 0], [0, 0, 0]], 5) == [[2, 3], [0, 0]]
    with pytest.raises(AssertionError, match="left the invariant subspace"):
        _solve_coords(w, [[0, 0, 1]], 5)
    with pytest.raises(AssertionError, match="degenerate"):
        _solve_coords([[1, 2], [2, 4]], [[1, 2]], 5)


def test_cyclic_table_builds_each_root_of_unity_once(monkeypatch):
    calls = []
    original = Cyclotomic.root_of_unity.__func__

    def counted(cls, e, k=1):
        calls.append((e, k))
        return original(cls, e, k)

    monkeypatch.setattr(Cyclotomic, "root_of_unity", classmethod(counted))
    table = dixon_character_table(cyclic_group(64))
    assert table.k == 64
    assert len(calls) <= 64
