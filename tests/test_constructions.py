import pytest

from fuschar.constructions import (
    ConstructionParams,
    build_group,
    count_n_v_psi,
    gamma_group,
    gamma_orbit_analysis,
    gamma_stabilizer_of_character,
    induced_value_formula,
    pgl2_cosets,
    sylow_inside,
    table3_expected,
)
from fuschar.groups import conjugacy_classes

from oracles import induced_value_direct, orbit_containing


def test_params_selection():
    p3 = ConstructionParams.for_prime(3)
    assert (p3.epsilon, p3.lam, p3.b) == (1, 2, 2)
    p5 = ConstructionParams.for_prime(5)
    assert (p5.epsilon, p5.lam) == (2, 2)
    p7 = ConstructionParams.for_prime(7)
    assert p7.epsilon == 1 and p7.lam == 3
    with pytest.raises(ValueError):
        ConstructionParams.for_prime(4)
    with pytest.raises(ValueError):
        ConstructionParams.for_prime(2)


def test_group_orders():
    for p in (3, 5):
        s = build_group(p, "S")
        assert s.order == p ** 4
        n_b = build_group(p, "N_b")
        assert n_b.order == p ** 4 * (p - 1)
        gam = gamma_group(p, "gamma")
        assert gam.order == (p - 1) * p * (p * p - 1)
    assert build_group(3, "N_gamma").order == 27 * 48
    assert gamma_group(3, "gamma2").order == 24
    assert gamma_group(5, "gamma4star").order == 120
    with pytest.raises(ValueError):
        build_group(3, "Y_H")
    with pytest.raises(ValueError):
        gamma_group(3, "gamma4star")  # needs p = 1 (mod 4)


def test_center_and_u_centralizer():
    for p in (3, 5):
        s = build_group(p, "S")
        z = s.designated["z"]
        central = [x for x in s.elements if all(x * y == y * x for y in s.generators)]
        assert len(central) == p
        assert z in central
        cc = conjugacy_classes(s)
        u_cls = cc.classes[cc.class_index_of(s, s.designated["u"])]
        assert u_cls.centralizer_order == p * p


def test_v_is_normal_in_overgroups():
    for which in ("N_b", "N_gamma"):
        n = build_group(3, which)
        v_elems = {x for x in n.elements
                   if x.rows()[0][:3] == [1, 0, 0] and x.rows()[1][:3] == [0, 1, 0]
                   and x.rows()[2][:3] == [0, 0, 1]}
        assert len(v_elems) == 27
        for g in n.generators:
            ginv = g.inverse()
            assert all(g * v * ginv in v_elems for v in v_elems)


def test_sylow_inside_is_contained():
    s = sylow_inside(3)
    n = build_group(3, "N_gamma")
    assert s.order == 81 and s.is_subgroup_of(n)


ORBIT_EXPECTATIONS = {
    ("gamma", 3): [(6, 8, False), (8, 6, False), (12, 4, True)],
    ("gamma", 5): [(24, 20, False), (40, 12, False), (60, 8, False)],
    ("gamma2", 3): [(6, 4, True), (8, 3, True), (12, 2, True)],
    ("gamma4star", 5): [(20, 6, False), (20, 6, False), (24, 5, True),
                        (30, 4, True), (30, 4, True)],
}


def test_orbit_analyses_small():
    for (variant, p), want in ORBIT_EXPECTATIONS.items():
        got = [(o.size, o.stabilizer_order, o.stabilizer_abelian)
               for o in gamma_orbit_analysis(p, variant)]
        assert got == want
        assert sum(size for size, _, _ in got) == p ** 3 - 1


def test_orbit_reps_listed_in_lemma():
    p = 5
    params = ConstructionParams.for_prime(p)
    gam = gamma_group(p, "gamma")
    orbits = gamma_orbit_analysis(p, "gamma")
    squares = orbit_containing(orbits, gam, (1, 0, 0))
    assert squares.size == p * p - 1
    separable = orbit_containing(orbits, gam, (0, 1, 0))
    assert separable.size == p * (p * p - 1) // 2
    irreducible = orbit_containing(orbits, gam, (1, 0, params.epsilon))
    assert irreducible.size == p * (p - 1) ** 2 // 2


def test_pgl2_coset_count():
    for p in (3, 5):
        assert sum(1 for _ in pgl2_cosets(p)) == p ** 3 - p


def test_table3_counts():
    for p in (3, 5):
        expected = table3_expected(p)
        for key, want in expected.items():
            got = count_n_v_psi(p, *key)
            assert got == want, (p, key)
            assert 0 <= got <= p ** 3 - p


def test_character_stabilizer_orders():
    for p in (3, 5):
        assert gamma_stabilizer_of_character(p, "psi100").order == p * (p - 1)
        assert gamma_stabilizer_of_character(p, "psi010").order == 2 * (p - 1)
        assert gamma_stabilizer_of_character(p, "psi10e").order == 2 * (p + 1)


def test_induced_value_formula_vs_direct_p3():
    p = 3
    stabs = {"psi100": p * (p - 1), "psi010": 2 * (p - 1), "psi10e": 2 * (p + 1)}
    for v in ("v1", "v2", "v1+e*v3"):
        for psi, stab in stabs.items():
            formula = induced_value_formula(p, psi, 1, stab, v)
            direct = induced_value_direct(p, psi, 1, v)
            assert direct == formula


def test_induced_value_table2_entries():
    # chi(psi100)(v1) = -1, chi(psi10e)(v1+eps v3) = p, chi(psi010)(v2) = -p
    for p in (3, 5):
        assert induced_value_formula(p, "psi100", 1, p * (p - 1), "v1") == -1
        assert induced_value_formula(p, "psi10e", 1, 2 * (p + 1), "v1+e*v3") == p
        assert induced_value_formula(p, "psi010", 1, 2 * (p - 1), "v2") == -p


def test_table2_includes_regular_decomposition():
    from fuschar.reftables import reproduce_table2

    rep = reproduce_table2(3)
    assert rep.ok, rep.discrepancies
    assert {"item": "regular_character_identity"} in rep.matches
