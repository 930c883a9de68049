import random
from math import gcd

import pytest

import fuschar.intlinalg
import fuschar.stable
from fuschar.chartable import ClassFunction, dixon_character_table, restrict_table
from fuschar.constructions import build_group
from fuschar.cyclotomic import Cyclotomic
from fuschar.fusion import apply_merges, fusion_from_group, fusion_of_self
from fuschar.exotic import overgroup_context
from fuschar.groups import (
    FpMat,
    Perm,
    cyclic_group,
    enumerate_group,
    standard_group,
    sylow_subgroup,
)
from fuschar.intlinalg import hnf, lattice_index, transpose
from fuschar.stable import (
    _pivot_columns,
    decomposition_matrix,
    genuine_stable_characters,
    indecomposables_bounded,
    irr_coordinates,
    refine_stable_lattice,
    restriction_coordinates,
    stable_character_basis,
)
from fuschar.verify import builtin_corpus

from oracles import full_merge, irr_coordinates_by_inner_products, kernel_rows_by_xgcd


def test_self_fusion_gives_identity_basis():
    s = cyclic_group(8)
    tab = dixon_character_table(s)
    lattice = stable_character_basis(tab, fusion_of_self(s, 2))
    n = tab.k
    assert lattice.basis == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_a_table_of_another_group_disagrees_on_s():
    c4 = cyclic_group(4)
    klein = enumerate_group([Perm([1, 0, 3, 2]), Perm([2, 3, 0, 1])])
    assert klein.order == c4.order and klein.identity == c4.identity
    # trivial groups over F_3 and F_5 share their one code
    one_3 = enumerate_group([FpMat.identity(3, 1)])
    one_5 = enumerate_group([FpMat.identity(5, 1)])
    pairs = ((c4, klein, 2), (klein, c4, 2), (cyclic_group(27), standard_group("ES3"), 3),
             (one_5, one_3, 5))
    for s, other, p in pairs:
        with pytest.raises(ValueError, match="disagree on S"):
            stable_character_basis(dixon_character_table(other), fusion_of_self(s, p))
    # the same group built twice agrees with itself
    again = cyclic_group(4)
    lattice = stable_character_basis(dixon_character_table(again), fusion_of_self(c4, 2))
    assert lattice.rank == 4


def c8_merged_lattice():
    c8 = cyclic_group(8)
    a = c8.designated["a"]
    tab = dixon_character_table(c8)
    merged = apply_merges(fusion_of_self(c8, 2),
                          [(a * a, a * a * a * a * a * a)])
    return c8, a, tab, stable_character_basis(tab, merged)


def test_c8_lattice_span_matches_listed_basis():
    c8, a, tab, lattice = c8_merged_lattice()
    assert lattice.rank == 7
    # identify chi_j by its value at the generator class: chi_j(a) = zeta_8^j
    sc = tab.classes
    a_idx = sc.class_index_of(c8, a)
    from fuschar.cyclotomic import Cyclotomic

    position = {}
    for col, chi in enumerate(tab.chars):
        val = chi.values[a_idx]
        j = next(k for k in range(8) if val == Cyclotomic.root_of_unity(8, k))
        position[j] = col

    def vec(*js):
        out = [0] * 8
        for j in js:
            out[position[j]] += 1
        return out

    listed = [vec(0), vec(2), vec(4), vec(6), vec(1, 3), vec(3, 5), vec(5, 7)]
    assert lattice_index(lattice.basis, listed) == 1


def test_transitive_lattice_is_trivial_plus_regular():
    es = standard_group("ES7")
    tab = dixon_character_table(es)
    lattice = stable_character_basis(tab, full_merge(fusion_of_self(es, 7)))
    assert lattice.rank == 2
    triv = [0] * tab.k
    triv[tab.chars.index(next(c for c in tab.chars
                              if all(v == 1 for v in c.values)))] = 1
    reg_minus = [d for d in tab.degrees()]
    reg_minus[triv.index(1)] -= 1
    assert lattice_index(lattice.basis, [triv, reg_minus]) == 1


def test_decomposition_identity_when_g_is_s():
    s = standard_group("D16")
    tab = dixon_character_table(s)
    lattice = stable_character_basis(tab, fusion_of_self(s, 2))
    dec = decomposition_matrix(tab, s, lattice)
    assert sorted(dec.d_matrix) == sorted(
        [[1 if i == j else 0 for j in range(tab.k)] for i in range(tab.k)])
    assert abs(dec.det_c) == 1


def test_decomposition_gram_coprime_to_p():
    for name, p in (("S4", 2), ("S5", 2), ("A4", 2), ("GL2_3", 3)):
        g = standard_group(name)
        s = sylow_subgroup(g, p)
        fusion = fusion_from_group(g, s, p)
        tab_s = dixon_character_table(s)
        lattice = stable_character_basis(tab_s, fusion)
        dec = decomposition_matrix(dixon_character_table(g), s, lattice)
        assert gcd(abs(dec.det_c), p) == 1


def test_a_restriction_outside_the_lattice_raises():
    """Irr(G)|_S always lies in the lattice of G's own fusion of S.  Given the
    lattice of a coarser fusion, here S = <(0 1), (2 3)> in S4 (not Sylow)
    with (0 1) ~ (0 1)(2 3), the sign of S4 leaves it, and that raises."""
    g = standard_group("S4")
    t1, t2 = Perm([1, 0, 2, 3]), Perm([0, 1, 3, 2])
    s = enumerate_group([t1, t2])
    merged = apply_merges(fusion_from_group(g, s, 2), [(t1, t1 * t2)])
    lattice = stable_character_basis(dixon_character_table(s), merged)
    with pytest.raises(AssertionError, match="outside the stable lattice"):
        decomposition_matrix(dixon_character_table(g), s, lattice)


def test_indecomposables_c8():
    _, _, tab, lattice = c8_merged_lattice()
    ind, complete = indecomposables_bounded(lattice, 2)
    assert complete and len(ind) == 8
    degrees = [sum(v * d for v, d in zip(vec, tab.degrees())) for vec in ind]
    assert sorted(degrees) == [1, 1, 1, 1, 2, 2, 2, 2]
    assert len(ind) != lattice.fusion.k  # not factorial: 8 > k = 7


def normal_sylow_ind_case(g, p):
    s = sylow_subgroup(g, p)
    fusion = fusion_from_group(g, s, p)
    tab_s = dixon_character_table(s)
    lattice = stable_character_basis(tab_s, fusion)
    tab_g = dixon_character_table(g)
    restricted, _ = restrict_table(tab_g, s)
    coords = {tuple(irr_coordinates(chi, tab_s)) for chi in restricted}
    bound = max(chi.degree_int() for chi in restricted)
    ind, complete = indecomposables_bounded(lattice, bound)
    assert complete
    return coords, set(ind), lattice


def test_normal_sylow_indecomposables_are_restrictions():
    for name, p in (("S3", 3), ("A4", 2), ("D10", 5), ("D18", 3)):
        g = standard_group(name)
        coords, ind, lattice = normal_sylow_ind_case(g, p)
        assert ind == coords
        assert len(ind) == lattice.fusion.k  # factorial up to the bound


def test_normal_sylow_with_multiplicity_two_restriction():
    # D24 over C3 has a degree-2 character trivial on the Sylow, so its
    # restriction 2*1_S is a decomposable member of the restriction set;
    # the indecomposables still number k(F) and sit inside the restrictions.
    coords, ind, lattice = normal_sylow_ind_case(standard_group("D24"), 3)
    assert ind < coords
    assert len(ind) == lattice.fusion.k
    assert len(ind) == lattice.fusion.k


def test_genuine_enumeration_flags_incomplete():
    _, _, tab, lattice = c8_merged_lattice()
    found, complete = genuine_stable_characters(lattice, 3, cap=5)
    assert not complete


def greedy_pivot_columns(basis, degrees):
    """Oracle: one HNF per candidate column, largest degrees first."""
    r = len(basis)
    order = sorted(range(len(degrees)), key=lambda j: (-degrees[j], j))
    chosen, cols = [], []
    for j in order:
        cand = cols + [[row[j] for row in basis]]
        if len(hnf(transpose(cand)).pivots) == len(cand):
            chosen.append(j)
            cols = cand
        if len(chosen) == r:
            break
    return chosen


def test_pivot_columns_are_the_greedy_choice():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 7)
        r = rng.randint(1, n)
        # independent rows whose columns repeat, so many columns are skipped
        width = rng.randint(r, n)
        while True:
            base = [[rng.randint(-2, 2) for _ in range(width)] for _ in range(r)]
            if hnf(base).rank == r:
                break
        cols = transpose(base)
        basis = transpose([rng.choice(cols) for _ in range(n)])
        degrees = [rng.randint(1, 4) for _ in range(n)]
        if hnf(basis).rank < r:
            continue
        assert _pivot_columns(basis, degrees) == greedy_pivot_columns(basis, degrees)
        assert len(_pivot_columns(basis, degrees)) == r


def test_stable_lattice_hnf_keeps_entries_small(monkeypatch):
    """The kernel of N_gamma's base fusion at p = 5 (a 49 x 172 system) is
    eliminated with every written entry under 64 bits; an xgcd combination
    of two rows reaches 160 on it."""
    ctx = overgroup_context(5, "N_gamma")
    row_sub = fuschar.intlinalg._row_sub
    widest = [0]

    def recording(h, u, i, j, q):
        row_sub(h, u, i, j, q)
        widest[0] = max(widest[0], *(abs(x).bit_length() for x in h[i] + u[i]))

    monkeypatch.setattr(fuschar.intlinalg, "_row_sub", recording)
    basis = stable_character_basis(ctx.irr_s, ctx.base).basis
    assert 0 < widest[0] <= 64
    monkeypatch.setattr(fuschar.stable, "kernel_rows", kernel_rows_by_xgcd)
    assert stable_character_basis(ctx.irr_s, ctx.base).basis == basis


def _decomposed_against_oracle(irr_g, s, irr_s):
    """Check restriction_coordinates on each distinct restriction that is not
    an irreducible of S (those are decomposed, the rest read off); returns
    how many were checked."""
    e = irr_g.conductor
    irreducible = {tuple(v.embedded(e).coeffs for v in psi.values) for psi in irr_s.chars}
    restricted, coords = restriction_coordinates(irr_g, s, irr_s)
    checked = {}
    for chi, row in zip(restricted, coords):
        key = tuple(v.embedded(e).coeffs for v in chi.values)
        if key not in irreducible and key not in checked:
            checked[key] = row
            assert row == irr_coordinates_by_inner_products(chi, irr_s)
            assert irr_coordinates(chi, irr_s) == row
    return len(checked)


def test_restriction_multiplicities_agree_with_inner_products():
    by_name: dict = {}
    for name, p in builtin_corpus():
        by_name.setdefault(name, []).append(p)
    checked = 0
    for name, primes in by_name.items():
        g = standard_group(name)
        for p in primes:
            s = sylow_subgroup(g, p)
            checked += _decomposed_against_oracle(dixon_character_table(g), s,
                                                  dixon_character_table(s))
    for which in ("N_gamma", "N_b", "N_gamma4star"):
        ctx = overgroup_context(5, which)
        checked += _decomposed_against_oracle(dixon_character_table(build_group(5, which)),
                                              ctx.S, ctx.irr_s)
    assert checked == 248 + 9 + 13 + 14  # the corpus, then N_gamma, N_b, N_gamma4star


def test_a_tampered_restriction_raises_instead_of_a_wrong_multiplicity():
    g = standard_group("S3")
    s = sylow_subgroup(g, 3)
    irr_g, irr_s = dixon_character_table(g), dixon_character_table(s)
    deg2 = next(i for i, chi in enumerate(irr_g.chars) if chi.degree_int() == 2)
    order3 = next(t for t, c in enumerate(irr_g.classes.classes) if c.rep_order == 3)
    values = list(irr_g.chars[deg2].values)
    values[order3] = Cyclotomic.zero()  # was -1
    chars = list(irr_g.chars)
    chars[deg2] = ClassFunction(tuple(values))
    with pytest.raises(AssertionError, match="do not recombine"):
        restriction_coordinates(irr_g._replace(chars=tuple(chars)), s, irr_s)
    restricted, _ = restrict_table(irr_g._replace(chars=tuple(chars)), s)
    with pytest.raises(AssertionError, match="do not recombine"):
        irr_coordinates(restricted[deg2], irr_s)


# -- refined lattices ------------------------------------------------------------


def _refines_to_the_full_kernel(lattice, target):
    refined = refine_stable_lattice(lattice, target)
    assert refined.fusion is target and refined.irr_s is lattice.irr_s
    assert refined.basis == stable_character_basis(lattice.irr_s, target).basis
    assert refined.rank == target.k
    return refined


@pytest.mark.parametrize("family", ["psu", "g"])
def test_each_chain_step_refines_to_the_full_kernel(family):
    from fuschar.exotic import CHAIN_BASES, chain_certificates

    irr_s = overgroup_context(5, CHAIN_BASES[family]).irr_s
    certs = chain_certificates(family, 5)
    lattice = stable_character_basis(irr_s, certs[0].base)
    for cert in certs:
        assert cert.base is lattice.fusion
        lattice = _refines_to_the_full_kernel(lattice, cert.target)


@pytest.mark.parametrize("which", ["N_b", "N_gamma", "N_gamma2"])
def test_each_single_merge_into_z_refines_to_the_full_kernel(which):
    ctx = overgroup_context(3, which)
    lattice = stable_character_basis(ctx.irr_s, ctx.base)
    z = ctx.z_element()
    # every class of z's order p: the classes in V and u's class, the one
    # such class off V (the others have order 9 at p = 3)
    merged = [i for i, fc in enumerate(ctx.base.classes)
              if fc.rep_order == 3 and i != ctx.class_of(z)]
    assert ctx.u_class_indices[0] in merged
    for i in merged:
        _refines_to_the_full_kernel(lattice, apply_merges(ctx.base, [(z, ctx.base.classes[i].rep)]))


def test_the_example27_merge_refines_to_the_full_kernel():
    c8 = cyclic_group(8)
    a = c8.designated["a"]
    base = stable_character_basis(dixon_character_table(c8), fusion_of_self(c8, 2))
    refined = _refines_to_the_full_kernel(base, apply_merges(base.fusion, [(a ** 2, a ** 6)]))
    # a partition equal to the base adds no constraint
    assert refine_stable_lattice(refined, refined.fusion).basis == refined.basis


def test_a_target_that_does_not_coarsen_the_base_goes_to_the_full_kernel(monkeypatch):
    ctx = overgroup_context(3, "N_gamma")
    merged = apply_merges(ctx.base, [(ctx.z_element(), ctx.S.designated["u"])])
    coarse = stable_character_basis(ctx.irr_s, merged)
    calls = []
    real = fuschar.stable.stable_character_basis
    monkeypatch.setattr(fuschar.stable, "stable_character_basis",
                        lambda irr_s, fusion: calls.append(fusion) or real(irr_s, fusion))
    # the base is finer than the merged fusion, not coarser
    assert refine_stable_lattice(coarse, ctx.base).basis == real(ctx.irr_s, ctx.base).basis
    assert calls == [ctx.base]
    # and a fusion of another copy of S goes there too, whatever its classes
    other = fusion_of_self(enumerate_group(ctx.S.generators), 3)
    assert refine_stable_lattice(stable_character_basis(ctx.irr_s, ctx.base), other).basis == \
        real(ctx.irr_s, other).basis
    assert calls[-1] is other
