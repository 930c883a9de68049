"""The overgroup context of N = V:H, built from H alone: the fusion of S by
H-conjugation and Irr(N)|_S by Clifford theory, against the enumerated N."""

from functools import lru_cache

import pytest

import fuschar.chartable
import fuschar.constructions
import fuschar.exotic
import fuschar.groups
from fuschar.constructions import (form_action_matrix, gamma_group, linear_part, linear_parts,
                                   sylow_inside, translation_part)
from fuschar.exotic import _clifford_restrictions, _fusion_by_conjugation, overgroup_context
from fuschar.groups import conjugacy_classes, enumerate_group

from oracles import (clifford_restrictions_by_scan, fusion_by_conjugation_by_scan,
                     overgroup_context_by_enumeration)

CASES = [(3, "N_b"), (3, "N_gamma"), (3, "N_gamma2"),
         (5, "N_b"), (5, "N_gamma"), (5, "N_gamma2"), (5, "N_gamma4star")]


def _values(values):
    return [(v.order, v.coeffs) for v in values]


@pytest.mark.parametrize("p, which", CASES)
def test_context_equals_the_enumerated_oracle(p, which):
    ctx = overgroup_context(p, which)
    oracle = overgroup_context_by_enumeration(p, which)
    assert (ctx.p, ctx.N.order) == (oracle.p, oracle.N.order)
    assert ctx.N.order == p ** 3 * ctx.N.H.order
    assert ctx.S is not oracle.S
    assert ctx.S.codes == oracle.S.codes and ctx.S.designated == oracle.S.designated
    assert [_values(chi.values) for chi in ctx.irr_s.chars] == \
        [_values(chi.values) for chi in oracle.irr_s.chars]
    assert [(fc.s_class_indices, fc.rep, fc.rep_order, fc.centralizer_order, fc.size)
            for fc in ctx.base.classes] == \
        [(fc.s_class_indices, fc.rep, fc.rep_order, fc.centralizer_order, fc.size)
         for fc in oracle.base.classes]
    assert ctx.base.saturation_certified == oracle.base.saturation_certified
    assert [(r.coords, r.degree, _values(r.values), r.n_preimages) for r in ctx.rows] == \
        [(r.coords, r.degree, _values(r.values), r.n_preimages) for r in oracle.rows]
    assert ctx.u_class_indices == oracle.u_class_indices


@pytest.mark.parametrize("which", ["N_b", "N_gamma", "N_gamma2"])
def test_fusion_and_clifford_rows_equal_the_scans_of_h_at_p7(which):
    """N_H(U) from Schreier generators and the H-orbits on Irr(V) with their
    stabilisers give the fusion and the rows that scanning every element of
    H gives."""
    p = 7
    ctx = overgroup_context(p, which)
    s, h = ctx.S, ctx.N.H
    reps = [(translation_part(c.rep), linear_part(c.rep), c.rep_order)
            for c in conjugacy_classes(s).classes]
    # fusion_from_blocks orders the classes, so the order of the blocks is no contract
    fusion = sorted(map(sorted, _fusion_by_conjugation(p, s, h, reps)))
    assert fusion == sorted(map(sorted, fusion_by_conjugation_by_scan(p, s, h, reps)))
    assert fusion == sorted(list(fc.s_class_indices) for fc in ctx.base.classes)
    rows = _clifford_restrictions(p, h, reps)
    assert [chi.values for chi in rows] == \
        [chi.values for chi in clifford_restrictions_by_scan(p, h, reps)]


def test_no_closure_is_larger_than_s_or_h(monkeypatch):
    """Every group the context enumerates, the linear parts and S included,
    is at most max(|S|, |H|): N itself is never closed."""
    orders = []
    real = fuschar.groups.enumerate_group

    def recording(*args, **kw):
        group = real(*args, **kw)
        orders.append(group.order)
        return group

    # every module's enumerate_group records, and the caches are bypassed,
    # so every closure of a fresh build is seen
    for module in (fuschar.groups, fuschar.constructions, fuschar.exotic):
        if hasattr(module, "enumerate_group"):
            monkeypatch.setattr(module, "enumerate_group", recording)
        for cached in (linear_parts, sylow_inside, gamma_group):
            if hasattr(module, cached.__name__):
                monkeypatch.setattr(module, cached.__name__, cached.__wrapped__)
    for p, which in CASES:
        del orders[:]
        ctx = overgroup_context.__wrapped__(p, which)
        assert orders and max(orders) <= max(p ** 4, ctx.N.H.order), (p, which, orders)
        assert ctx.N.H.order in orders and p ** 4 in orders


def _bypass_construction_caches(monkeypatch):
    for cached in (linear_parts, sylow_inside, gamma_group):
        monkeypatch.setattr(fuschar.constructions, cached.__name__, cached.__wrapped__)
        monkeypatch.setattr(fuschar.exotic, cached.__name__, cached.__wrapped__, raising=False)


def test_every_construction_at_a_prime_shares_one_s_and_one_irr_s(monkeypatch):
    """S = V:U lies in every N = V:H at p: built from fresh caches, the four
    contexts at p = 5 share one S and one Irr(S), tabled by Clifford theory
    with H = U once."""
    for cached in (linear_parts, sylow_inside, gamma_group):
        fresh = lru_cache(maxsize=None)(cached.__wrapped__)
        monkeypatch.setattr(fuschar.constructions, cached.__name__, fresh)
        monkeypatch.setattr(fuschar.exotic, cached.__name__, fresh, raising=False)
    real = fuschar.exotic._clifford_restrictions
    u_calls = []

    def recording(p, h, reps):
        if h.order == p:
            u_calls.append(h)
        return real(p, h, reps)

    monkeypatch.setattr(fuschar.exotic, "_clifford_restrictions", recording)
    contexts = [overgroup_context.__wrapped__(p, which) for p, which in CASES if p == 5]
    assert len(contexts) == 4 and len(u_calls) == 1
    s, irr_s = contexts[0].S, contexts[0].irr_s
    assert all(ctx.S is s and ctx.irr_s is irr_s for ctx in contexts)
    assert s._table is irr_s


def test_an_overgroup_without_u_is_refused(monkeypatch):
    """S lies in N = V:H exactly when H holds u's linear part."""
    scalars = enumerate_group([form_action_matrix(3, 2, 1, 0, 0, 1)])
    monkeypatch.setattr(fuschar.exotic, "linear_parts", lambda p, which: scalars)
    with pytest.raises(AssertionError, match="S is not a subgroup of N_gamma at p = 3"):
        overgroup_context.__wrapped__(3, "N_gamma")


def test_a_fresh_context_never_decodes_s(monkeypatch):
    """The fusion joins S-class indices, looked up one element at a time:
    no group of the context lists its elements."""
    def decoded(group):
        raise AssertionError(f"the elements of a group of order {group.order} were decoded")

    _bypass_construction_caches(monkeypatch)
    monkeypatch.setattr(fuschar.groups.FiniteGroup, "elements", property(decoded))
    for p, which in CASES:
        overgroup_context.__wrapped__(p, which)


def test_a_fresh_context_holds_one_object_per_distinct_value():
    """Each Clifford table shares its equal (immutable) values: Irr(S) and
    the restriction rows each hold one Cyclotomic per distinct value."""
    for p, which in CASES:
        ctx = overgroup_context.__wrapped__(p, which)
        for values in ([v for chi in ctx.irr_s.chars for v in chi.values],
                       [v for row in ctx.rows for v in row.values]):
            assert len({id(v) for v in values}) == len({(v.order, v.coeffs) for v in values})


def test_irr_s_comes_from_clifford_theory_not_dixon_schneider(monkeypatch):
    """S = V:U is affine, so Irr(S) is the Clifford table with H = U: a fresh
    context runs Dixon-Schneider on no group of order |S|."""
    orders = []
    real = fuschar.chartable._dixon_characters

    def recording(G, *args):
        orders.append(G.order)
        return real(G, *args)

    monkeypatch.setattr(fuschar.chartable, "_dixon_characters", recording)
    _bypass_construction_caches(monkeypatch)
    for p, which in CASES:
        del orders[:]
        ctx = overgroup_context.__wrapped__(p, which)
        assert ctx.irr_s.group is ctx.S and ctx.S._table is ctx.irr_s
        assert p ** 4 not in orders, (p, which, orders)


def test_irr_s_at_p7_equals_dixon_schneider_on_a_fresh_s():
    ctx = overgroup_context(7, "N_gamma")
    fresh = sylow_inside.__wrapped__(7)
    oracle = fuschar.chartable._dixon_table(fresh)
    assert fresh is not ctx.S and fresh.codes == ctx.S.codes
    assert [_values(chi.values) for chi in ctx.irr_s.chars] == \
        [_values(chi.values) for chi in oracle.chars]


def _split_one_fused_class(real):
    def stub(*args):
        groups = real(*args)
        i = next(i for i, grp in enumerate(groups) if len(grp) > 1)
        return groups[:i] + [groups[i][:1], groups[i][1:]] + groups[i + 1:]
    return stub


# the checks raise explicitly, so they hold under `python -O` too
# (tests/test_runtime_checks.py keeps the package free of bare asserts)


def test_a_dropped_union_in_the_fusion_is_caught(monkeypatch):
    monkeypatch.setattr(fuschar.exotic, "_fusion_by_conjugation",
                        _split_one_fused_class(fuschar.exotic._fusion_by_conjugation))
    with pytest.raises(AssertionError, match="Clifford columns"):
        overgroup_context.__wrapped__(3, "N_gamma")


def test_a_tampered_clifford_value_is_caught(monkeypatch):
    fused = next(fc.s_class_indices for fc in overgroup_context(3, "N_gamma").base.classes
                 if len(fc.s_class_indices) > 1)
    real = fuschar.exotic._clifford_restrictions

    def tampered(p, h, reps):  # Irr(N)|_S only: U = <u's linear part> has order p
        chis = real(p, h, reps)
        if h.order == p:
            return chis
        values = list(chis[-1].values)
        values[fused[-1]] = values[fused[-1]] + 1
        return chis[:-1] + [chis[-1]._replace(values=tuple(values))]

    monkeypatch.setattr(fuschar.exotic, "_clifford_restrictions", tampered)
    with pytest.raises(AssertionError, match="Clifford columns"):
        overgroup_context.__wrapped__(3, "N_gamma")


def test_a_missing_irreducible_is_caught(monkeypatch):
    real = fuschar.exotic._clifford_restrictions
    monkeypatch.setattr(fuschar.exotic, "_clifford_restrictions",
                        lambda p, h, reps: real(p, h, reps)[h.order > p:])
    with pytest.raises(AssertionError, match="Clifford degrees"):
        overgroup_context.__wrapped__(3, "N_gamma")

