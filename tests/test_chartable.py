import random
from itertools import product

import pytest

from fuschar.chartable import (
    ClassFunction,
    _class_matrix,
    _validate_table,
    _nullspace_mod,
    _separates,
    _solve_coords,
    dixon_character_table,
    induce_class_function,
    inner_product,
    regular_character,
    restrict_table,
)
from fuschar.constructions import build_group, sylow_inside
from fuschar.cyclotomic import Cyclotomic
from fuschar.groups import (
    conjugacy_classes,
    cyclic_group,
    enumerate_group,
    gl2_3,
    heisenberg_group,
    standard_group,
    symmetric_group,
)
from fuschar.verify import builtin_corpus

from oracles import eigenspaces_by_every_matrix, validate_table_by_inner_products


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
        _validate_table(tab._replace(chars=chars))


def _outcome(check, table):
    """None when check accepts table, else the type and message it raised."""
    try:
        check(table)
    except (AssertionError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return None


def _with_entry(table, i, j, value):
    chars = list(table.chars)
    vals = list(chars[i].values)
    vals[j] = value
    chars[i] = ClassFunction(tuple(vals))
    return table._replace(chars=chars)


def test_validate_table_agrees_with_the_inner_product_oracle():
    names = sorted({name for name, _ in builtin_corpus()})
    tables = [dixon_character_table(standard_group(name)) for name in names]
    tables += [dixon_character_table(build_group(5, which)) for which in ("N_gamma4star", "N_b")]
    rejected = 0
    for tab in tables:
        assert _outcome(_validate_table, tab) is None
        assert _outcome(validate_table_by_inner_products, tab) is None
        # the last character takes its degree at the last class as well
        bad = _with_entry(tab, -1, tab.k - 1, tab.chars[-1].values[0])
        outcome = _outcome(_validate_table, bad)
        assert outcome == _outcome(validate_table_by_inner_products, bad), tab.group.order
        rejected += outcome is not None
    assert rejected >= 40  # every group whose last character has degree > 1


def test_validate_table_rejects_a_value_repeated_from_elsewhere():
    """One entry replaced by another value of the same table must change the
    norm it is charged: the norms are keyed by value, not by position."""
    tab = dixon_character_table(standard_group("D10"))
    i = next(i for i, chi in enumerate(tab.chars) if chi.degree_int() == 2)
    zero = next(j for j, v in enumerate(tab.chars[i].values) if v.is_zero())
    rotation = next(j for j, v in enumerate(tab.chars[i].values) if not v.is_rational_integer())
    bad = _with_entry(tab, i, zero, tab.chars[i].values[rotation])
    outcome = _outcome(_validate_table, bad)
    assert outcome is not None and outcome == _outcome(validate_table_by_inner_products, bad)
    # a cyclic table holds only roots of unity, each of norm 1, so moving one
    # of its values elsewhere changes no norm: both checks accept it
    c5 = dixon_character_table(cyclic_group(5))
    swapped = _with_entry(c5, 1, 1, c5.chars[2].values[3])
    assert _outcome(_validate_table, swapped) is None
    assert _outcome(validate_table_by_inner_products, swapped) is None


def test_validate_table_takes_each_distinct_norm_once(monkeypatch):
    import fuschar.chartable

    tab = dixon_character_table(cyclic_group(61))
    calls = []
    original = fuschar.chartable.cyclo_dot

    def counted(weights, xs, ys=None):
        calls.append((len(xs), ys is not None))
        return original(weights, xs, ys)

    monkeypatch.setattr(fuschar.chartable, "cyclo_dot", counted)
    _validate_table(tab)
    distinct = {(v.order, v.coeffs) for chi in tab.chars for v in chi.values}
    # distinct values + k calls: one single-term |x|^2 per distinct value and
    # one integer-weighted sum per character
    assert sorted(calls) == [(1, True)] * len(distinct) + [(tab.k, False)] * tab.k


def test_the_table_is_computed_once_per_group_and_shared():
    g = standard_group("SL2_3")
    tab = dixon_character_table(g)
    assert dixon_character_table(g) is tab
    assert isinstance(tab.chars, tuple)
    fresh = dixon_character_table(standard_group("SL2_3"))
    assert fresh is not tab
    assert [chi.values for chi in fresh.chars] == [chi.values for chi in tab.chars]
    assert fresh.conductor == tab.conductor


def test_a_table_computation_that_raises_caches_nothing(monkeypatch):
    import fuschar.chartable

    def broken(table):
        raise AssertionError("computed character is not irreducible")

    g = standard_group("S4")
    with monkeypatch.context() as m:
        m.setattr(fuschar.chartable, "_validate_table", broken)
        with pytest.raises(AssertionError, match="not irreducible"):
            dixon_character_table(g)
    tab = dixon_character_table(g)
    assert sorted(tab.degrees()) == [1, 1, 2, 3, 3]
    assert dixon_character_table(g) is tab


def test_trivial_group_table():
    # the trivial group is tabled as a cyclic group: its one class generates it
    tab = dixon_character_table(cyclic_group(1))
    assert tab.k == 1 and tab.conductor == 1
    assert [chi.values for chi in tab.chars] == [(Cyclotomic.one(),)]


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
    four_cycle = next(c.rep for c in conjugacy_classes(g).classes if c.rep_order == 4)
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
    theta = ClassFunction((Cyclotomic.one(),) * len(conjugacy_classes(triv_sub).classes))
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
    s = sylow_inside(p)
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


def test_a_dixon_table_holds_one_object_per_distinct_value():
    """Equal values of one table are one shared (immutable) Cyclotomic."""
    import fuschar.chartable

    table = fuschar.chartable._dixon_table(standard_group("ES7"))
    values = [v for chi in table.chars for v in chi.values]
    distinct = {(v.order, v.coeffs) for v in values}
    assert len({id(v) for v in values}) == len(distinct) < len(values)


def test_class_matrix_counts_element_products():
    # GL2_3 and ES3 have classes that do not contain their inverses
    for g in (gl2_3(), heisenberg_group(3), symmetric_group(4)):
        cc = conjugacy_classes(g)
        k = len(cc.classes)
        for i, ci in enumerate(cc.classes):
            expected = [[0] * k for _ in range(k)]
            for t, ct in enumerate(cc.classes):
                for x in ci.member_indices:
                    expected[cc.class_index_of(g, g.elements[x].inverse() * ct.rep)][t] += 1
            assert _class_matrix(g, cc, i, 10007) == expected


def _corpus_groups():
    return [standard_group(name) for name in dict.fromkeys(n for n, _ in builtin_corpus())]


def test_column_criterion_gives_the_tables_of_every_class_matrix(monkeypatch):
    import fuschar.chartable

    groups = _corpus_groups() + [build_group(5, w) for w in ("S", "N_b", "N_gamma4star")]
    groups += [standard_group("ES5"), standard_group("ES7")]
    for g in groups:
        fast = fuschar.chartable._dixon_table(g)
        with monkeypatch.context() as m:
            m.setattr(fuschar.chartable, "_eigenspaces", eigenspaces_by_every_matrix)
            slow = fuschar.chartable._dixon_table(g)
        assert fast.chars == slow.chars, g.order


def test_dixon_schneider_builds_only_separating_class_matrices(monkeypatch):
    """Work-count guard, no timings: S at p = 5 and the corpus groups build
    at most 4 and 117 class matrices, and every refinement splits its space."""
    import fuschar.chartable

    built = [0]
    class_matrix, refine_space = fuschar.chartable._class_matrix, fuschar.chartable._refine_space

    def counted_matrix(*args):
        built[0] += 1
        return class_matrix(*args)

    def checked_refine(w, mat, l):
        parts = refine_space(w, mat, l)
        assert len(parts) >= 2
        return parts

    monkeypatch.setattr(fuschar.chartable, "_class_matrix", counted_matrix)
    monkeypatch.setattr(fuschar.chartable, "_refine_space", checked_refine)
    fuschar.chartable._dixon_table(build_group(5, "S"))
    assert built[0] <= 4  # 29 with every class matrix
    built[0] = 0
    for g in _corpus_groups():
        fuschar.chartable._dixon_table(g)
    assert built[0] <= 117  # 300 with every class matrix


def test_a_separated_space_that_does_not_split_raises(monkeypatch):
    import fuschar.chartable

    monkeypatch.setattr(fuschar.chartable, "_refine_space", lambda w, mat, l: [w])
    g = symmetric_group(4)
    with pytest.raises(AssertionError, match="separated a space but did not split it"):
        dixon_character_table(g)
    assert g._table is None


def test_a_space_with_a_zero_identity_column_is_rejected():
    assert _separates([[1, 2, 3], [0, 1, 0]], 1, 7)
    assert not _separates([[1, 2, 3], [3, 6, 1]], 1, 7)
    with pytest.raises(AssertionError, match="no basis row has a nonzero identity entry"):
        _separates([[0, 1, 0], [0, 0, 1]], 1, 7)
