"""Test oracles: the direct or slower forms of what `fuschar` computes, and
helpers that only the tests use.  No verdict path, CLI command or demo
reaches any of them."""

import json
from itertools import combinations, product
from math import gcd

from fuschar.chartable import (
    ClassFunction,
    _class_matrix,
    _refine_space,
    dixon_character_table,
    induce_class_function,
    inner_product,
    restrict_table,
)
from fuschar.constructions import (
    ConstructionParams,
    _psi_vector,
    _v_vector,
    affine,
    build_group,
    gamma_stabilizer_of_character,
    is_translation,
    linear_part,
    mat_vec,
    translation,
    translation_part,
    vec_mat,
)
from fuschar.cyclotomic import Cyclotomic, cyclo_dot
from fuschar.exotic import OvergroupContext, RestrictionRow
from fuschar.fusion import apply_merges, fusion_from_group, fusion_of_self
from fuschar.groups import conjugacy_classes, enumerate_group
from fuschar.intlinalg import HNFResult, _row_sub, det_exact, identity_matrix, mat_mul
from fuschar.stable import multiplicities


def full_merge(base):
    """Merge all non-identity classes (the transitive partition)."""
    nontrivial = [c.rep for c in base.classes if c.rep_order > 1]
    merges = [(nontrivial[0], x) for x in nontrivial[1:]]
    return apply_merges(base, merges)


def orbit_containing(orbits, gam, target):
    """The orbit record of `gamma_orbit_analysis` whose orbit holds target."""
    for info in orbits:
        if target in orbit_by_scan(gam, info.rep, lambda v, g: mat_vec(g, v)):
            return info
    raise ValueError(f"{target} lies in no computed orbit")


def orbit_by_scan(G, point, act):
    """The orbit of point as act(point, x) over every element x of G: the
    oracle for the breadth-first transversal of `groups.orbit_stabiliser`."""
    return {act(point, x) for x in G.elements}


def stabiliser_by_scan(G, point, act):
    """The members x of G with act(point, x) == point, found by testing each:
    the oracle for the stabiliser closed from Schreier generators."""
    return [x for x in G.elements if act(point, x) == point]


def _stabiliser_closure_by_scan(h, a):
    """H_a as a group, closed from the scanned members its growing closure
    does not yet hold."""
    members = stabiliser_by_scan(h, a, vec_mat)
    if len(members) == h.order:
        return h
    stab = enumerate_group([h.identity])
    for x in members:
        if x not in stab:
            stab = enumerate_group(stab.generators + [x], max_order=len(members))
    return stab


def fusion_by_conjugation_by_scan(p, s, h, reps):
    """`exotic._fusion_by_conjugation` with N_H(U) found by testing every
    element x of H for x u x^-1 in U, each such x merging the off-V classes."""
    sc = conjugacy_classes(s)
    where = {(translation_part(y), linear_part(y).entries): c
             for y, c in zip(s.elements, sc.class_of)}
    one = h.identity.entries
    pairs = {(where[v, one], where[mat_vec(m, v), one])
             for v in product(range(p), repeat=3) for m in h.generators}
    off_v = [(i, v, g) for i, (v, g, _) in enumerate(reps) if g.entries != one]
    u_set = {g.entries for _, _, g in off_v}
    for x in h.elements:
        x_inv = x.inverse()
        if (x * off_v[0][2] * x_inv).entries in u_set:
            conj = {g: (x * g * x_inv).entries for g in {g for _, _, g in off_v}}
            pairs.update((i, where[mat_vec(x, v), conj[g]]) for i, v, g in off_v)
    merges = [(sc.classes[i].rep, sc.classes[j].rep) for i, j in pairs if i != j]
    return [list(fc.s_class_indices) for fc in apply_merges(fusion_of_self(s, p), merges).classes]


def clifford_restrictions_by_scan(p, h, reps):
    """`exotic._clifford_restrictions` with each H-orbit on Irr(V), its
    transversal and H_a found by scanning every element of H."""
    linear = {g for _, g, _ in reps}
    seen = set()
    out = []
    for a in product(range(p), repeat=3):
        if a in seen:
            continue
        orbit = {}  # b -> the first y in H with a y = b
        for y in h.elements:
            orbit.setdefault(vec_mat(a, y), y)
        seen.update(orbit)
        stab = _stabiliser_closure_by_scan(h, a)
        assert stab.order * len(orbit) == h.order
        table = dixon_character_table(stab)
        fixed = {g: [(b, table.classes.class_index_of(stab, y * g * y.inverse()))
                     for b, y in orbit.items() if vec_mat(b, g) == b]
                 for g in linear}
        counts = []
        for v, g, _ in reps:
            cnt = {}
            for b, c in fixed[g]:
                key = (sum(x * y for x, y in zip(b, v)) % p, c)
                cnt[key] = cnt.get(key, 0) + 1
            counts.append(cnt)
        for psi in table.chars:
            values = []
            for (_, _, o), cnt in zip(reps, counts):
                value = Cyclotomic.zero()
                for (t, c), mult in cnt.items():
                    value = value + Cyclotomic.root_of_unity(p, t) * psi.values[c] * mult
                values.append(value)
            out.append(ClassFunction(tuple(values)))
    return out


def overgroup_context_by_enumeration(p, which):
    """`overgroup_context` from the enumerated overgroup N: the base fusion
    from N's classes and the rows from Dixon-Schneider on N."""
    n = build_group(p, which)
    v_gens = [translation(p, (1, 0, 0)), translation(p, (0, 1, 0)), translation(p, (0, 0, 1))]
    s = enumerate_group(v_gens + [n.designated["u"]], designated=dict(n.designated))
    assert s.is_subgroup_of(n)
    base = fusion_from_group(n, s, p)
    irr_s = dixon_character_table(s)
    irr_n = dixon_character_table(n)
    restricted, _ = restrict_table(irr_n, s)
    coords = multiplicities(restricted, irr_s, irr_n.conductor, n.order)
    sc = conjugacy_classes(s)
    anchor_cols = [sc.class_index_of(s, fc.rep) for fc in base.classes]
    groups = {}
    for chi, row in zip(restricted, coords):
        groups.setdefault(tuple(row), []).append(chi)
    rows = [RestrictionRow(coords=key, degree=chis[0].degree_int(),
                           values=tuple(chis[0].values[j] for j in anchor_cols),
                           n_preimages=len(chis))
            for key, chis in groups.items()]
    rows.sort(key=lambda r: (r.degree, tuple(v.embedded(irr_s.conductor).coeffs
                                             for v in r.values)))
    u_cls = [i for i, fc in enumerate(base.classes) if not is_translation(fc.rep)]
    u_main = base.class_of_element(s.designated["u"])
    u_cls.sort(key=lambda i: (i != u_main, i))
    return OvergroupContext(p, n, s, irr_s, base, rows, u_cls)


def induced_value_direct(p, psi_key, rho_degree, v_key):
    """Direct induction of (extension of psi) tensor rho from V:I(psi) up to
    V:Gamma, evaluated at the V-element; the independent check on
    `induced_value_formula`."""
    params = ConstructionParams.for_prime(p)
    avec = _psi_vector(psi_key, params)
    vvec = _v_vector(v_key, params)
    n = build_group(p, "N_gamma")
    stab = gamma_stabilizer_of_character(p, psi_key)
    h_gens = [translation(p, (1, 0, 0)), translation(p, (0, 1, 0)),
              translation(p, (0, 0, 1))] + \
        [affine(m, (0, 0, 0)) for m in stab.generators]
    h = enumerate_group(h_gens)
    stab_table = dixon_character_table(stab)
    rho = next(chi for chi in stab_table.chars if chi.degree_int() == rho_degree)
    stab_classes = stab_table.classes
    h_classes = conjugacy_classes(h)
    values = []
    for cls in h_classes.classes:
        t = translation_part(cls.rep)
        lin = linear_part(cls.rep)
        exponent = sum(a * x for a, x in zip(avec, t)) % p
        psi_val = Cyclotomic.root_of_unity(p, exponent)
        rho_val = rho.values[stab_classes.class_index_of(stab, lin)]
        values.append(psi_val * rho_val)
    theta = ClassFunction(tuple(values))
    induced = induce_class_function(theta, h, n)
    n_classes = conjugacy_classes(n)
    return induced.values[n_classes.class_index_of(n, translation(p, vvec))]


def _xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def _row_combine(h, u, i, j, x, y, ag, bg):
    # rows (i, j) <- (x*i + y*j, -bg*i + ag*j); determinant of the 2x2 block is 1
    for mat in (h, u):
        ri, rj = mat[i], mat[j]
        for k in range(len(ri)):
            a, b = ri[k], rj[k]
            ri[k] = x * a + y * b
            rj[k] = -bg * a + ag * b


def hnf_by_xgcd(matrix):
    """Hermite normal form by xgcd row combinations against the first
    nonzero pivot.  The oracle for `intlinalg.hnf`: the same canonical form,
    reached by a different elimination whose intermediate entries can grow
    far larger."""
    h = [list(r) for r in matrix]
    m = len(h)
    u = identity_matrix(m)
    row = 0
    pivots = []
    ncols = len(h[0]) if h else 0
    for col in range(ncols):
        pivot_row = next((i for i in range(row, m) if h[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != row:
            h[row], h[pivot_row] = h[pivot_row], h[row]
            u[row], u[pivot_row] = u[pivot_row], u[row]
        for i in range(row + 1, m):
            while h[i][col]:
                a, b = h[row][col], h[i][col]
                if b % a == 0:
                    _row_sub(h, u, i, row, b // a)
                else:
                    g, x, y = _xgcd(a, b)
                    _row_combine(h, u, row, i, x, y, a // g, b // g)
        if h[row][col] < 0:
            h[row] = [-v for v in h[row]]
            u[row] = [-v for v in u[row]]
        for i in range(row):
            q = h[i][col] // h[row][col]
            if q:
                _row_sub(h, u, i, row, q)
        pivots.append(col)
        row += 1
        if row == m:
            break
    return HNFResult(h, u, row, tuple(pivots))


def kernel_rows_by_xgcd(matrix):
    """`intlinalg.kernel_rows` with both Hermite forms taken by the oracle."""
    res = hnf_by_xgcd(matrix)
    rows = res.transform[res.rank:]
    return [r for r in hnf_by_xgcd(rows).hnf if any(r)] if rows else []


def smith_invariants_by_minors(matrix):
    """Elementary divisors from the determinantal divisors: d1 * ... * di is
    the gcd of all i x i minors.  The oracle for `smith_invariants`."""
    m = len(matrix)
    n = len(matrix[0]) if matrix else 0
    divisors, prev = [], 1
    for i in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), i):
            for cols in combinations(range(n), i):
                g = gcd(g, det_exact([[matrix[r][c] for c in cols] for r in rows]))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def report_round_trip(report_json):
    """parse(serialize(report)) identity used by the golden tests."""
    return json.loads(json.dumps(report_json))


def validate_table_by_inner_products(table):
    """`chartable._validate_table` as one full inner product <chi, chi> per
    character: the oracle for the norms taken once per distinct value."""
    total = sum(d * d for d in table.degrees())
    if total != table.group.order:
        raise AssertionError("sum of squared degrees must equal the group order")
    for chi in table.chars:
        norm = inner_product(chi, chi, table.classes, table.group.order)
        if norm != 1:
            raise AssertionError("computed character is not irreducible")


def dx_identity_by_values(dec, lattice, irr_g, g_cols):
    """`verify._check_dx_identity` over every row of D B, each entry of
    (D B) Psi a full `cyclo_dot` (no unit row is read off), compared with
    `Cyclotomic.__eq__`: the oracle for the distinct-row check."""
    fusion = lattice.fusion
    sc = conjugacy_classes(fusion.S)
    s_cols = [sc.class_index_of(fusion.S, fc.rep) for fc in fusion.classes]
    psis = lattice.irr_s.chars
    return all(cyclo_dot(row, [psi.values[scls] for psi in psis]) == chi.values[gcls]
               for row, chi in zip(mat_mul(dec.d_matrix, lattice.basis), irr_g.chars)
               for scls, gcls in zip(s_cols, g_cols))


def embedded_unmemoised(value, order):
    """`Cyclotomic.embedded` computed afresh on every call: the oracle for
    the memoised embedding."""
    if order == value.order:
        return value
    if order % value.order:
        raise ValueError(f"cannot embed order {value.order} into {order}")
    step = order // value.order
    vec = [0] * order
    for i, c in value.terms():
        vec[i * step] = c
    return Cyclotomic(order, vec)


def eigenspaces_by_every_matrix(G, classes, l):
    """`chartable._eigenspaces` without the column criterion: every class
    matrix, in order of class size, refines every space of dimension above 1
    until all have dimension 1.  The oracle for building only the class
    matrices that separate a space."""
    k = len(classes.classes)
    sizes = [c.size for c in classes.classes]
    spaces = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for i in sorted(range(1, k), key=lambda i: (sizes[i], i)):
        if all(len(w) == 1 for w in spaces):
            break
        mat = _class_matrix(G, classes, i, l)
        nxt = []
        for w in spaces:
            nxt.extend(_refine_space(w, mat, l) if len(w) > 1 else [w])
        spaces = nxt
    if not all(len(w) == 1 for w in spaces):
        raise AssertionError("eigenspace splitting failed after all class matrices")
    return spaces


def irr_coordinates_by_inner_products(chi, irr_s):
    """Multiplicities of chi over Irr(S) as exact inner products <chi, psi>:
    the oracle for the decomposition modulo the Dixon prime."""
    return [inner_product(chi, psi, irr_s.classes, irr_s.group.order).rational_value()
            for psi in irr_s.chars]
