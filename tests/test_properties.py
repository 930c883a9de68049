"""Invariant suites that hold on every run: ring identities, canonical-form
idempotence, stability re-evaluation, and representative independence."""

import random

from fuschar.chartable import dixon_character_table
from fuschar.cyclotomic import Cyclotomic
from fuschar.fusion import apply_merges, fusion_of_self
from fuschar.groups import conjugacy_classes, cyclic_group, standard_group
from fuschar.intlinalg import det_exact, hnf, mat_mul
from fuschar.stable import stable_character_basis
from fuschar.verify import character_table_matrix, gram_determinant

SEED = 20240801


def test_hnf_canonical_form_properties():
    rng = random.Random(SEED)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        r = hnf(m)
        assert mat_mul(r.transform, m) == r.hnf
        assert abs(det_exact(r.transform)) == 1
        assert hnf(r.hnf).hnf == r.hnf
        for i, col in enumerate(r.pivots):
            assert r.hnf[i][col] > 0
            for above in range(i):
                assert 0 <= r.hnf[above][col] < r.hnf[i][col]


def test_stable_basis_rows_constant_on_classes():
    for name, p in (("D16", 2), ("C27", 3)):
        s = standard_group(name)
        tab = dixon_character_table(s)
        base = fusion_of_self(s, p)
        by_order = {}
        for c in base.classes:
            by_order.setdefault(c.rep_order, []).append(c.rep)
        pair = next(v for o, v in sorted(by_order.items())
                    if o > 1 and len(v) >= 2)
        merged = apply_merges(base, [(pair[0], pair[1])])
        lattice = stable_character_basis(tab, merged)
        sc = conjugacy_classes(s)
        for row in lattice.basis:
            cf = tab.combination(row)
            for fc in merged.classes:
                vals = {cf.values[i].key() for i in fc.s_class_indices}
                assert len(vals) == 1


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return m


def test_determinant_invariance_under_unimodular_change():
    rng = random.Random(SEED)
    c8 = cyclic_group(8)
    a = c8.designated["a"]
    tab = dixon_character_table(c8)
    merged = apply_merges(fusion_of_self(c8, 2), [(a ** 2, a ** 6)])
    lattice = stable_character_basis(tab, merged)
    x = character_table_matrix(lattice, merged)
    base_det, _ = gram_determinant(x)
    for _ in range(10):
        u = random_unimodular(rng, lattice.rank)
        lattice = lattice._replace(basis=mat_mul(u, lattice.basis))
        x2 = character_table_matrix(lattice, merged)
        det2, _ = gram_determinant(x2)
        assert det2 == base_det


def test_representative_independence():
    rng = random.Random(SEED)
    c8 = cyclic_group(8)
    a = c8.designated["a"]
    tab = dixon_character_table(c8)
    merged = apply_merges(fusion_of_self(c8, 2), [(a ** 2, a ** 6)])
    lattice = stable_character_basis(tab, merged)
    sc = conjugacy_classes(c8)
    base_x = character_table_matrix(lattice, merged)
    for _ in range(5):
        cols = []
        for fc in merged.classes:
            s_idx = rng.choice(fc.s_class_indices)
            cols.append(s_idx)
        for coeffs, base_row in zip(lattice.basis, base_x):
            cf = tab.combination(coeffs)
            assert [cf.values[c] for c in cols] == base_row


def test_galois_action_commutes_with_arithmetic():
    rng = random.Random(SEED)
    for e, k in ((5, 2), (8, 3), (12, 5)):
        for _ in range(15):
            a = Cyclotomic(e, [rng.randint(-3, 3) for _ in range(e)])
            b = Cyclotomic(e, [rng.randint(-3, 3) for _ in range(e)])
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)
            assert (a + b).galois(k) == a.galois(k) + b.galois(k)


def test_dixon_orthogonality_is_exact():
    from fuschar.chartable import inner_product

    for name in ("A4", "D20", "S4"):
        g = standard_group(name)
        tab = dixon_character_table(g)
        for i, chi in enumerate(tab.chars):
            for j, psi in enumerate(tab.chars):
                assert inner_product(chi, psi, tab.classes, g.order) == int(i == j)
