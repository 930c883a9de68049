import hashlib
import json

import pytest

from fuschar.chartable import ClassFunction, dixon_character_table, evaluate
from fuschar.cyclotomic import Cyclotomic
from fuschar.exotic import (
    CHAIN_BASES,
    CHAIN_LABELS,
    base_construction_for,
    build_exotic_fusion,
    certificate_f1,
    certificate_g,
    certificate_op_f1,
    chain_certificates,
    overgroup_context,
    table_3492,
)
from fuschar.fusion import apply_merges, fusion_from_group, fusion_of_self
from fuschar.groups import cyclic_group, standard_group, sylow_subgroup
from fuschar.intlinalg import identity_matrix, mat_mul, transpose
from fuschar.reftables import ITEMS
from fuschar.stable import (
    StableLattice,
    decomposition_matrix,
    stable_character_basis,
    stable_sublattice,
)
from fuschar.verify import (
    _check_dx_identity,
    builtin_corpus,
    character_table_matrix,
    check_certificate_chain,
    check_induction_certificate,
    gram_determinant,
    gram_matrix,
    lattice_determinant,
    run_group_corpus,
    verify_conjecture,
    verify_group_case,
    verify_table_fusion,
)

from oracles import dx_identity_by_values, full_merge


def test_self_fusion_gram_is_diagonal_of_centralizers():
    for name in ("C8", "D16", "ES7"):
        s = standard_group(name)
        p = 2 if name != "ES7" else 7
        tab = dixon_character_table(s)
        fusion = fusion_of_self(s, p)
        lattice = stable_character_basis(tab, fusion)
        x = character_table_matrix(lattice, fusion)
        m = gram_matrix(x)
        for i in range(len(m)):
            for j in range(len(m)):
                want = fusion.classes[i].centralizer_order if i == j else 0
                assert m[i][j] == want


def test_c8_counterexample_report():
    c8 = cyclic_group(8)
    a = c8.designated["a"]
    tab = dixon_character_table(c8)
    merged = apply_merges(fusion_of_self(c8, 2), [(a * a, a ** 2 * a ** 4)])
    report = verify_conjecture(merged, tab, "c8")
    assert report.lhs_det == 2 ** 22
    assert report.lhs_p_part == 2 ** 22
    assert report.rhs_product == 2 ** 21
    assert report.verdict == "counterexample"
    assert not report.saturation_certified
    assert "note" in report.checks


def test_transitive_extraspecial_paper_matrix():
    es = standard_group("ES7")
    tab = dixon_character_table(es)
    merged = full_merge(fusion_of_self(es, 7))
    lattice = stable_character_basis(tab, merged)
    # the listed transitive basis {1_S, reg - 1_S}
    triv_col = next(i for i, c in enumerate(tab.chars)
                    if all(v == 1 for v in c.values))
    triv = [1 if i == triv_col else 0 for i in range(tab.k)]
    reg_minus = list(tab.degrees())
    reg_minus[triv_col] -= 1
    basis = [triv, reg_minus]
    sub = stable_character_basis(tab, merged)
    x = []
    rep_cols = []
    from fuschar.groups import conjugacy_classes

    sc = conjugacy_classes(es)
    for fc in merged.classes:
        rep_cols.append(sc.class_index_of(es, fc.rep))
    for coeffs in basis:
        cf = tab.combination(coeffs)
        x.append([cf.values[i] for i in rep_cols])
    assert x[0] == [Cyclotomic.one(), Cyclotomic.one()]
    assert x[1][0] == 342 and x[1][1] == -1
    report = verify_conjecture(merged, tab, "es7")
    assert report.verdict == "verified"
    assert report.lhs_det == 7 ** 6 == report.rhs_product


def test_group_case_reports():
    rep = verify_group_case(standard_group("S4"), 2, "S4")
    assert rep.verdict == "verified"
    assert rep.checks["gcd_det_C_p"] == 1
    assert rep.checks["eq_3_2"] is True
    assert rep.checks["restriction_identity"] is True
    # normal Sylow instance
    rep = verify_group_case(standard_group("S3"), 3, "S3")
    assert rep.verdict == "verified"
    # G = S: the stable lattice is all of Z Irr(S), of discriminant 1
    rep = verify_group_case(standard_group("C16"), 2, "C16")
    assert rep.verdict == "verified" and rep.checks["lattice_discriminant"] == "1"
    # p not dividing |G|
    rep = verify_group_case(standard_group("S3"), 5, "S3")
    assert rep.verdict == "verified" and rep.k == 1


@pytest.mark.parametrize("name,p", [("S4", 5), ("C7", 2), ("A5", 7)])
def test_trivial_sylow_takes_the_general_path(name, p):
    """With p not dividing |G|, S = 1 and its one class gives k = 1; the
    cross-checks still run: det C = |G| and both identities hold."""
    g = standard_group(name)
    rep = verify_group_case(g, p, name)
    assert rep.verdict == "verified" and rep.k == 1
    assert rep.checks["det_C"] == str(g.order)
    assert rep.checks["eq_3_2"] is True
    assert rep.checks["restriction_identity"] is True


def test_corpus_isolates_errors():
    summary = run_group_corpus([("C6", 2), ("NOSUCH", 2), ("S3", 3)])
    assert summary["total"] == 3
    assert summary["verified"] == 2
    assert len(summary["failures"]) == 1
    assert summary["failures"][0].verdict == "error"


def test_corpus_runs_each_group_once_in_the_order_of_its_first_entry(monkeypatch):
    import weakref

    import fuschar.chartable

    entries = [("S4", 3), ("C6", 2), ("NOSUCH", 2), ("S4", 2), ("C6", 3), ("NOSUCH", 3)]
    loads, held = [], []

    def counted(name):
        # the previous group is freed, without a full garbage collection,
        # before the next one is loaded
        assert all(ref() is None for ref in held)
        loads.append(name)
        g = standard_group(name)
        held.append(weakref.ref(g))
        return g

    tabled = []
    original = fuschar.chartable._dixon_table

    def tabling(G):
        tabled.append(G.order)
        return original(G)

    monkeypatch.setattr(fuschar.chartable, "_dixon_table", tabling)
    seen = []
    summary = run_group_corpus(entries, progress=seen.append, load=counted)
    assert loads == ["S4", "C6", "NOSUCH"]
    assert seen == summary["reports"]
    reports = summary["reports"]
    assert [r.label for r in reports] == ["S4@p=3", "S4@p=2", "C6@p=2", "C6@p=3",
                                          "NOSUCH@p=2", "NOSUCH@p=3"]
    # S4 and C6 are tabled once each, beside one Sylow subgroup per entry
    assert tabled.count(24) == tabled.count(6) == 1
    for rep in reports[:4]:
        name, p = rep.label.split("@p=")
        fresh = verify_group_case(standard_group(name), int(p), rep.label)
        assert (rep.label, rep.verdict, rep.lhs_det, rep.rhs_product) == \
            (fresh.label, fresh.verdict, fresh.lhs_det, fresh.rhs_product)
    assert [r.verdict for r in reports] == ["verified"] * 4 + ["error"] * 2
    assert all("NOSUCH" in r.checks["error"] for r in reports[4:])


def test_table_mode_verification():
    rep = verify_table_fusion(table_3492())
    assert rep.verdict == "verified"
    assert rep.k == 8
    assert rep.lhs_p_part == rep.rhs_product == 3 ** 25


def test_exotic_p3_systems_verify():
    for name, expect_k in (("F1", 5), ("Op_F1", 6), ("G_prune", 9)):
        merged, ctx = build_exotic_fusion(name, 3)
        rep = verify_conjecture(merged, ctx.irr_s, name)
        assert rep.verdict == "verified"
        assert rep.k == expect_k


def test_certificates_p3():
    for certf, which, ratio_p in ((certificate_f1, "N_gamma", 3),
                                  (certificate_g, "N_b", 3),
                                  (certificate_op_f1, "N_gamma2", 3)):
        ctx = overgroup_context(3, which)
        rep = check_induction_certificate(certf(3), ctx.irr_s)
        assert rep.ok, rep.failures()
        assert rep.det_base == ratio_p ** 2 * rep.det_target
        assert rep.containment_index == 1


def _certificate_digest(certs) -> str:
    h = hashlib.sha256()
    for c in certs:
        h.update(repr((c.label, c.b_n, c.b_f, c.eta, repr(c.z), repr(c.u))).encode())
    return h.hexdigest()


# sha256 of (label, b_n, b_f, eta, z, u) of each certificate: a basis that
# changes but stays valid passes every hypothesis, so the rows are pinned
CERTIFICATE_DIGESTS = {
    ("F1", 3): "fd0ffe79a0d78d03d6abc28e5d7e4abb1a73d21cd963c0d57819fc50406b7e25",
    ("F1", 5): "64631e78353b99bce88b244a944545c57937bd4af387b38de051192082968350",
    ("F1", 7): "cda243b95128f8576cc5486b012cfc684742d7b1f82f4eea0ccd70c6f7357c3f",
    ("G_prune", 3): "c63efafaf687e6cbb98b3b266de6f174e2fafd8fc4f184012bd7dc45855849ca",
    ("G_prune", 5): "07ba54723a82dcb2451e2bcc0a5cb4dd9eff90ca39677a4eeaf6554cff39355a",
    ("chain:psu", 5): "0d8f4ef3cb45d64b27c2861eed1db75de481c218cbf56ece801117b76819267a",
    ("chain:g", 5): "bf56ca5d784b92f70c1d92ac3f7c6635e682f7f37113228f761220ed2da0e9c8",
}


@pytest.mark.parametrize("name,p", list(CERTIFICATE_DIGESTS))
def test_certificate_rows_are_pinned(name, p):
    if name.startswith("chain:"):
        certs = chain_certificates(name.removeprefix("chain:"), p)
    else:
        certs = [{"F1": certificate_f1, "G_prune": certificate_g}[name](p)]
    assert _certificate_digest(certs) == CERTIFICATE_DIGESTS[name, p]


def test_certificate_g_names_the_missing_table1_family(monkeypatch):
    # for p = 1 (mod 3) Table 1 has the chi_0s_t family in place of chi_01;
    # that is known from Table 1 alone, before any overgroup is built
    def no_context(*args):
        raise AssertionError("certificate_g built an overgroup context")

    monkeypatch.setattr("fuschar.exotic.overgroup_context", no_context)
    with pytest.raises(LookupError, match="chi_01 family, which exists only for p != 1"):
        certificate_g(7)


def test_corrupted_certificate_names_failures():
    ctx = overgroup_context(3, "N_gamma")
    # eta swapped for the trivial character, whose value difference on the
    # fused pair is 0
    corrupted = certificate_f1(3)._replace(eta=0)
    rep = check_induction_certificate(corrupted, ctx.irr_s)
    assert not rep.ok
    assert "eta_difference_pm_p" in rep.failures()


def test_exotic_items_name_their_overgroups_and_primes():
    assert base_construction_for("G_prune", 5) == "N_b"
    assert base_construction_for("Op_F1", 5) == "N_gamma4star"
    assert base_construction_for("Op_F1", 3) == "N_gamma2"
    assert CHAIN_BASES["g"] == "N_b"
    # without p, the chains run at p = 5 and every other exotic system at p = 3
    exotic_items = {name: item for name, item in ITEMS.items() if name.startswith("exotic:")}
    assert {name: item.p for name, item in exotic_items.items()} == {
        "exotic:G_prune": 3, "exotic:F1": 3, "exotic:Op_F1": 3, "exotic:F_3492": 3,
        "exotic:F547_chain:psu": 5, "exotic:F547_chain:g": 5}
    assert ITEMS["exotic:F_3492"].fixed
    assert all(ITEMS[f"exotic:F547_chain:{family}"].fixed for family in CHAIN_LABELS)


def test_basis_change_invariance_small():
    c8 = cyclic_group(8)
    a = c8.designated["a"]
    tab = dixon_character_table(c8)
    merged = apply_merges(fusion_of_self(c8, 2), [(a * a, a ** 6)])
    lattice = stable_character_basis(tab, merged)
    from fuschar.verify import gram_determinant

    x = character_table_matrix(lattice, merged)
    base_det, _ = gram_determinant(x)
    # row operation: add row 1 to row 0 (unimodular)
    new_basis = [list(r) for r in lattice.basis]
    new_basis[0] = [x + y for x, y in zip(new_basis[0], new_basis[1])]
    lattice2 = stable_character_basis(tab, merged)._replace(basis=new_basis)
    x2 = character_table_matrix(lattice2, merged)
    det2, _ = gram_determinant(x2)
    assert det2 == base_det


def test_group_case_builds_the_stable_lattice_once(monkeypatch):
    import fuschar.verify

    calls = []

    def counting(irr_s, fusion):
        calls.append(fusion)
        return stable_character_basis(irr_s, fusion)

    monkeypatch.setattr(fuschar.verify, "stable_character_basis", counting)
    rep = verify_group_case(standard_group("S4"), 2, "S4@p=2")
    assert rep.verdict == "verified" and rep.checks["restriction_identity"] is True
    assert len(calls) == 1


def test_builtin_corpus_and_prime_expansion():
    entries = builtin_corpus()
    assert len(entries) == 180
    assert entries[:4] == [("C2", 2), ("C3", 3), ("C4", 2), ("C5", 5)]
    assert ("GL2_3", 2) in entries and ("GL2_3", 3) in entries
    # p = 0 expands to every prime divisor of the group order
    summary = run_group_corpus([("C6", 0), ("S3", 3)])
    assert [r.label for r in summary["reports"]] == ["C6@p=2", "C6@p=3", "S3@p=3"]
    assert summary["verified"] == 3


def _fusions_for_the_integer_determinant():
    s4, sl23 = standard_group("S4"), standard_group("SL2_3")
    c8 = cyclic_group(8)
    a = c8.designated["a"]
    yield fusion_from_group(s4, sylow_subgroup(s4, 2), 2)
    yield fusion_from_group(sl23, sylow_subgroup(sl23, 2), 2)
    yield apply_merges(fusion_of_self(c8, 2), [(a * a, a ** 6)])  # example 27
    for name, p in (("D16", 2), ("ES3", 3)):
        base = fusion_of_self(standard_group(name), p)
        x, y = [fc.rep for fc in base.classes if fc.rep_order == p][:2]
        yield apply_merges(base, [(x, y)])


def test_lattice_determinant_matches_the_cyclotomic_gram():
    for fusion in _fusions_for_the_integer_determinant():
        tab = dixon_character_table(fusion.S)
        lattice = stable_character_basis(tab, fusion)
        b = lattice.basis
        det, disc = lattice_determinant(mat_mul(b, transpose(b)), fusion.S.order,
                                        [fc.size for fc in fusion.classes])
        assert det == gram_determinant(character_table_matrix(lattice, fusion))[0] > 0
        rep = verify_conjecture(fusion, tab)
        assert (rep.lhs_det, rep.checks["lattice_discriminant"]) == (det, str(disc))
    with pytest.raises(ArithmeticError, match="not divisible"):
        lattice_determinant([[1]], 2, [3])


def test_table_and_certificate_determinants_match_the_cyclotomic_gram():
    tf = table_3492()
    groups = []
    for grp in tf.merged_partition():
        anchor = max(grp, key=lambda j: (tf.centralizer_orders[j], -j))
        groups.append([anchor] + [j for j in grp if j != anchor])
    k = stable_sublattice(identity_matrix(10), tf.basis_values, groups, 9, len(groups))
    oracle, _ = gram_determinant(evaluate(k, tf.basis_values, [g[0] for g in groups]))
    assert verify_table_fusion(tf).lhs_det == oracle == 3 ** 25
    for certf, which in ((certificate_f1, "N_gamma"), (certificate_g, "N_b"),
                         (certificate_op_f1, "N_gamma2")):
        irr_s = overgroup_context(3, which).irr_s
        cert = certf(3)
        rep = check_induction_certificate(cert, irr_s)
        for rows, fusion, det in ((cert.b_n, cert.base, rep.det_base),
                                  (cert.b_f, cert.target, rep.det_target)):
            lattice = StableLattice(fusion, irr_s, rows, len(rows))
            assert det == gram_determinant(character_table_matrix(lattice, fusion))[0]


def test_verdicts_need_no_cyclotomic_gram(monkeypatch):
    import fuschar.verify

    def refuse(*args):
        raise RuntimeError("the cyclotomic Gram is only a test oracle")

    monkeypatch.setattr(fuschar.verify, "gram_matrix", refuse)
    monkeypatch.setattr(fuschar.verify, "gram_determinant", refuse)
    c8 = cyclic_group(8)
    a = c8.designated["a"]
    merged = apply_merges(fusion_of_self(c8, 2), [(a * a, a ** 6)])
    assert verify_conjecture(merged, dixon_character_table(c8)).verdict == "counterexample"
    assert verify_group_case(standard_group("S4"), 2).verdict == "verified"
    assert verify_table_fusion(table_3492()).verdict == "verified"
    cert_rep = check_induction_certificate(certificate_f1(3), overgroup_context(3, "N_gamma").irr_s)
    assert cert_rep.ok and cert_rep.det_base == 9 * cert_rep.det_target


def test_table_mode_failures_are_error_verdicts():
    tf = table_3492()
    tf.basis_values[0] = [Cyclotomic.one()] + [Cyclotomic.zero()] * 9
    rep = verify_table_fusion(tf)
    assert rep.verdict == "error"
    assert "not virtual characters" in rep.checks["error"]
    # merging g2 with g3 leaves a stable lattice of too small a rank
    tf = table_3492()
    tf.merge_groups = [[1, 2]]
    rep = verify_table_fusion(tf)
    assert rep.verdict == "error" and "rank 8 != class count 9" in rep.checks["error"]


def test_restrictions_and_stability_need_no_canonical_key(monkeypatch):
    def refuse(self):
        raise RuntimeError("verdict paths key values by their embedded coefficients")

    monkeypatch.setattr(Cyclotomic, "key", refuse)
    monkeypatch.setattr(Cyclotomic, "minimized", refuse)
    for name, p in (("S4", 2), ("GL2_3", 3), ("C64", 2), ("D16", 2)):
        rep = verify_group_case(standard_group(name), p)
        assert rep.verdict == "verified" and rep.checks["restriction_identity"] is True
    c8 = cyclic_group(8)
    a = c8.designated["a"]
    merged = apply_merges(fusion_of_self(c8, 2), [(a * a, a ** 6)])
    assert verify_conjecture(merged, dixon_character_table(c8)).verdict == "counterexample"
    contexts = {which: overgroup_context.__wrapped__(3, which)
                for which in ("N_gamma", "N_b", "N_gamma2")}
    for which, ctx in contexts.items():
        cached = overgroup_context(3, which)
        assert [(r.coords, r.degree, r.n_preimages) for r in ctx.rows] == \
            [(r.coords, r.degree, r.n_preimages) for r in cached.rows]
    for certf, which in ((certificate_f1, "N_gamma"), (certificate_g, "N_b"),
                         (certificate_op_f1, "N_gamma2")):
        assert check_induction_certificate(certf(3), contexts[which].irr_s).ok
    corrupted = certificate_f1(3)._replace(eta=0)
    rep = check_induction_certificate(corrupted, contexts["N_gamma"].irr_s)
    assert sorted(rep.failures()) == [
        "b_f_basis_of_target", "bijection_multiplicity_one", "determinant_relation",
        "eta_difference_pm_p", "eta_sum_direct_in_base", "transform_unimodular"]


def test_restriction_identity_catches_a_wrong_decomposition_entry(monkeypatch):
    import fuschar.verify
    from fuschar.stable import decomposition_matrix

    def off_by_one(*args):
        dec = decomposition_matrix(*args)
        dec.d_matrix[-1][0] += 1
        return dec

    monkeypatch.setattr(fuschar.verify, "decomposition_matrix", off_by_one)
    for name, p in (("S4", 2), ("D16", 2)):
        rep = verify_group_case(standard_group(name), p)
        assert rep.checks["restriction_identity"] is False and rep.verdict == "error"


def _dx_check_inputs(g, p):
    """The arguments verify_group_case passes to _check_dx_identity."""
    s = sylow_subgroup(g, p)
    fusion = fusion_from_group(g, s, p)
    lattice = stable_character_basis(dixon_character_table(s), fusion)
    irr_g = dixon_character_table(g)
    dec = decomposition_matrix(irr_g, s, lattice)
    g_cols = [irr_g.classes.class_index_of(g, fc.rep) for fc in fusion.classes]
    return dec, lattice, irr_g, g_cols


def test_dx_identity_agrees_with_the_value_oracle():
    for name, p in (("S4", 2), ("S4", 3), ("GL2_3", 2), ("SL2_3", 3), ("A5", 5),
                    ("D12", 2), ("D62", 31), ("C60", 2)):
        args = _dx_check_inputs(standard_group(name), p)
        assert _check_dx_identity(*args) is dx_identity_by_values(*args) is True


def test_dx_identity_sees_one_corrupted_value_on_a_shared_row():
    """The trivial and the sign character of S3 restrict alike to C3, so they
    share one row of D B; corrupting the sign at one column must still fail."""
    dec, lattice, irr_g, g_cols = _dx_check_inputs(standard_group("S3"), 3)
    rows = [tuple(row) for row in mat_mul(dec.d_matrix, lattice.basis)]
    i, j = next((i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))
                if rows[i] == rows[j])
    for gcls in g_cols:
        for target in (i, j):
            chars = list(irr_g.chars)
            vals = list(chars[target].values)
            vals[gcls] += 1
            chars[target] = ClassFunction(tuple(vals))
            bad = irr_g._replace(chars=chars)
            assert _check_dx_identity(dec, lattice, bad, g_cols) is False
            assert dx_identity_by_values(dec, lattice, bad, g_cols) is False


def test_dx_identity_evaluates_each_distinct_row_once(monkeypatch):
    """One cyclo_dot per distinct row of D B that is not a single irreducible,
    per fusion column: a unit row is read off Irr(S)."""
    import fuschar.chartable

    calls = []
    original = fuschar.chartable.cyclo_dot

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fuschar.chartable, "cyclo_dot", counted)
    # Irr(C60) onto Irr(C4): unit rows only; the degree-2 character of S3
    # restricts to psi1 + psi2 on C3, and each of D62's 15 to a pair on C31;
    # both degree-2 characters of D12 restrict to the one sum psi1 + psi2 on C3,
    # so evaluating every row rather than every distinct row doubles its calls
    for g, p, n_rows, n_sums, n_sum_rows in (
            (cyclic_group(60), 2, 4, 0, 0), (standard_group("S3"), 3, 2, 1, 1),
            (standard_group("D12"), 3, 2, 1, 2), (standard_group("D62"), 31, 16, 15, 15)):
        dec, lattice, irr_g, g_cols = _dx_check_inputs(g, p)
        db_rows = [tuple(row) for row in mat_mul(dec.d_matrix, lattice.basis)]
        rows = set(db_rows)
        assert len(rows) == n_rows < len(dec.d_matrix)
        assert sum([w for w in row if w] != [1] for row in rows) == n_sums
        assert sum([w for w in row if w] != [1] for row in db_rows) == n_sum_rows
        calls.clear()
        assert _check_dx_identity(dec, lattice, irr_g, g_cols) is True
        assert len(calls) == n_sums * len(g_cols)


def test_x_matrix_reads_unit_rows_off_and_sums_the_rest():
    values = [[Cyclotomic.root_of_unity(4, k * j) for k in range(4)] for j in range(4)]
    cols = [3, 0, 1]
    rows = [[0, 1, 0, 0], [0, 0, 0, 1], [0, -1, 0, 0], [0, 2, 0, 0], [1, 1, 0, 0],
            [1, 0, -1, 1], [0, 0, 0, 0]]
    x = evaluate(rows, values, cols)
    for row, x_row in zip(rows, x):
        assert x_row == [sum((w * values[c][j] for c, w in enumerate(row)), Cyclotomic.zero())
                         for j in cols]
    assert all(a is values[1][j] for a, j in zip(x[0], cols))


def test_corpus_reports_do_not_depend_on_a_warm_embedding_memo():
    from fuschar.cyclotomic import _embed

    entries = [("C64", 2), ("D62", 31), ("S4", 3), ("C62", 31)]
    _embed.cache_clear()
    cold = run_group_corpus(entries)["reports"]
    warm = run_group_corpus(entries)["reports"]
    assert _embed.cache_info().hits > 0
    assert [r.verdict for r in cold] == ["verified"] * 4
    assert [(r.label, r.verdict, r.lhs_det, r.rhs_product, r.checks) for r in cold] == \
        [(r.label, r.verdict, r.lhs_det, r.rhs_product, r.checks) for r in warm]


def test_corpus_frees_each_sylow_subgroup_without_a_garbage_collection(monkeypatch):
    """Irr(S) refers back to S; verify_group_case cuts that cycle, so with the
    collector off no Sylow subgroup is left alive when the next group loads."""
    import gc
    import weakref

    import fuschar.verify

    held, alive = [], []
    original = fuschar.verify.sylow_subgroup

    def tracked(G, p):
        S = original(G, p)
        held.append(weakref.ref(S))
        return S

    def load(name):
        alive.append(sum(ref() is not None for ref in held))
        return standard_group(name)

    monkeypatch.setattr(fuschar.verify, "sylow_subgroup", tracked)
    names = ["S4", "D12", "C6", "A5", "C8", "GL2_3", "S3"]
    gc.disable()
    try:
        summary = run_group_corpus([(name, 0) for name in names], load=load)
    finally:
        gc.enable()
    assert summary["verified"] == summary["total"] == len(held) == 14
    assert len(alive) == len(names) and max(alive) == 0


def test_b_f_stable_fails_when_a_row_breaks_constancy():
    irr_s = overgroup_context(3, "N_gamma").irr_s
    cert = certificate_f1(3)
    # an irreducible of S that takes two values on one target fusion class
    j = next(j for j, psi in enumerate(irr_s.chars)
             if any(psi.values[a] != psi.values[b]
                    for fc in cert.target.classes
                    for a in fc.s_class_indices for b in fc.s_class_indices))
    cert.b_f[1][j] += 1
    assert "b_f_stable" in check_induction_certificate(cert, irr_s).failures()


def test_verdicts_need_no_cyclotomic_multiplication(monkeypatch):
    def refuse(*args):
        raise RuntimeError("cyclotomic products go through cyclo_dot")

    monkeypatch.setattr(Cyclotomic, "__mul__", refuse)
    monkeypatch.setattr(Cyclotomic, "__rmul__", refuse)
    for name, p in (("S4", 2), ("GL2_3", 3), ("C64", 2), ("D16", 2)):
        rep = verify_group_case(standard_group(name), p, name)
        assert rep.verdict == "verified", rep.checks
        assert rep.checks["eq_3_2"] and rep.checks["restriction_identity"]
    for certf, which in ((certificate_f1, "N_gamma"), (certificate_g, "N_b"),
                         (certificate_op_f1, "N_gamma2")):
        rep = check_induction_certificate(certf(3), overgroup_context(3, which).irr_s)
        assert rep.ok, rep.failures()


def test_a_certificate_chain_builds_each_stable_lattice_once(monkeypatch, capsys):
    import fuschar.cli
    import fuschar.stable
    import fuschar.verify

    calls = []

    def counted(name):
        original = getattr(fuschar.stable, name)

        def call(lattice_or_table, fusion):
            calls.append((name, fusion))
            return original(lattice_or_table, fusion)
        return call

    for name in ("stable_character_basis", "refine_stable_lattice"):
        wrapped = counted(name)
        monkeypatch.setattr(fuschar.stable, name, wrapped)
        monkeypatch.setattr(fuschar.verify, name, wrapped)
    for family, steps in (("psu", 4), ("g", 5)):
        del calls[:]
        assert fuschar.cli.main(["paper", "--item", f"exotic:F547_chain:{family}"]) == 0
        assert capsys.readouterr().out.count("certificate passed") == steps
        # one full kernel for the base, then each target refined from the
        # step before: every lattice is built once
        assert [name for name, _ in calls] == \
            ["stable_character_basis"] + ["refine_stable_lattice"] * steps
        assert len({id(f) for _, f in calls}) == 1 + steps


def test_a_chain_reports_as_its_steps_checked_one_by_one():
    from fuschar.exotic import chain_certificates

    irr_s = overgroup_context(5, "N_b").irr_s
    certs = chain_certificates("g", 5)
    chained = check_certificate_chain(certs, irr_s)
    assert chained == [check_induction_certificate(cert, irr_s) for cert in certs]
    assert all(rep.ok for rep in chained)
    assert all(rep.target_lattice.fusion is c.target for rep, c in zip(chained, certs))
    # a lattice built for another fusion system is refused, not used
    with pytest.raises(ValueError, match="another fusion system"):
        check_induction_certificate(certs[0], irr_s, chained[0].target_lattice)


def test_a_chain_prints_one_json_object(capsys):
    import fuschar.cli

    assert fuschar.cli.main(["--format", "json", "paper", "--item", "exotic:F547_chain:g"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["input"] == "F547_chain:g@p=5"
    assert len(data["certificates"]) == len(CHAIN_LABELS["g"])
    for cert in data["certificates"]:
        assert cert["ok"] and cert["failures"] == []
        assert cert["containment_index"] == "1"
        assert int(cert["det_base"]) > int(cert["det_target"]) > 0
    assert data["certificates"][0]["label"] == "G_prune@p=5"
