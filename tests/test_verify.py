import pytest

from fuschar.chartable import dixon_character_table
from fuschar.cyclotomic import Cyclotomic
from fuschar.exotic import (
    build_exotic_fusion,
    certificate_f1,
    certificate_g,
    certificate_op_f1,
    corrupted_certificate_f1,
    exotic_fusion_spec,
    overgroup_context,
    table_3492,
)
from fuschar.fusion import apply_merges, full_merge, fusion_from_group, fusion_of_self
from fuschar.groups import cyclic_group, standard_group, sylow_subgroup
from fuschar.intlinalg import mat_mul, transpose
from fuschar.stable import StableLattice, stable_character_basis, stable_kernel_basis
from fuschar.verify import (
    _x_matrix,
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


def test_corpus_isolates_errors():
    summary = run_group_corpus([("C6", 2), ("NOSUCH", 2), ("S3", 3)])
    assert summary["total"] == 3
    assert summary["verified"] == 2
    assert len(summary["failures"]) == 1
    assert summary["failures"][0].verdict == "error"


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


def test_corrupted_certificate_names_failures():
    ctx = overgroup_context(3, "N_gamma")
    rep = check_induction_certificate(corrupted_certificate_f1(3), ctx.irr_s)
    assert not rep.ok
    assert "eta_difference_pm_p" in rep.failures()


def test_exotic_spec_serialization():
    spec = exotic_fusion_spec("G_prune", 5)
    assert spec == {"name": "G_prune", "p": 5, "mode": "group", "base": "N_b",
                    "merges": [["z", "u"]]}
    spec = exotic_fusion_spec("Op_F1", 5)
    assert spec["base"] == "N_gamma4star"
    spec = exotic_fusion_spec("Op_F1", 3)
    assert spec["base"] == "N_gamma2"
    spec = exotic_fusion_spec("F_3492", 3)
    assert spec["mode"] == "table"
    spec = exotic_fusion_spec("F547_chain:g", 5)
    assert spec["family"] == "g" and spec["base"] == "N_b"


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
    lattice2 = stable_character_basis(tab, merged)
    lattice2.basis = new_basis
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
    k = stable_kernel_basis(tf.basis_values, groups, 9)
    oracle, _ = gram_determinant(_x_matrix(k, tf.basis_values, [g[0] for g in groups]))
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
    rep = check_induction_certificate(corrupted_certificate_f1(3), contexts["N_gamma"].irr_s)
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
    original = fuschar.stable.stable_character_basis

    def counted(irr_s, fusion):
        calls.append(fusion)
        return original(irr_s, fusion)

    monkeypatch.setattr(fuschar.stable, "stable_character_basis", counted)
    monkeypatch.setattr(fuschar.verify, "stable_character_basis", counted)
    assert fuschar.cli.main(["paper", "--item", "exotic:F547_chain:psu"]) == 0
    assert capsys.readouterr().out.count("certificate passed") == 4
    # one lattice for the base and one for each of the four targets
    assert len(calls) == 5
    assert len({id(f) for f in calls}) == 5


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
