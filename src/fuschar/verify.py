"""Assemble fusion character-table matrices, evaluate both sides of the
determinant identity |X conj(X)^T|_p = prod |C_S(s)|, check induction
certificates, and run whole-group corpus verifications.
"""

from __future__ import annotations

import time
from math import gcd, lcm, prod
from typing import NamedTuple

from .chartable import CharacterTable, dixon_character_table, evaluate
from .cyclotomic import Cyclotomic, cyclo_dot
from .fusion import FusionData, TableFusion, centralizer_product, fusion_from_group
from .groups import FiniteGroup, conjugacy_classes, standard_group, sylow_subgroup
from .intlinalg import (det_exact, hnf, identity_matrix, lattice_index, mat_mul, p_part,
                        prime_divisors, transpose)
from .stable import (
    StableLattice,
    decomposition_matrix,
    refine_stable_lattice,
    stable_character_basis,
    stable_sublattice,
)


class VerificationReport:
    __slots__ = ("label", "p", "k", "reps", "lhs_det", "lhs_p_part", "rhs_product",
                 "verdict", "saturation_certified", "checks", "seconds")

    def __init__(self, label: str, p: int, k: int, reps: list, lhs_det: int, lhs_p_part: int,
                 rhs_product: int, verdict: str, saturation_certified: bool,
                 checks: dict | None = None, seconds: float = 0.0) -> None:
        self.label = label
        self.p = p
        self.k = k
        self.reps = reps  # (repr string, element order, |C_S|)
        self.lhs_det = lhs_det
        self.lhs_p_part = lhs_p_part
        self.rhs_product = rhs_product
        self.verdict = verdict  # "verified" | "counterexample" | "error"
        self.saturation_certified = saturation_certified
        self.checks = {} if checks is None else checks
        self.seconds = seconds

    @property
    def ok(self) -> bool:
        return self.verdict == "verified"

    def lines(self) -> list[str]:
        return [f"{self.label}: {self.verdict}",
                f"  p = {self.p}, k(F) = {self.k}",
                f"  lhs det      = {self.lhs_det}",
                f"  lhs p-part   = {self.lhs_p_part}",
                f"  rhs product  = {self.rhs_product}",
                f"  saturation certified: {self.saturation_certified}"] + \
            [f"  {key}: {val}" for key, val in self.checks.items()]

    def to_json(self) -> dict:
        return {
            "input": self.label,
            "p": self.p,
            "k_F": self.k,
            "reps": [{"word": r, "order": o, "cS": c} for r, o, c in self.reps],
            "lhs_det": str(self.lhs_det),
            "lhs_p_part": str(self.lhs_p_part),
            "rhs_product": str(self.rhs_product),
            "verdict": self.verdict,
            "saturation_certified": self.saturation_certified,
            "checks": {k: v for k, v in self.checks.items()},
            "seconds": round(self.seconds, 3),
        }


def character_table_matrix(lattice: StableLattice, fusion: FusionData) -> list[list[Cyclotomic]]:
    """X[i][j] = value of basis row i at the j-th fully centralised rep."""
    sc = conjugacy_classes(fusion.S)
    return evaluate(lattice.basis, [chi.values for chi in lattice.irr_s.chars],
                    [sc.class_index_of(fusion.S, fc.rep) for fc in fusion.classes])


def gram_matrix(x: list[list[Cyclotomic]]) -> list[list[Cyclotomic]]:
    """Column Gram conj(X)^T X; its (s, t) entry is sum_rows conj(X[r][s]) X[r][t].

    The determinant agrees with that of X conj(X)^T, and column orthogonality
    makes this form exactly diag(|C_S(s)|) for the fusion of S on itself.
    """
    n = len(x)
    cols = [[row[j] for row in x] for j in range(n)]
    ones = [1] * n
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            out[i][j] = cyclo_dot(ones, cols[j], cols[i])
            if j != i:
                out[j][i] = out[i][j].conjugate()
    return out


def gram_determinant(x: list[list[Cyclotomic]]) -> tuple[int, bool]:
    """(det of X conj(X)^T as a rational integer, diagonal flag); the test oracle."""
    m = gram_matrix(x)
    n = len(m)
    diagonal = all(m[i][j].is_zero() for i in range(n) for j in range(n) if i != j)
    det = det_exact(m).rational_value()
    if det < 0:
        raise AssertionError("Gram determinant must be nonnegative")
    return det, diagonal


def lattice_determinant(gram: list[list[int]], order: int,
                        class_sizes: list[int]) -> tuple[int, int]:
    """(det of X conj(X)^T, det(gram)) from the integer Gram of a stable basis.

    The basis is constant on each fusion class C_i, so its Gram is
    X diag(|C_i|/|S|) conj(X)^T and det(X conj(X)^T) = det(gram) |S|^k / prod |C_i|.
    """
    discriminant = det_exact(gram)
    det, rem = divmod(discriminant * order ** len(class_sizes), prod(class_sizes))
    if rem:
        raise ArithmeticError("det(gram) * |S|^k is not divisible by prod |C_i|")
    return det, discriminant


def _basis_determinant(basis: list[list[int]], fusion: FusionData) -> tuple[int, int]:
    """lattice_determinant of rows in orthonormal Irr(S) coordinates: Gram B B^T."""
    return lattice_determinant(mat_mul(basis, transpose(basis)), fusion.S.order,
                               [fc.size for fc in fusion.classes])


def verify_conjecture(fusion: FusionData, irr_s: CharacterTable,
                      label: str = "") -> VerificationReport:
    """Both sides of the determinant identity for one fusion partition."""
    return _verify(fusion, irr_s, label)[0]


def _verify(fusion: FusionData, irr_s: CharacterTable, label: str):
    """(report, stable lattice); the lattice is None if it could not be built."""
    t0 = time.perf_counter()
    p = fusion.p
    rhs = centralizer_product(fusion)
    if rhs != p_part(rhs, p):
        raise AssertionError("centralizer product must be a power of p")
    reps = [(repr(fc.rep), fc.rep_order, fc.centralizer_order) for fc in fusion.classes]
    try:
        lattice = stable_character_basis(irr_s, fusion)
        dets = _basis_determinant(lattice.basis, fusion)
    except (AssertionError, ArithmeticError, ValueError) as exc:
        lattice, dets = None, str(exc)
    return _report(label, p, reps, rhs, fusion.saturation_certified, t0, dets), lattice


def _report(label: str, p: int, reps: list, rhs: int, certified: bool, t0: float,
            dets: tuple[int, int] | str) -> VerificationReport:
    """The report of both modes from (det, discriminant) or an error message:
    an error or a singular matrix is an "error" verdict, else the p-part decides."""
    if dets == (0, 0):
        dets = "singular character table matrix"
    if isinstance(dets, str):
        return VerificationReport(label, p, len(reps), reps, 0, 0, rhs, "error",
                                  certified, {"error": dets}, time.perf_counter() - t0)
    det, discriminant = dets
    lhs_p = p_part(det, p)
    verdict = "verified" if lhs_p == rhs else "counterexample"
    checks = {"lattice_discriminant": str(discriminant)}
    if not certified and verdict == "counterexample":
        checks["note"] = ("identity fails on an input not certified saturated; "
                          "this is not a counterexample to the saturated conjecture")
    return VerificationReport(label, p, len(reps), reps, det, lhs_p, rhs, verdict,
                              certified, checks, time.perf_counter() - t0)


def verify_group_case(G: FiniteGroup, p: int, label: str = "") -> VerificationReport:
    """Whole pipeline for the fusion of a finite group on its Sylow p-subgroup,
    with the exact decomposition-matrix identities as cross-checks."""
    t0 = time.perf_counter()
    S = sylow_subgroup(G, p)
    fusion = fusion_from_group(G, S, p)
    irr_s = dixon_character_table(S)
    if S is not G:
        S._table = None  # Irr(S) refers back to S: uncached, S is freed on return
    report, lattice = _verify(fusion, irr_s, label)
    if report.verdict == "error":
        return report
    irr_g = dixon_character_table(G)
    dec = decomposition_matrix(irr_g, S, lattice)
    det_c = dec.det_c
    report.checks["det_C"] = str(det_c)
    report.checks["gcd_det_C_p"] = gcd(abs(det_c), p)
    gc = irr_g.classes
    g_cols = [gc.class_index_of(G, fc.rep) for fc in fusion.classes]
    prod_cg = prod(gc.classes[j].centralizer_order for j in g_cols)
    report.checks["eq_3_2"] = (report.lhs_det * det_c == prod_cg)
    report.checks["restriction_identity"] = _check_dx_identity(dec, lattice, irr_g, g_cols)
    if report.checks["gcd_det_C_p"] != 1 or not report.checks["eq_3_2"] \
            or not report.checks["restriction_identity"]:
        report.verdict = "error"
    report.seconds = time.perf_counter() - t0
    return report


def _check_dx_identity(dec, lattice: StableLattice, irr_g: CharacterTable,
                       g_cols: list[int]) -> bool:
    """(D X)[chi][s] must equal chi(s) for every chi in Irr(G); g_cols
    are the G-classes of the fusion representatives.  X = B Psi, so D X is
    evaluated as (D B) Psi: the integer product first, then the values of
    Irr(S) at the representatives' S-classes.  Each distinct row of D B is
    evaluated once, and values are compared with `==` (canonical forms are
    unique, so it embeds only when the orders differ)."""
    fusion = lattice.fusion
    sc = conjugacy_classes(fusion.S)
    db_rows = [tuple(row) for row in mat_mul(dec.d_matrix, lattice.basis)]
    distinct = list(dict.fromkeys(db_rows))
    s_cols = [sc.class_index_of(fusion.S, fc.rep) for fc in fusion.classes]
    psi_values = [psi.values for psi in lattice.irr_s.chars]
    dx = dict(zip(distinct, evaluate(distinct, psi_values, s_cols)))
    return all(dx[row] == [chi.values[gcls] for gcls in g_cols]
               for row, chi in zip(db_rows, irr_g.chars))


# -- table mode ---------------------------------------------------------------


def verify_table_fusion(tf: TableFusion, label: str = "") -> VerificationReport:
    """Verify the identity from explicit basis values and class data."""
    t0 = time.perf_counter()
    groups = []
    for grp in tf.merged_partition():
        anchor = max(grp, key=lambda j: (tf.centralizer_orders[j], -j))
        groups.append([anchor] + [j for j in grp if j != anchor])
    reps = [(tf.labels[grp[0]], 0, tf.centralizer_orders[grp[0]]) for grp in groups]
    try:
        e = lcm(*(v.order for row in tf.basis_values for v in row))
        basis = stable_sublattice(identity_matrix(len(tf.basis_values)), tf.basis_values,
                                  groups, e, len(groups))
        gram = mat_mul(mat_mul(basis, _table_gram(tf)), transpose(basis))
        dets = lattice_determinant(gram, tf.group_order,
                                   [sum(tf.class_sizes[j] for j in grp) for grp in groups])
    except (AssertionError, ArithmeticError, ValueError) as exc:
        dets = str(exc)
    return _report(label or tf.name, tf.p, reps, prod(c for _, _, c in reps), False, t0, dets)


def _table_gram(tf: TableFusion) -> list[list[int]]:
    """Integer Gram <a, b> of the basis rows from the base class sizes; a
    non-integral entry means the rows are not virtual characters."""
    sums = [[cyclo_dot(tf.class_sizes, a, b) for b in tf.basis_values]
            for a in tf.basis_values]
    if not all(v.is_rational_integer() and v.rational_value() % tf.group_order == 0
               for row in sums for v in row):
        raise ValueError("table-mode basis rows are not virtual characters")
    return [[v.rational_value() // tf.group_order for v in row] for row in sums]


# -- induction certificates ----------------------------------------------------


class InductionCertificate(NamedTuple):
    """Data transporting the identity from a verified subsystem to a coarser one.

    `b_n` is a basis of the stable lattice of `base` (rows in Irr(S)
    coordinates), `b_f` the candidate basis for `target`, `eta` an index
    into b_n, and (z, u) the newly fused pair with z central.
    """

    label: str
    base: FusionData
    target: FusionData
    b_n: list[list[int]]
    b_f: list[list[int]]
    eta: int
    z: object
    u: object


class CertificateReport:
    __slots__ = ("label", "hypotheses", "ok", "det_base", "det_target", "containment_index",
                 "target_lattice")

    def __init__(self, label: str, hypotheses: dict, ok: bool, det_base: int = 0,
                 det_target: int = 0, containment_index: int = 0,
                 target_lattice: StableLattice | None = None) -> None:
        self.label = label
        self.hypotheses = hypotheses
        self.ok = ok
        self.det_base = det_base
        self.det_target = det_target
        self.containment_index = containment_index
        self.target_lattice = target_lattice

    def _compared(self) -> tuple:  # all but target_lattice, a by-product: not in == or repr
        return tuple(getattr(self, name) for name in self.__slots__[:-1])

    def __eq__(self, other) -> bool:
        return isinstance(other, CertificateReport) and self._compared() == other._compared()

    def __repr__(self) -> str:
        return f"CertificateReport{self._compared()!r}"

    def failures(self) -> list[str]:
        return [name for name, good in self.hypotheses.items() if not good]

    def to_json(self) -> dict:
        return {"label": self.label, "ok": self.ok, "failures": self.failures(),
                "det_base": str(self.det_base), "det_target": str(self.det_target),
                "containment_index": str(self.containment_index)}


def check_induction_certificate(cert: InductionCertificate, irr_s: CharacterTable,
                                base_lattice: StableLattice | None = None
                                ) -> CertificateReport:
    """Check every hypothesis of one certificate step.

    `base_lattice` is the stable lattice of `cert.base` when the caller has
    already built it (`check_certificate_chain`); it is built here otherwise.
    The report carries the target lattice for the next step of a chain.
    """
    hyp: dict[str, bool] = {}
    S = cert.base.S
    p = cert.base.p
    sc = conjugacy_classes(S)

    if base_lattice is None:
        base_lattice = stable_character_basis(irr_s, cert.base)
    elif base_lattice.fusion is not cert.base or base_lattice.irr_s is not irr_s:
        raise ValueError("the given base lattice belongs to another fusion system or table")
    hyp["b_n_is_basis"] = _spans_same_lattice(base_lattice.basis, cert.b_n)
    hyp["class_count_drop"] = cert.target.k + 1 == cert.base.k
    hyp["pair_not_base_fused"] = (cert.base.class_of_element(cert.u)
                                  != cert.base.class_of_element(cert.z))
    hyp["pair_target_fused"] = (cert.target.class_of_element(cert.u)
                                == cert.target.class_of_element(cert.z))
    z_idx = sc.class_index_of(S, cert.z)
    u_idx = sc.class_index_of(S, cert.u)
    hyp["z_central"] = sc.classes[z_idx].centralizer_order == S.order
    hyp["u_centralizer_p2"] = sc.classes[u_idx].centralizer_order == p * p

    [[at_u, at_z]] = evaluate([cert.b_n[cert.eta]], [chi.values for chi in irr_s.chars],
                              [u_idx, z_idx])
    diff = at_u - at_z
    hyp["eta_difference_pm_p"] = diff == p or diff == -p

    solve = hnf(cert.b_n).solve
    coeffs = [solve(row) for row in cert.b_f]
    solvable = None not in coeffs
    hyp["b_f_over_b_n"] = solvable
    if solvable:
        hyp["bijection_multiplicity_one"] = _has_unit_matching(coeffs, cert.eta)
        square = coeffs + [[1 if j == cert.eta else 0 for j in range(len(cert.b_n))]]
        hyp["transform_unimodular"] = abs(det_exact(square)) == 1
    else:
        hyp["bijection_multiplicity_one"] = False
        hyp["transform_unimodular"] = False

    hyp["b_f_independent"] = hnf(cert.b_f).rank == len(cert.b_f) == cert.target.k
    # the target lattice is the whole integral kernel of the constancy
    # constraints, so a row is constant on the target classes iff it lies in
    # it; a target coarsening the base is refined from the base lattice
    target_lattice = refine_stable_lattice(base_lattice, cert.target)
    solve_target = hnf(target_lattice.basis).solve
    hyp["b_f_stable"] = all(solve_target(row) is not None for row in cert.b_f)

    # Ch(S)^F + <eta> must be a direct, finite-index sum inside Ch(S)^N.
    # The printed hypothesis asks for strict containment, but whenever the
    # remaining hypotheses hold one column operation forces
    # |X(sum)| = p * |X_F| = |X_N|, so the sum always has index 1; the
    # meaningful checks are containment and directness, and the measured
    # index is recorded for the report.
    stacked = [list(r) for r in target_lattice.basis] + [list(cert.b_n[cert.eta])]
    try:
        idx = lattice_index(base_lattice.basis, stacked)
        hyp["eta_sum_direct_in_base"] = True
        containment_index = idx
    except (ValueError, AssertionError):
        hyp["eta_sum_direct_in_base"] = False
        containment_index = 0

    # conclusion cross-checks: the determinant relation and basis property
    det_base = det_target = 0
    if all(hyp.values()):
        det_base, _ = _basis_determinant(cert.b_n, cert.base)
        det_target, _ = _basis_determinant(cert.b_f, cert.target)
        hyp["determinant_relation"] = det_base == p * p * det_target
        hyp["b_f_basis_of_target"] = _spans_same_lattice(target_lattice.basis, cert.b_f)
    else:
        hyp["determinant_relation"] = False
        hyp["b_f_basis_of_target"] = False
    return CertificateReport(cert.label, hyp, all(hyp.values()), det_base,
                             det_target, containment_index, target_lattice)


def check_certificate_chain(certs: list[InductionCertificate],
                            irr_s: CharacterTable) -> list[CertificateReport]:
    """Check each step of a chain, building each stable lattice once: a step
    whose base is the previous step's target starts from that target lattice."""
    reports: list[CertificateReport] = []
    for cert in certs:
        base = None
        if reports and reports[-1].target_lattice.fusion is cert.base:
            base = reports[-1].target_lattice
        reports.append(check_induction_certificate(cert, irr_s, base))
    return reports


def _spans_same_lattice(a: list[list[int]], b: list[list[int]]) -> bool:
    if len(a) != len(b):
        return False
    try:
        return lattice_index(a, b) == 1
    except (ValueError, AssertionError):
        return False


def _has_unit_matching(coeffs: list[list[int]], eta: int) -> bool:
    """Perfect matching of b_f rows to b_n columns (excluding eta) where the
    matched coefficient is exactly 1."""
    n_rows = len(coeffs)
    cols = [j for j in range(len(coeffs[0])) if j != eta]
    if len(cols) != n_rows:
        return False
    adj = {i: [j for j in cols if coeffs[i][j] == 1] for i in range(n_rows)}
    match_col: dict[int, int] = {}

    def augment(i, seen):
        for j in adj[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_col or augment(match_col[j], seen):
                match_col[j] = i
                return True
        return False

    return all(augment(i, set()) for i in range(n_rows))


# -- corpus -------------------------------------------------------------------


def builtin_corpus() -> list[tuple[str, int]]:
    """(group name, prime) pairs for the whole-group verification corpus."""
    names = [f"C{n}" for n in range(2, 65)] + [f"D{n}" for n in range(6, 65, 2)]
    names += ["S3", "S4", "S5", "S6", "A4", "A5", "SL2_3", "GL2_3"]
    return [(name, q) for name in names
            for q in prime_divisors(standard_group(name).order)]


def run_group_corpus(entries=None, progress=None, load=standard_group) -> dict:
    """verify_group_case over (name, p) entries, the group being load(name);
    p = 0 stands for every prime divisor of |G|.  Entries run group by group
    (in first-entry order), each group loaded and tabled once and dropped
    before the next.  Per-entry errors are isolated."""
    if entries is None:
        entries = builtin_corpus()
    by_group: dict = {}
    for name, p in entries:
        by_group.setdefault(name, []).append(p)
    reports = []
    for name, asked in by_group.items():
        try:
            g = load(name)
        except Exception as exc:  # every entry of the name reports it
            g = exc
        for p in asked:
            done = []
            try:
                if isinstance(g, Exception):
                    raise g
                primes = [p] if p else prime_divisors(g.order)
                if not primes:  # a file still counts: an entry with no prime is an error
                    raise ValueError(f"group order {g.order} has no prime divisor")
                for q in primes:
                    done.append(verify_group_case(g, q, f"{name}@p={q}"))
            except Exception as exc:  # isolate per-entry problems
                done.append(VerificationReport(f"{name}@p={p}" if p else name, p, 0, [],
                                               0, 0, 0, "error", False, {"error": str(exc)}))
            for rep in done:
                reports.append(rep)
                if progress:
                    progress(rep)
        if not isinstance(g, Exception):
            g._table = None  # Irr(G) refers back to G: cut, G is freed at once
        del g  # one group is held at a time
    failures = [r for r in reports if r.verdict != "verified"]
    return {
        "total": len(reports),
        "verified": len(reports) - len(failures),
        "failures": failures,
        "reports": reports,
    }
