"""Reproduction suites for the bundled reference data: symbolic character
tables of the overgroups, orbit analyses, point counts, and the known
non-saturated counterexample.  A table or lemma suite returns a match report
whose discrepancies are its "mismatch" verdict; example27 returns its
counterexample verdict and raises if the reproduction behind it breaks.

`ITEMS` lists every `fuschar paper` item with the prime it runs at by default
and whether that is its only prime; `reproduce` is the one way to run them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import exotic
from .chartable import dixon_character_table, regular_character
from .constructions import (
    count_n_v_psi,
    gamma_orbit_analysis,
    table3_expected,
)
from .cyclotomic import Cyclotomic, cyclo_dot
from .exotic import (
    TABLE_3492_IRR_MULTIPLICITIES,
    OvergroupContext,
    _combo,
    _gamma_column_classes,
    _row_value_int,
    cubic_root_check,
    overgroup_context,
    pick_rows,
    pick_unique,
    table1_families,
    table1_rows,
    table2_basis,
    table2_rows,
    table4_basis,
    table4_rows,
    table_3492,
)
from .fusion import apply_merges, fusion_of_self
from .groups import conjugacy_classes, cyclic_group
from .intlinalg import lattice_index
from .specio import SpecError
from .stable import indecomposables_bounded, stable_character_basis
from .verify import (VerificationReport, check_certificate_chain, verify_conjecture,
                     verify_table_fusion)


class MatchReport:
    __slots__ = ("label", "matches", "discrepancies", "notes")

    def __init__(self, label: str) -> None:
        self.label = label
        self.matches = []
        self.discrepancies = []
        self.notes = {}

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    @property
    def verdict(self) -> str:
        return "verified" if self.ok else "mismatch"

    def lines(self) -> list[str]:
        status = "all matched" if self.ok else "MISMATCH"
        return ([f"{self.label}: {status} "
                 f"({len(self.matches)} matches, {len(self.discrepancies)} discrepancies)"]
                + [f"  - {d}" for d in self.discrepancies]
                + [f"  note {key}: {val}" for key, val in self.notes.items()])

    def check(self, name: str, good: bool, detail: str = "") -> None:
        (self.matches if good else self.discrepancies).append(
            {"item": name, "detail": detail} if detail else {"item": name})

    def to_json(self) -> dict:
        return {"label": self.label, "ok": self.ok, "matches": self.matches,
                "discrepancies": self.discrepancies, "notes": self.notes}


# -- Tables 1, 2 and 4, whose printed data `exotic` holds -------------------------


def reproduce_table1(p: int) -> MatchReport:
    report = MatchReport(f"table1@p={p}")
    if p < 5:
        report.notes["admissible"] = "stated for p >= 5"
    ctx = overgroup_context(p, "N_b")
    found = table1_rows(ctx)
    claimed = set()
    for fam in table1_families(p):
        rows = found[fam["name"]]
        n_chars = sum(r.n_preimages for r in rows)
        report.check(f"{fam['name']}:restrictions", len(rows) == fam["restrictions"],
                     f"found {len(rows)}, expected {fam['restrictions']}")
        report.check(f"{fam['name']}:characters", n_chars == fam["chars"],
                     f"found {n_chars}, expected {fam['chars']}")
        claimed.update(id(r) for r in rows)
    report.check("families_exhaustive",
                 claimed == {id(r) for r in ctx.rows},
                 "every computed restriction must land in exactly one family")
    report.notes["k_base"] = ctx.base.k
    return report


def reproduce_table2(p: int) -> MatchReport:
    report = MatchReport(f"table2@p={p}")
    ctx = overgroup_context(p, "N_gamma")
    cols = _gamma_column_classes(ctx)
    expected = table2_rows(p)
    by_vals = {tuple(r["vals"]): r for r in expected}
    realized = set()
    for row in ctx.rows:
        vals = tuple(_row_value_int(row, c) for c in cols)
        match = by_vals.get(vals)
        if match is None:
            report.check("computed_row_in_table", False,
                         f"unlisted restriction with values {vals}")
        else:
            realized.add(match["name"])
    for r in expected:
        if r["basis"]:
            report.check(f"{r['name']}_realized", r["name"] in realized)
    report.check("k_base_is_6", ctx.base.k == 6, f"k = {ctx.base.k}")
    # the six basis rows must span the stable lattice of the base fusion
    basis = table2_basis(ctx)
    lattice = stable_character_basis(ctx.irr_s, ctx.base)
    idx = lattice_index(lattice.basis, [list(r.coords) for r in basis.values()])
    report.check("basis_spans_stable_lattice", idx == 1, f"index {idx}")
    _check_regular_decomposition(report, ctx, basis, p)
    report.notes["columns"] = ["1", "v1", "v2", "v1+e*v3", "u", "u'"]
    report.notes.update(_off_v_class_notes(ctx))
    return report


def _off_v_class_notes(ctx: OvergroupContext) -> dict:
    """Computed off-V class structure, flagging which published representative
    set matches (the statement's u*v1 and the proof's u*v2 are both conjugate
    to u itself under the constructed action; the genuine second class is
    represented by a v3-coset element)."""
    s = ctx.S
    u = s.designated["u"]
    u_class = ctx.class_of(u)
    notes = {"off_V_class_count": len(ctx.u_class_indices)}
    for label in ("v1", "v2", "v3"):
        elem = u * s.designated[label]
        notes[f"u*{label}_fused_with_u"] = ctx.class_of(elem) == u_class
    others = [i for i in ctx.u_class_indices if i != u_class]
    notes["second_off_V_reps"] = [repr(ctx.base.classes[i].rep) for i in others]
    return notes


def reproduce_table4(p: int) -> MatchReport:
    report = MatchReport(f"table4@p={p}")
    ctx = overgroup_context(p, "N_gamma")
    basis = table2_basis(ctx)
    merged = apply_merges(ctx.base, [(ctx.z_element(), ctx.S.designated["u"])])
    sc_v1 = _s_class(ctx, ctx.S.designated["v1"])
    sc_u = _s_class(ctx, ctx.S.designated["u"])
    rows = table4_basis(basis, p)
    for i, (spec, coords) in enumerate(zip(table4_rows(p), rows)):
        cf = ctx.irr_s.combination(coords)
        report.check(f"row{i}_degree", cf.degree_int() == spec["degree"],
                     f"{cf.degree_int()} vs {spec['degree']}")
        good_vals = (cf.values[sc_v1] == spec["val"] and cf.values[sc_u] == spec["val"])
        report.check(f"row{i}_values", good_vals)
    lattice = stable_character_basis(ctx.irr_s, merged)
    idx = lattice_index(lattice.basis, rows)
    report.check("span_equals_merged_lattice", idx == 1, f"index {idx}")
    return report


def _s_class(ctx, element) -> int:
    sc = conjugacy_classes(ctx.S)
    return sc.class_index_of(ctx.S, element)


def _check_regular_decomposition(report: MatchReport, ctx: OvergroupContext,
                                 basis: dict, p: int) -> None:
    """reg_S = 1 + theta + chi(psi100) + chi(psi100,rho) + p*chi(psi10e)
    + p*chi(psi010), checked exactly."""
    mults = {"1_S": 1, "theta_{p-1}": 1, "chi(psi100)": 1, "chi(psi100,rho)": 1,
             "chi(psi10e)": p, "chi(psi010)": p}
    cf = ctx.irr_s.combination(_combo([(mult, basis[name]) for name, mult in mults.items()]))
    reg = regular_character(ctx.irr_s.classes, ctx.S.order)
    report.check("regular_character_identity", cf.values == reg.values)


# -- Table 5: the twisted overgroup at p = 5 -------------------------------------


def table5_expected() -> tuple[list[str], list[str], dict]:
    """Row names, column names, and exact entries for the p = 5 twisted table."""
    z5 = Cyclotomic.root_of_unity(5)
    zeta = z5 + z5.galois(4)          # (-1 + sqrt 5) / 2
    zbar = z5.galois(2) + z5.galois(3)  # (-1 - sqrt 5) / 2
    i = Cyclotomic.integer
    rows = ["1_S", "theta_4", "chi_0", "chi_1", "chi_2", "chi_3", "chi_4",
            "sigma_1'", "sigma_2'", "sigma_1", "sigma_2"]
    cols = ["1", "v1", "v2", "lam*v2", "q", "lam*q", "u0", "u1", "u2", "u3", "u4"]
    ent = {}

    def fill(name, vals):
        for c, v in zip(cols, vals):
            ent[(name, c)] = v if isinstance(v, Cyclotomic) else i(v)

    fill("1_S", [1] * 11)
    fill("theta_4", [4, 4, 4, 4, 4, 4, -1, -1, -1, -1, -1])
    for j in range(5):
        u_vals = [-1] * 5
        u_vals[j] = 4
        fill(f"chi_{j}", [24, -1, 4, 4, -6, -6] + u_vals)
    fill("sigma_1'", [20, -5, 0, 0, zeta * -5, zbar * -5, 0, 0, 0, 0, 0])
    fill("sigma_2'", [20, -5, 0, 0, zbar * -5, zeta * -5, 0, 0, 0, 0, 0])
    fill("sigma_1", [30, 5, zeta * 5, zbar * 5, 0, 0, 0, 0, 0, 0, 0])
    fill("sigma_2", [30, 5, zbar * 5, zeta * 5, 0, 0, 0, 0, 0, 0, 0])
    return rows, cols, ent


def reproduce_table5() -> MatchReport:
    report = MatchReport("table5@p=5")
    ctx = overgroup_context(5, "N_gamma4star")
    s = ctx.S
    rows, cols, expected = table5_expected()
    col_classes = {
        "1": ctx.class_of(s.identity),
        "v1": ctx.class_of(s.designated["v1"]),
        "v2": ctx.class_of(s.designated["v2"]),
        "lam*v2": ctx.class_of(s.designated["lam*v2"]),
        "q": ctx.class_of(s.designated["v1+e*v3"]),
        "lam*q": ctx.class_of(s.designated["lam*(v1+e*v3)"]),
        "u0": ctx.class_of(s.designated["u"]),
    }
    floating = [i for i in ctx.u_class_indices if i != col_classes["u0"]]
    report.check("eleven_base_classes", ctx.base.k == 11, f"k = {ctx.base.k}")
    report.check("eleven_distinct_restrictions", len(ctx.rows) >= 11,
                 f"{len(ctx.rows)} distinct restrictions")
    # anchored rows
    named: dict[str, object] = {}
    try:
        named["1_S"] = pick_unique(ctx, degree=1)
        named["theta_4"] = pick_unique(ctx, degree=4)
        named["chi_0"] = pick_unique(ctx, degree=24, at={col_classes["u0"]: 4})
        chi_float = [r for r in pick_rows(ctx, degree=24) if r is not named["chi_0"]]
        # align the remaining chi rows to the floating u-columns via their 4
        for j, ci in enumerate(floating, start=1):
            named[f"chi_{j}"] = next(r for r in chi_float
                                     if r.values[ci].is_rational_integer()
                                     and r.values[ci].rational_value() == 4)
            col_classes[f"u{j}"] = ci
        for deg, base_name in ((20, "sigma_1'"), (30, "sigma_1")):
            pair = pick_rows(ctx, degree=deg)
            anchor_col = col_classes["q" if deg == 20 else "v2"]
            target = expected[(base_name, "q" if deg == 20 else "v2")]
            first = next(r for r in pair if r.values[anchor_col] == target)
            second = next(r for r in pair if r is not first)
            named[base_name] = first
            named[base_name.replace("1", "2")] = second
    except (LookupError, StopIteration) as exc:
        report.check("row_identification", False, str(exc))
        return report
    for rname in rows:
        row = named[rname]
        for cname in cols:
            got = row.values[col_classes[cname]]
            want = expected[(rname, cname)]
            report.check(f"{rname}@{cname}", got == want,
                         f"computed {got!r}, expected {want!r}")
    return report


# -- orbit lemmas, Table 3, Table 6 and Example 2.7 -----------------------------


def reproduce_orbit_lemma(item: str, p: int) -> MatchReport:
    """Orbit sizes, stabilizer orders and abelianness for the three analyses."""
    report = MatchReport(f"{item}@p={p}")
    half = (p - 1) // 2
    if item == "lemma42":
        variant = "gamma"
        expected = sorted([
            (p * p - 1, p * (p - 1), False),
            (p * (p * p - 1) // 2, 2 * (p - 1), p == 3),
            (p * (p - 1) ** 2 // 2, 2 * (p + 1), False),
        ])
    elif item == "lemma56":
        if p % 4 != 3:
            raise ValueError("this analysis needs p = 3 (mod 4)")
        variant = "gamma2"
        expected = sorted([
            (p * p - 1, p * half, half == 1),
            (p * (p * p - 1) // 2, p - 1, True),
            (p * (p - 1) ** 2 // 2, p + 1, True),
        ])
    elif item == "lemma58":
        if p % 4 != 1:
            raise ValueError("this analysis needs p = 1 (mod 4)")
        variant = "gamma4star"
        q = (p - 1) // 4
        expected = sorted([
            (p * p - 1, p * q, q == 1),
            (p * (p * p - 1) // 4, p - 1, p - 1 <= 4),
            (p * (p * p - 1) // 4, p - 1, p - 1 <= 4),
            (p * (p - 1) ** 2 // 4, p + 1, p + 1 <= 4),
            (p * (p - 1) ** 2 // 4, p + 1, p + 1 <= 4),
        ])
    else:
        raise ValueError(f"unknown orbit item {item!r}")
    orbits = gamma_orbit_analysis(p, variant)
    got = sorted((o.size, o.stabilizer_order, o.stabilizer_abelian) for o in orbits)
    report.check("orbit_count", len(got) == len(expected),
                 f"{len(got)} vs {len(expected)}")
    report.check("orbit_data", got == expected, f"computed {got}, expected {expected}")
    return report


def reproduce_table3(p: int) -> MatchReport:
    report = MatchReport(f"table3@p={p}")
    for key, want in table3_expected(p).items():
        got = count_n_v_psi(p, *key)
        report.check(f"n[{key[0]},{key[1]}]", got == want, f"{got} vs {want}")
    return report


def reproduce_table6() -> MatchReport:
    report = MatchReport("table6")
    for name, good in cubic_root_check().items():
        report.check(name, good)
    tf = table_3492()
    # column orthogonality of the realising group, via the Clifford
    # multiplicities of the index-2 extension
    for j in range(10):
        column = [row[j] for row in tf.basis_values]
        acc = cyclo_dot(TABLE_3492_IRR_MULTIPLICITIES, column, column)
        cn = 2 * tf.group_order // tf.class_sizes[j]
        report.check(f"column_norm_g{j+1}", acc == cn,
                     f"sum {acc!r}, |C_N| {cn}")
    rep = verify_table_fusion(tf)
    report.check("identity_verified", rep.verdict == "verified",
                 f"verdict {rep.verdict}")
    report.notes["lhs_det"] = str(rep.lhs_det)
    report.notes["rhs"] = str(rep.rhs_product)
    return report


def reproduce_example27() -> VerificationReport:
    """The counterexample verdict of the non-saturated merge on the cyclic
    group of order 8; raises if the data behind it differ from the paper's."""
    report = MatchReport("example27")
    c8 = cyclic_group(8)
    a = c8.designated["a"]
    table = dixon_character_table(c8)
    base = fusion_of_self(c8, 2)
    merged = apply_merges(base, [(a * a, a * a * a * a * a * a)])
    report.check("k_is_7", merged.k == 7)
    lattice = stable_character_basis(table, merged)
    ind, complete = indecomposables_bounded(lattice, 2)
    report.check("eight_indecomposables", len(ind) == 8 and complete,
                 f"{len(ind)} found, complete={complete}")
    singles = [v for v in ind if sum(v) == 1]
    pairs = [v for v in ind if sum(v) == 2 and max(v) == 1]
    report.check("four_singles_four_pairs", len(singles) == 4 and len(pairs) == 4)
    verdict = verify_conjecture(merged, table, "example27")
    report.check("lhs_2^22", verdict.lhs_det == 2 ** 22, f"det {verdict.lhs_det}")
    report.check("rhs_2^21", verdict.rhs_product == 2 ** 21)
    report.check("verdict_counterexample", verdict.verdict == "counterexample")
    if not report.ok:
        raise AssertionError(f"{report.label}: reproduction BROKEN: {report.discrepancies}")
    return verdict


# -- the exotic systems on the p^4 family ----------------------------------------


class CertificateChain(NamedTuple):
    """The checked steps of one certificate chain."""

    label: str
    reports: list

    @property
    def verdict(self) -> str:
        return "verified" if all(rep.ok for rep in self.reports) else "mismatch"

    def lines(self) -> list[str]:
        return [f"{rep.label}: certificate "
                + ("passed" if rep.ok else f"FAILED {rep.failures()}") for rep in self.reports]

    def to_json(self) -> dict:
        return {"input": self.label, "certificates": [rep.to_json() for rep in self.reports]}


def _exotic_verdict(name: str, p: int):
    merged, ctx = exotic.build_exotic_fusion(name, p)
    return verify_conjecture(merged, ctx.irr_s, f"{name}@p={p}")


def _chain(family: str, p: int) -> CertificateChain:
    ctx = exotic.overgroup_context(p, exotic.CHAIN_BASES[family])
    reports = check_certificate_chain(exotic.chain_certificates(family, p), ctx.irr_s)
    return CertificateChain(f"F547_chain:{family}@p={p}", reports)


# -- the `paper` items -----------------------------------------------------------


class PaperItem(NamedTuple):
    p: int  # the prime the item runs at when none is given
    fixed: bool  # the item exists at that prime only
    run: Callable[[int], object]


# the suites look their functions up when called, so a replaced one is used
ITEMS = {
    "table1": PaperItem(5, False, lambda p: reproduce_table1(p)),
    "table2": PaperItem(3, False, lambda p: reproduce_table2(p)),
    "table3": PaperItem(5, False, lambda p: reproduce_table3(p)),
    "table4": PaperItem(3, False, lambda p: reproduce_table4(p)),
    "table5": PaperItem(5, True, lambda p: reproduce_table5()),
    "table6": PaperItem(3, True, lambda p: reproduce_table6()),
    "lemma42": PaperItem(5, False, lambda p: reproduce_orbit_lemma("lemma42", p)),
    "lemma56": PaperItem(3, False, lambda p: reproduce_orbit_lemma("lemma56", p)),
    "lemma58": PaperItem(5, False, lambda p: reproduce_orbit_lemma("lemma58", p)),
    "example27": PaperItem(2, True, lambda p: reproduce_example27()),
    "exotic:G_prune": PaperItem(3, False, lambda p: _exotic_verdict("G_prune", p)),
    "exotic:F1": PaperItem(3, False, lambda p: _exotic_verdict("F1", p)),
    "exotic:Op_F1": PaperItem(3, False, lambda p: _exotic_verdict("Op_F1", p)),
    "exotic:F_3492": PaperItem(3, True, lambda p: verify_table_fusion(exotic.table_3492())),
    "exotic:F547_chain:psu": PaperItem(5, True, lambda p: _chain("psu", p)),
    "exotic:F547_chain:g": PaperItem(5, True, lambda p: _chain("g", p)),
}


def reproduce(item: str, p: int | None = None):
    """Run one `paper` item at p, or at its own prime when p is None.

    The result is a MatchReport, a VerificationReport or a CertificateChain.
    Each has one protocol: a `verdict` ("verified", "counterexample",
    "mismatch" or "error"), `lines()`, its text output, and `to_json()`.  An
    unknown item, or another prime for a fixed-prime item, is refused before
    any group is built.
    """
    entry = ITEMS.get(item)
    if entry is None:
        raise SpecError(f"unknown item {item!r}; choose from {', '.join(ITEMS)}")
    if p is None:
        p = entry.p
    elif entry.fixed and p != entry.p:
        raise SpecError(f"{item} is specific to p = {entry.p}")
    return entry.run(p)
