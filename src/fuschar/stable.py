"""The lattice of fusion-stable virtual characters: HNF bases, decomposition
and Gram matrices of restricted irreducibles, and bounded searches for
indecomposable stable characters.
"""

from __future__ import annotations

from itertools import product
from math import lcm
from operator import mul
from typing import NamedTuple

from .chartable import CharacterTable, ClassFunction, dixon_field, restrict_table
from .fusion import FusionData
from .groups import FiniteGroup
from .intlinalg import (
    det_exact,
    hnf,
    identity_matrix,
    kernel_rows,
    mat_mul,
    transpose,
)


class StableLattice(NamedTuple):
    fusion: FusionData
    irr_s: CharacterTable
    basis: list[list[int]]  # rows = basis virtual characters in Irr(S) coordinates
    rank: int


def _constancy_constraints(value_rows, class_groups, conductor: int) -> list[list[int]]:
    """One integer constraint per column of a group but its first (the
    anchor), per cyclotomic coordinate, on the difference from the anchor
    of the `value_rows` (class functions, all in Z[zeta_conductor])."""
    constraints: list[list[int]] = []
    for grp in class_groups:
        anchor = grp[0]
        for other in grp[1:]:
            deltas = [row[other].embedded(conductor) - row[anchor].embedded(conductor)
                      for row in value_rows]
            for coeff_idx in range(conductor):
                con = [d.coeffs[coeff_idx] for d in deltas]
                if any(con):
                    constraints.append(con)
    return constraints


def stable_sublattice(basis: list[list[int]], value_rows, class_groups, conductor: int,
                      k: int) -> list[list[int]]:
    """HNF basis of the part of the lattice spanned by `basis` (rows in the
    coordinates of `value_rows`, class functions in Z[zeta_conductor]) that
    is constant on every group of columns: the nonzero HNF rows of K B, K
    the integral kernel of B C^T for the constancy constraints C.  Its rank
    must be k."""
    constraints = _constancy_constraints(value_rows, class_groups, conductor)
    if constraints:
        kernel = kernel_rows(mat_mul(basis, transpose(constraints)))
        basis = [r for r in hnf(mat_mul(kernel, basis)).hnf if any(r)]
    if len(basis) != k:
        raise AssertionError(f"stable lattice rank {len(basis)} != class count {k}")
    return basis


def stable_character_basis(irr_s: CharacterTable, fusion: FusionData) -> StableLattice:
    """HNF basis of the virtual characters constant on every fusion class.

    The rank always equals the number of fusion classes.
    """
    S = fusion.S
    if irr_s.group is not S and (irr_s.group.identity != S.identity
                                 or irr_s.group.codes != S.codes):
        raise ValueError("character table and fusion data disagree on S")
    values = [chi.values for chi in irr_s.chars]
    basis = stable_sublattice(identity_matrix(len(values)), values,
                              [fc.s_class_indices for fc in fusion.classes],
                              irr_s.conductor, fusion.k)
    return StableLattice(fusion, irr_s, basis, len(basis))


def refine_stable_lattice(lattice: StableLattice, fusion: FusionData) -> StableLattice:
    """The stable lattice of `fusion`, refined from that of a finer fusion.

    When every class of `fusion` is a union of classes of `lattice.fusion`,
    its lattice is the part of the base lattice killed by the constraints
    joining the merged classes' anchors, whose canonical HNF is the basis
    `stable_character_basis` builds.  Other fusions go to that function."""
    base = lattice.fusion
    target_of = {si: ti for ti, fc in enumerate(fusion.classes) for si in fc.s_class_indices}
    if fusion.S is not base.S or any(
            len({target_of[si] for si in fc.s_class_indices}) != 1 for fc in base.classes):
        return stable_character_basis(lattice.irr_s, fusion)
    joined: dict[int, list[int]] = {}
    for fc in base.classes:
        joined.setdefault(target_of[fc.s_class_indices[0]], []).append(fc.s_class_indices[0])
    basis = stable_sublattice(lattice.basis, [chi.values for chi in lattice.irr_s.chars],
                              joined.values(), lattice.irr_s.conductor, fusion.k)
    return StableLattice(fusion, lattice.irr_s, basis, len(basis))


def _decompose(chis, irr_s: CharacterTable, e: int, order: int) -> list[list[int]]:
    """Irr(S)-multiplicities of the characters `chis` (values in Z[zeta_e],
    multiplicities at most sqrt(order)) as inner products in F_l, l the Dixon
    prime for (e, order), so each residue is the multiplicity.  Each vector
    must then recombine Irr(S) to its character exactly, or the call raises."""
    l, omega = dixon_field(e, order)
    powers = [pow(omega, j, l) for j in range(e)]

    def residue(x, sign: int) -> int:  # x, or conj(x) for sign -1, in F_l
        step = sign * (e // x.order)
        return sum(c * powers[i * step % e] for i, c in x.terms()) % l

    inv_order = pow(irr_s.group.order, -1, l)
    conj_rows = [[c.size * inv_order * residue(x, -1) % l
                  for c, x in zip(irr_s.classes.classes, psi.values)] for psi in irr_s.chars]
    out = []
    for chi in chis:
        values = [residue(x, 1) for x in chi.values]
        coords = [sum(map(mul, values, row)) % l for row in conj_rows]
        if irr_s.combination(coords).values != chi.values:
            raise AssertionError("Irr(S)-multiplicities do not recombine to the character")
        out.append(coords)
    return out


def irr_coordinates(chi: ClassFunction, irr_s: CharacterTable) -> list[int]:
    """Multiplicities of the character chi over Irr(S) (each at most chi(1))."""
    e = lcm(irr_s.conductor, *(x.order for x in chi.values))
    return _decompose([chi], irr_s, e, chi.degree_int() ** 2)[0]


def restriction_coordinates(irr_g: CharacterTable, S: FiniteGroup,
                            irr_s: CharacterTable) -> tuple[list[ClassFunction], list[list[int]]]:
    """The restrictions of Irr(G) to S and their Irr(S)-multiplicities.

    exp(S) divides exp(G), so every value embeds in Z[zeta_conductor of G]
    and its coefficient vector there is a key.  A restriction equal to an
    irreducible of S (always the case for abelian groups) is read off; the
    other distinct restrictions are decomposed together modulo the Dixon
    prime of G, which exceeds every multiplicity (at most sqrt|G|).
    """
    e = irr_g.conductor
    restricted, _ = restrict_table(irr_g, S)
    known = {tuple(v.embedded(e).coeffs for v in psi.values):
             [1 if i == j else 0 for i in range(irr_s.k)]
             for j, psi in enumerate(irr_s.chars)}
    keys = [tuple(v.embedded(e).coeffs for v in chi.values) for chi in restricted]
    todo = {key: chi for key, chi in zip(keys, restricted) if key not in known}
    if todo:
        known.update(zip(todo, _decompose(todo.values(), irr_s, e, irr_g.group.order)))
    return restricted, [known[key] for key in keys]


class DecompositionData(NamedTuple):
    d_matrix: list[list[int]]  # rows Irr(G), columns the stable basis
    det_c: int


def decomposition_matrix(irr_g: CharacterTable, S: FiniteGroup,
                         lattice: StableLattice) -> DecompositionData:
    """Restrictions of Irr(G) solved over the stable basis; C = D^T D.

    Each restriction has integral multiplicities and is constant on the
    G-classes, so it lies in the lattice of G's own fusion of S; one that
    does not means the lattice is of another fusion, and raises.
    """
    _, coords = restriction_coordinates(irr_g, S, lattice.irr_s)
    solve = hnf(lattice.basis).solve
    rows = [solve(row) for row in coords]
    if None in rows:
        raise AssertionError(f"Irr(G) row {rows.index(None)} restricts outside the stable lattice")
    c = mat_mul(transpose(rows), rows)
    det_c = det_exact(c) if c else 1
    return DecompositionData(rows, det_c)


# -- indecomposable stable characters -----------------------------------------


def _pivot_columns(basis: list[list[int]], degrees: list[int]) -> list[int]:
    """Column set with invertible minor, greedily preferring large degrees.

    The pivots of one HNF of the reordered columns are that greedy choice:
    a column is a pivot exactly when it is independent of those before it.
    """
    order = sorted(range(len(degrees)), key=lambda j: (-degrees[j], j))
    res = hnf([[row[j] for j in order] for row in basis])
    if res.rank != len(basis):
        raise AssertionError("stable basis has deficient column rank")
    return [order[c] for c in res.pivots]


def genuine_stable_characters(lattice: StableLattice, degree_bound: int,
                              cap: int = 5_000_000) -> tuple[list[tuple[int, ...]], bool]:
    """All nonzero stable characters with nonnegative Irr(S)-multiplicities
    and degree <= degree_bound.  Returns (characters, complete_flag)."""
    degrees = lattice.irr_s.degrees()
    basis = lattice.basis
    r = lattice.rank
    piv = _pivot_columns(basis, degrees)
    # the minor is invertible, so each target has at most one solution
    solve = hnf([[basis[i][j] for j in piv] for i in range(r)]).solve
    ranges = [range(degree_bound // degrees[j] + 1) for j in piv]
    count = 1
    for rg in ranges:
        count *= len(rg)
    complete = count <= cap
    found = []
    seen = 0
    for yp in product(*ranges):
        seen += 1
        if seen > cap:
            break
        if not any(yp):
            continue
        coeffs = solve(yp)
        if coeffs is None:
            continue
        vec = [0] * len(degrees)
        for i, c in enumerate(coeffs):
            if c:
                for j, b in enumerate(basis[i]):
                    vec[j] += c * b
        if any(v < 0 for v in vec):
            continue
        if sum(v * d for v, d in zip(vec, degrees)) > degree_bound:
            continue
        found.append(tuple(vec))
    found.sort(key=lambda v: (sum(x * d for x, d in zip(v, degrees)), v))
    return found, complete


def indecomposables_bounded(lattice: StableLattice, degree_bound: int,
                            cap: int = 5_000_000):
    """Stable genuine characters of degree <= bound not expressible as a sum
    of two such; complete only up to the bound (flag in the result)."""
    genuine, complete = genuine_stable_characters(lattice, degree_bound, cap)
    ind = []
    for pos, chi in enumerate(genuine):
        # proper parts have strictly smaller degree, so they precede chi in
        # the degree-sorted list; the complement chi - psi is then genuine
        # automatically (nonnegative, nonzero, and in the lattice).
        decomposable = any(
            all(a <= b for a, b in zip(psi, chi)) and psi != chi
            for psi in genuine[:pos])
        if not decomposable:
            ind.append(chi)
    return ind, complete
