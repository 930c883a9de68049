"""Exact ordinary character tables via Dixon-Schneider, plus restriction,
induction and inner products of class functions.

Class-multiplication coefficients are split into common eigenspaces over a
prime field F_l with l = 1 (mod exponent) and l > 2*sqrt(|G|); central
characters are then lifted to exact cyclotomic values by discrete Fourier
summation over power maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .cyclotomic import Cyclotomic, cyclo_dot, exact_div
from .groups import ConjugacyClassSet, FiniteGroup, class_fusion_map, conjugacy_classes
from .intlinalg import is_prime, primitive_root, rref_mod


@dataclass(frozen=True)
class ClassFunction:
    """Values of a class function, indexed by conjugacy-class position."""

    values: tuple

    @property
    def degree(self) -> Cyclotomic:
        return self.values[0]

    def degree_int(self) -> int:
        return self.values[0].rational_value()


@dataclass
class CharacterTable:
    group: FiniteGroup
    classes: ConjugacyClassSet
    chars: list[ClassFunction]
    conductor: int

    @property
    def k(self) -> int:
        return len(self.classes.classes)

    def degrees(self) -> list[int]:
        return [c.degree_int() for c in self.chars]

    def combination(self, coeffs) -> ClassFunction:
        return ClassFunction(tuple(cyclo_dot(coeffs, column)
                                   for column in zip(*(chi.values for chi in self.chars))))


def inner_product(f: ClassFunction, g: ClassFunction,
                  classes: ConjugacyClassSet, group_order: int) -> Cyclotomic:
    """(1/|G|) sum over G of f * conj(g), computed classwise and exactly."""
    total = cyclo_dot([c.size for c in classes.classes], f.values, g.values)
    return exact_div(total, Cyclotomic.integer(group_order))


def regular_character(classes: ConjugacyClassSet, group_order: int) -> ClassFunction:
    vals = [Cyclotomic.integer(group_order)] + \
        [Cyclotomic.zero()] * (len(classes.classes) - 1)
    return ClassFunction(tuple(vals))


def trivial_character(classes: ConjugacyClassSet) -> ClassFunction:
    return ClassFunction(tuple(Cyclotomic.one() for _ in classes.classes))


# -- modular linear algebra helpers ------------------------------------------


def _nullspace_mod(rows: list[list[int]], l: int) -> list[list[int]]:
    """Basis rows of {x : M x = 0} over F_l (M given by rows)."""
    n = len(rows[0]) if rows else 0
    a, pivots, _ = rref_mod(rows, l)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-a[i][fc]) % l
        basis.append(vec)
    return basis


def _charpoly_mod(mat: list[list[int]], l: int) -> list[int]:
    """Characteristic polynomial (monic, low-to-high coeffs) over F_l via
    Hessenberg reduction."""
    n = len(mat)
    h = [row[:] for row in mat]
    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if h[r][c] % l), None)
        if piv is None:
            continue
        if piv != c + 1:
            h[c + 1], h[piv] = h[piv], h[c + 1]
            for row in h:
                row[c + 1], row[piv] = row[piv], row[c + 1]
        inv = pow(h[c + 1][c], -1, l)
        for r in range(c + 2, n):
            if h[r][c]:
                f = (h[r][c] * inv) % l
                h[r] = [(x - f * y) % l for x, y in zip(h[r], h[c + 1])]
                for row in h:
                    row[c + 1] = (row[c + 1] + f * row[r]) % l
    polys: list[list[int]] = [[1]]
    for m in range(1, n + 1):
        d = h[m - 1][m - 1] % l
        prev = polys[m - 1]
        cur = [0] + prev  # x * p_{m-1}
        for i, coeff in enumerate(prev):
            cur[i] = (cur[i] - d * coeff) % l
        run = 1
        for k in range(1, m):
            run = (run * h[m - k][m - k - 1]) % l
            if run == 0:
                break
            factor = (h[m - 1 - k][m - 1] * run) % l
            if factor:
                pk = polys[m - 1 - k]
                for i, coeff in enumerate(pk):
                    cur[i] = (cur[i] - factor * coeff) % l
        cur = [c % l for c in cur]
        polys.append(cur)
    return polys[n]


def _poly_roots_mod(poly: list[int], l: int) -> list[int]:
    roots = []
    for x in range(l):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % l
        if acc == 0:
            roots.append(x)
    return roots


_DIXON_PRIME_BOUND = 10 ** 8


def _find_dixon_prime(exponent: int, group_order: int) -> int:
    l = exponent + 1
    while l < _DIXON_PRIME_BOUND:
        if l * l > 4 * group_order and is_prime(l):
            return l
        l += exponent
    raise ArithmeticError(
        f"no usable prime = 1 (mod {exponent}) below {_DIXON_PRIME_BOUND}")


# -- the table computation ----------------------------------------------------


def dixon_character_table(G: FiniteGroup) -> CharacterTable:
    classes = conjugacy_classes(G)
    k = len(classes.classes)
    exponent = G.exponent()
    if k == 1:
        table = CharacterTable(G, classes, [trivial_character(classes)], 1)
        return table
    cyc = next((c.rep for c in classes.classes if c.rep_order == G.order), None)
    if cyc is not None:
        chars = _cyclic_characters(G, classes, cyc)
    else:
        chars = _dixon_characters(G, classes, exponent)
    chars.sort(key=lambda cf: _char_sort_key(cf, exponent))
    table = CharacterTable(G, classes, chars, exponent)
    _validate_table(table)
    return table


def _char_sort_key(cf: ClassFunction, exponent: int):
    return (cf.degree_int(), tuple(v.embedded(exponent).coeffs for v in cf.values))


def _cyclic_characters(G: FiniteGroup, classes: ConjugacyClassSet, g) -> list[ClassFunction]:
    n = G.order
    by_g = G.actions.right(G.index[g])
    pos = [0] * n  # power t -> class index
    x = G.index[G.identity]
    for t in range(n):
        pos[t] = classes.class_of[x]
        x = by_g[x]
    roots = [Cyclotomic.root_of_unity(n, j) for j in range(n)]
    chars = []
    for j in range(n):
        vals: list = [None] * n
        for t in range(n):
            vals[pos[t]] = roots[(j * t) % n]
        chars.append(ClassFunction(tuple(vals)))
    return chars


def _class_matrix(G: FiniteGroup, classes: ConjugacyClassSet, i: int, l: int) -> list[list[int]]:
    """Entry (j, t) counts x in class i with x^-1 * rep_t in class j.

    x -> x^-1 maps class i onto the class of rep_i^-1, and x^-1 * rep_t is
    conjugate to rep_t * x^-1, so the count runs over y in that class with
    rep_t * y in class j: left multiplication on positions, with no element
    products.
    """
    k = len(classes.classes)
    class_of = classes.class_of
    inverses = classes.classes[
        classes.class_index_of(G, classes.classes[i].rep.inverse())].member_indices
    mat = [[0] * k for _ in range(k)]
    for t, c in enumerate(classes.classes):
        for y in G.actions.left(G.index[c.rep], inverses):
            mat[class_of[y]][t] += 1
    return [[v % l for v in row] for row in mat]


def _dixon_characters(G: FiniteGroup, classes: ConjugacyClassSet,
                      exponent: int) -> list[ClassFunction]:
    k = len(classes.classes)
    l = _find_dixon_prime(exponent, G.order)
    omega = pow(primitive_root(l), (l - 1) // exponent, l)  # exact order `exponent`
    sizes = [c.size for c in classes.classes]

    spaces: list[list[list[int]]] = [[[1 if i == j else 0 for j in range(k)]
                                      for i in range(k)]]
    by_size = sorted(range(1, k), key=lambda i: (sizes[i], i))
    for i in by_size:
        if all(len(w) == 1 for w in spaces):
            break
        mat = _class_matrix(G, classes, i, l)
        nxt = []
        for w in spaces:
            if len(w) == 1:
                nxt.append(w)
                continue
            nxt.extend(_refine_space(w, mat, l))
        spaces = nxt
    if not all(len(w) == 1 for w in spaces):
        raise AssertionError("eigenspace splitting failed after all class matrices")

    inv_class = [classes.class_index_of(G, c.rep.inverse()) for c in classes.classes]
    inv_sizes = [pow(h, -1, l) for h in sizes]
    power_class = []
    for c in classes.classes:
        ord_t = c.rep_order
        row = [0] * ord_t
        x = G.identity
        for r in range(ord_t):
            row[r] = classes.class_index_of(G, x)
            x = x * c.rep
        power_class.append(row)

    chars = []
    for w in spaces:
        u = w[0]
        scale = pow(u[0], -1, l)  # identity class entry normalised to 1
        u = [(x * scale) % l for x in u]
        denom = sum(u[t] * u[inv_class[t]] * inv_sizes[t] for t in range(k)) % l
        d2 = (G.order * pow(denom, -1, l)) % l
        degree = next((d for d in range(1, isqrt(G.order) + 1) if (d * d) % l == d2), None)
        if degree is None:
            raise AssertionError("degree recovery failed; Dixon prime too small")
        cvals = [(u[t] * degree * inv_sizes[t]) % l for t in range(k)]
        values = []
        for t in range(k):
            ord_t = classes.classes[t].rep_order
            om = pow(omega, exponent // ord_t, l)
            inv_ord = pow(ord_t, -1, l)
            coeffs = []
            for s in range(ord_t):
                acc = 0
                for r in range(ord_t):
                    acc += cvals[power_class[t][r]] * pow(om, (-r * s) % ord_t, l)
                ms = (acc * inv_ord) % l
                if ms > degree:
                    raise AssertionError("eigenvalue multiplicity exceeds the degree")
                coeffs.append(ms)
            if sum(coeffs) != degree:
                raise AssertionError("eigenvalue multiplicities do not sum to the degree")
            values.append(Cyclotomic(ord_t, coeffs))
        chars.append(ClassFunction(tuple(values)))
    return chars


def _refine_space(w: list[list[int]], mat: list[list[int]], l: int) -> list[list[list[int]]]:
    d = len(w)
    k = len(w[0])
    images = []
    for row in w:
        img = [0] * k
        for j in range(k):
            img[j] = sum(mat[j][t] * row[t] for t in range(k)) % l
        images.append(img)
    b_rest = _solve_coords(w, images, l)
    poly = _charpoly_mod(b_rest, l)
    roots = _poly_roots_mod(poly, l)
    total = 0
    result = []
    for lam in roots:
        # coordinate rows x satisfy x @ b_rest = lam * x, i.e. x is in the
        # kernel of the transposed shifted restriction
        shifted = [[(b_rest[j][i] - (lam if i == j else 0)) % l for j in range(d)]
                   for i in range(d)]
        coords_basis = _nullspace_mod(shifted, l)
        if not coords_basis:
            continue
        vecs = []
        for coords in coords_basis:
            vec = [0] * k
            for i, c in enumerate(coords):
                if c:
                    wi = w[i]
                    for j in range(k):
                        vec[j] = (vec[j] + c * wi[j]) % l
            vecs.append(vec)
        total += len(vecs)
        result.append(vecs)
    if total != d:
        raise AssertionError("class matrix restriction is not diagonalisable")
    return result


def _solve_coords(w: list[list[int]], images: list[list[int]], l: int) -> list[list[int]]:
    """Matrix B with images[i] = sum_j B[i][j] * w[j] over F_l."""
    d = len(w)
    k = len(w[0])
    _, pivots, t = rref_mod(w, l)
    if len(pivots) != d:
        raise AssertionError("subspace basis is degenerate")
    b = []
    for img in images:
        coords_reduced = [img[c] % l for c in pivots]
        row = [sum(coords_reduced[j] * t[j][i] for j in range(d)) % l
               for i in range(d)]
        b.append(row)
    # verify (cheap, catches bookkeeping errors)
    for img, row in zip(images, b):
        for c in range(k):
            val = sum(row[j] * w[j][c] for j in range(d)) % l
            if val != img[c] % l:
                raise AssertionError("image left the invariant subspace")
    return b


def _validate_table(table: CharacterTable) -> None:
    total = sum(d * d for d in table.degrees())
    if total != table.group.order:
        raise AssertionError("sum of squared degrees must equal the group order")
    for chi in table.chars:
        norm = inner_product(chi, chi, table.classes, table.group.order)
        if norm != 1:
            raise AssertionError("computed character is not irreducible")


# -- restriction / induction --------------------------------------------------


def restrict_table(table_g: CharacterTable, S: FiniteGroup) -> tuple[list[ClassFunction], list[int]]:
    """Restrictions of the table's characters to S, plus the class fusion map."""
    fusion = class_fusion_map(table_g.group, S)
    restricted = [ClassFunction(tuple(chi.values[j] for j in fusion))
                  for chi in table_g.chars]
    return restricted, fusion


def induce_class_function(theta: ClassFunction, H: FiniteGroup,
                          G: FiniteGroup) -> ClassFunction:
    """Induced class function, via centralizer-weighted sums over fused classes."""
    fusion = class_fusion_map(G, H)
    h_classes = conjugacy_classes(H)
    g_classes = conjugacy_classes(G)
    values = []
    for j, c in enumerate(g_classes.classes):
        members = [i for i, f in enumerate(fusion) if f == j]
        total = cyclo_dot([h_classes.classes[i].size * c.centralizer_order for i in members],
                          [theta.values[i] for i in members])
        values.append(exact_div(total, Cyclotomic.integer(H.order)))
    return ClassFunction(tuple(values))
