"""Exact ordinary character tables via Dixon-Schneider, plus restriction,
induction and inner products of class functions.

Class-multiplication coefficients are split into common eigenspaces over a
prime field F_l with l = 1 (mod exponent) and l > 2*sqrt(|G|); central
characters are then lifted to exact cyclotomic values by discrete Fourier
summation over power maps.

The common eigenvectors are the central-character vectors v (v[identity] = 1),
and class matrix M_i acts on v as v[i] (Schneider, J. Symb. Comput. 9, 1990).
So M_i is a scalar on a span of such vectors exactly when column i of its
basis is proportional to column 0; M_i is built only when that fails for some
space, and refines only those spaces.
"""

from __future__ import annotations

from math import isqrt
from operator import mul
from typing import NamedTuple

from .cyclotomic import Cyclotomic, cyclo_dot, exact_div
from .groups import ConjugacyClassSet, FiniteGroup, class_fusion_map, conjugacy_classes
from .intlinalg import is_prime, mat_mul, primitive_root, rref_mod, transpose


class ClassFunction(NamedTuple):
    """Values of a class function, indexed by conjugacy-class position."""

    values: tuple

    @property
    def degree(self) -> Cyclotomic:
        return self.values[0]

    def degree_int(self) -> int:
        return self.values[0].rational_value()


class CharacterTable(NamedTuple):
    group: FiniteGroup
    classes: ConjugacyClassSet
    chars: tuple[ClassFunction, ...]
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


def dixon_field(exponent: int, group_order: int) -> tuple[int, int]:
    """The least prime l = 1 (mod exponent) with l > 2 sqrt(group_order), and
    an element of F_l of exact order `exponent`."""
    l = exponent + 1
    while l < _DIXON_PRIME_BOUND:
        if l * l > 4 * group_order and is_prime(l):
            return l, pow(primitive_root(l), (l - 1) // exponent, l)
        l += exponent
    raise ArithmeticError(
        f"no usable prime = 1 (mod {exponent}) below {_DIXON_PRIME_BOUND}")


# -- the table computation ----------------------------------------------------


def dixon_character_table(G: FiniteGroup) -> CharacterTable:
    """Irr(G), computed once per group: the table is cached on G and shared
    by every caller, so its rows are a tuple (build a changed table with
    `table._replace`).  A computation that raises caches nothing."""
    if G._table is None:
        _dixon_table(G)
    return G._table


def _dixon_table(G: FiniteGroup) -> CharacterTable:
    classes = conjugacy_classes(G)
    # the trivial group is cyclic too: its one class generates it
    cyc = next((i for i, c in enumerate(classes.classes) if c.rep_order == G.order), None)
    if cyc is not None:
        chars = _cyclic_characters(classes.powers[cyc])
    else:
        chars = _dixon_characters(G, classes, G.exponent())
    return cache_character_table(G, chars)


def cache_character_table(G: FiniteGroup, chars) -> CharacterTable:
    """Irr(G) from its irreducibles in any order: sorted, checked by
    `_validate_table` and cached on G, where `dixon_character_table` finds it."""
    exponent = G.exponent()
    chars = sorted(chars, key=lambda cf: _char_sort_key(cf, exponent))
    table = CharacterTable(G, conjugacy_classes(G), tuple(chars), exponent)
    _validate_table(table)
    G._table = table
    return table


def _char_sort_key(cf: ClassFunction, exponent: int):
    return (cf.degree_int(), tuple(v.embedded(exponent).coeffs for v in cf.values))


def _cyclic_characters(pos: tuple) -> list[ClassFunction]:
    """The table of a cyclic group, from the classes `pos[t]` of a
    generator's powers g ** t."""
    n = len(pos)
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
    inverses = classes.classes[classes.powers[i][-1]].member_indices
    mat = [[0] * k for _ in range(k)]
    for t, c in enumerate(classes.classes):
        for y in G.actions.left(G.index[c.rep], inverses):
            mat[class_of[y]][t] += 1
    return [[v % l for v in row] for row in mat]


def _separates(w: list[list[int]], i: int, l: int) -> bool:
    """Whether class matrix i has more than one eigenvalue on span(w): column
    i of w is not proportional to column 0 (the module docstring)."""
    row = next((r for r in w if r[0]), None)
    if row is None:
        raise AssertionError("no basis row has a nonzero identity entry")
    lam = row[i] * pow(row[0], -1, l) % l
    return any((r[i] - lam * r[0]) % l for r in w)


def _eigenspaces(G: FiniteGroup, classes: ConjugacyClassSet, l: int) -> list[list[list[int]]]:
    """The one-dimensional common eigenspaces of the class matrices over F_l."""
    k = len(classes.classes)
    sizes = [c.size for c in classes.classes]
    spaces: list[list[list[int]]] = [[[1 if i == j else 0 for j in range(k)]
                                      for i in range(k)]]
    for i in sorted(range(1, k), key=lambda i: (sizes[i], i)):
        split = [len(w) > 1 and _separates(w, i, l) for w in spaces]
        if not any(split):
            continue
        mat = _class_matrix(G, classes, i, l)
        nxt = []
        for w, sep in zip(spaces, split):
            parts = _refine_space(w, mat, l) if sep else [w]
            if sep and len(parts) < 2:
                raise AssertionError("a class matrix separated a space but did not split it")
            nxt.extend(parts)
        spaces = nxt
    if not all(len(w) == 1 for w in spaces):
        raise AssertionError("eigenspace splitting failed after all class matrices")
    return spaces


def _dixon_characters(G: FiniteGroup, classes: ConjugacyClassSet,
                      exponent: int) -> list[ClassFunction]:
    k = len(classes.classes)
    l, omega = dixon_field(exponent, G.order)
    sizes = [c.size for c in classes.classes]
    spaces = _eigenspaces(G, classes, l)

    inv_class = [pc[-1] for pc in classes.powers]
    inv_sizes = [pow(h, -1, l) for h in sizes]
    # The lift at class t: the multiplicity of omega_t^s as an eigenvalue is
    # (1/ord_t) sum_r chi(rep_t^r) omega_t^(-rs), with omega_t of order ord_t.
    # The terms see r only through the class powers[t][r], so the roots are
    # summed once per power class: lifts[t] holds the distinct classes of
    # powers[t] and, for each s, the weight of each over ord_t.
    lifts = []
    for pc in classes.powers:
        ord_t = len(pc)
        root = [pow(omega, exponent // ord_t * j, l) for j in range(ord_t)]
        inv_ord = pow(ord_t, -1, l)
        distinct = list(dict.fromkeys(pc))
        slot = {c: m for m, c in enumerate(distinct)}
        per_s = []
        for s in range(ord_t):
            wt = [0] * len(distinct)
            for r, c in enumerate(pc):
                wt[slot[c]] += root[(-r * s) % ord_t]
            per_s.append([x * inv_ord % l for x in wt])
        lifts.append((distinct, per_s))

    chars = []
    interned: dict[tuple, Cyclotomic] = {}  # (order, coeffs) -> one shared value
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
        for distinct, per_s in lifts:
            at = [cvals[c] for c in distinct]
            coeffs = []
            for wt in per_s:
                ms = sum(map(mul, at, wt)) % l
                if ms > degree:
                    raise AssertionError("eigenvalue multiplicity exceeds the degree")
                coeffs.append(ms)
            if sum(coeffs) != degree:
                raise AssertionError("eigenvalue multiplicities do not sum to the degree")
            val = Cyclotomic(len(per_s), coeffs)
            values.append(interned.setdefault((val.order, val.coeffs), val))
        chars.append(ClassFunction(tuple(values)))
    return chars


def _refine_space(w: list[list[int]], mat: list[list[int]], l: int) -> list[list[list[int]]]:
    d = len(w)
    k = len(w[0])
    images = [[x % l for x in img] for img in mat_mul(w, transpose(mat))]
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
    _, pivots, t = rref_mod(w, l)
    if len(pivots) != len(w):
        raise AssertionError("subspace basis is degenerate")
    # w's reduced form has unit pivot columns, so the coordinates of a vector
    # in its span are its pivot entries times the transform
    b = [[x % l for x in row]
         for row in mat_mul([[img[c] for c in pivots] for img in images], t)]
    # verify (cheap, catches bookkeeping errors)
    for img, back in zip(images, mat_mul(b, w)):
        if any((x - y) % l for x, y in zip(back, img)):
            raise AssertionError("image left the invariant subspace")
    return b


def _validate_table(table: CharacterTable) -> None:
    total = sum(d * d for d in table.degrees())
    if total != table.group.order:
        raise AssertionError("sum of squared degrees must equal the group order")
    # <chi, chi> = (1/|G|) sum_i |C_i| |chi_i|^2, with |x|^2 taken once per
    # distinct value x of the table
    sizes = [c.size for c in table.classes.classes]
    order = Cyclotomic.integer(table.group.order)
    norms: dict[tuple, Cyclotomic] = {}
    for chi in table.chars:
        row = []
        for x in chi.values:
            key = (x.order, x.coeffs)
            norm = norms.get(key)
            if norm is None:
                norm = norms[key] = cyclo_dot((1,), (x,), (x,))
            row.append(norm)
        if exact_div(cyclo_dot(sizes, row), order) != 1:
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
