"""Exact integer matrix kernels: HNF, Smith form, fraction-free determinants,
p-adic valuations and lattice volume/index computations, plus Gauss-Jordan
elimination over a prime field F_l.

Matrices are lists of equal-length rows of arbitrary-precision ints (or
Cyclotomic entries where noted).  Everything over Z is exact; no modular
shortcuts.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple


def spec_int(value, what: str) -> int:
    """An integer read from JSON, an int or a decimal string; a float or a bool
    (which int() would truncate or accept) or any other value raises, naming `what`."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:  # a non-decimal string
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    nb = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * nb
        for k, x in enumerate(row):
            if x:
                bk = b[k]
                for j in range(nb):
                    acc[j] += x * bk[j]
        out.append(acc)
    return out


def transpose(m: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*m)] if m else []


class HNFResult(NamedTuple):
    hnf: list[list[int]]
    transform: list[list[int]]
    rank: int
    pivots: tuple[int, ...]

    def solve(self, target: list[int] | tuple[int, ...]) -> list[int] | None:
        """Integer x with x @ matrix == target, or None, where `matrix` is the
        input this result was computed from.

        Back-substitution against the echelon rows, so one factorisation
        serves any number of targets.
        """
        h, u = self.hnf, self.transform
        y = [0] * len(u)
        rem = list(target)
        for i, col in enumerate(self.pivots):
            q, r = divmod(rem[col], h[i][col])
            if r:
                return None
            y[i] = q
            if q:
                hi = h[i]
                for k in range(len(rem)):
                    rem[k] -= q * hi[k]
        if any(rem):
            return None
        terms = [(q, u[i]) for i, q in enumerate(y) if q]
        return [sum(q * row[j] for q, row in terms) for j in range(len(u))]


def hnf(matrix: list[list[int]]) -> HNFResult:
    """Row-style Hermite normal form with unimodular transform.

    transform @ matrix == hnf; pivots positive, entries above each pivot
    reduced into [0, pivot); zero rows pushed to the bottom.  Output is the
    canonical HNF of the row lattice, so it is deterministic.  Each column
    is cleared by Euclid on the least pivot: the row with the least nonzero
    entry reduces the others by floor quotients until it alone is nonzero.
    `_row_sub` is the one row operation, which keeps intermediate entries
    small where an xgcd combination of two rows lets them grow.
    """
    h = [list(r) for r in matrix]
    m = len(h)
    u = identity_matrix(m)
    row = 0
    pivots = []
    ncols = len(h[0]) if h else 0
    for col in range(ncols):
        live = [i for i in range(row, m) if h[i][col]]
        if not live:
            continue
        while len(live) > 1:
            piv = min(live, key=lambda i: abs(h[i][col]))
            for i in live:
                if i != piv:
                    _row_sub(h, u, i, piv, h[i][col] // h[piv][col])
            live = [i for i in live if h[i][col]]
        piv = live[0]
        if piv != row:
            h[row], h[piv] = h[piv], h[row]
            u[row], u[piv] = u[piv], u[row]
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


def _row_sub(h, u, i, j, q):
    hi, hj = h[i], h[j]
    for k in range(len(hi)):
        hi[k] -= q * hj[k]
    ui, uj = u[i], u[j]
    for k in range(len(ui)):
        ui[k] -= q * uj[k]


def kernel_rows(matrix: list[list[int]]) -> list[list[int]]:
    """Basis (as rows, HNF-canonical) of {x : x @ matrix = 0} over Z."""
    res = hnf(matrix)
    rows = [res.transform[i] for i in range(res.rank, len(matrix))]
    if not rows:
        return []
    return [r for r in hnf(rows).hnf if any(r)]


def solve_left(basis: list[list[int]], target: list[int]) -> list[int] | None:
    """Integer x with x @ basis == target, or None."""
    return hnf(basis).solve(target)


def rref_mod(rows: list[list[int]], l: int) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Reduced row echelon form over F_l, l prime, by Gauss-Jordan elimination.

    Returns (reduced, pivots, transform) with entries in [0, l):
    transform @ rows == reduced over F_l, transform is invertible, row i of
    `reduced` has its leading 1 in column pivots[i], and the rows after the
    last pivot row are zero.  `reduced` depends only on the row space, and
    `transform` is unique when the rows are independent.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    # each row carries its transform row behind it: [row | e_i]
    aug = [[x % l for x in row] + [1 if j == i else 0 for j in range(m)]
           for i, row in enumerate(rows)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], -1, l)
        pr = aug[r] = [(x * inv) % l for x in aug[r]]
        for i in range(m):
            f = aug[i][c]
            if i != r and f:
                aug[i] = [(x - f * y) % l for x, y in zip(aug[i], pr)]
        pivots.append(c)
        r += 1
    return [row[:n] for row in aug], pivots, [row[n:] for row in aug]


def smith_invariants(matrix: list[list[int]]) -> list[int]:
    """Nonzero elementary divisors d1 | d2 | ... of an integer matrix.

    Alternates Hermite forms of the rows and of the columns (Kannan-Bachem)
    until the matrix is diagonal; every elimination goes through `hnf`.
    """
    a = [r for r in hnf(matrix).hnf if any(r)]
    # The loop ends: each pass replaces the leading pivot by the gcd of the
    # line it leads, so that positive pivot shrinks until it divides its row
    # and column, which then stay clear; the trailing block repeats this.
    while any(x for i, r in enumerate(a) for j, x in enumerate(r) if i != j):
        a = [r for r in hnf(transpose(a)).hnf if any(r)]
    divisors = [a[i][i] for i in range(len(a))]
    # enforce the divisibility chain
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            di, dj = divisors[i], divisors[j]
            if dj % di:
                g = gcd(di, dj)
                divisors[i], divisors[j] = g, di * dj // g
    return divisors


def det_exact(matrix: list[list]):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Entries may be ints or Cyclotomic values; divisions are exact in the
    ambient domain and verified, so an inexact division signals a bug.
    """
    from .cyclotomic import Cyclotomic, exact_div

    n = len(matrix)
    if n == 0:
        return 1
    if any(len(r) != n for r in matrix):
        raise ValueError("determinant requires a square matrix")
    cyclo = any(isinstance(x, Cyclotomic) for row in matrix for x in row)
    if cyclo:
        a = [[x if isinstance(x, Cyclotomic) else Cyclotomic.integer(x) for x in row]
             for row in matrix]

        def is_zero(v):
            return v.is_zero()

        prev: object = Cyclotomic.one()
    else:
        a = [list(r) for r in matrix]

        def is_zero(v):
            return v == 0

        prev = 1
    sign = 1
    for k in range(n - 1):
        if is_zero(a[k][k]):
            swap = next((i for i in range(k + 1, n) if not is_zero(a[i][k])), None)
            if swap is None:
                return Cyclotomic.zero() if cyclo else 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        ak = a[k]
        akk = ak[k]
        for ai in a[k + 1:]:
            aik = ai[k]
            if not cyclo and aik == 0 and akk == prev:
                continue  # each update (a_ij * a_kk - 0) / prev is a_ij
            for j in range(k + 1, n):
                if cyclo:
                    ai[j] = exact_div(ai[j] * akk - aik * ak[j], prev)
                    continue
                ai[j], r = divmod(ai[j] * akk - aik * ak[j], prev)
                if r:
                    raise ArithmeticError("inexact division in Bareiss elimination")
            ai[k] = Cyclotomic.zero() if cyclo else 0
        prev = akk
    result = a[n - 1][n - 1]
    if sign < 0:
        result = -result
    return result


def p_valuation(n: int, p: int) -> int:
    """Largest k with p**k | n; rejects n = 0."""
    if n == 0:
        raise ValueError("p-adic valuation of 0 is undefined (singular input upstream)")
    if p < 2:
        raise ValueError(f"p must be a prime, got {p}")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def p_part(n: int, p: int) -> int:
    return p ** p_valuation(n, p)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


@lru_cache(maxsize=None)
def prime_divisors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, in increasing order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def primitive_root(p: int) -> int:
    """The smallest generator of the multiplicative group of F_p, p prime."""
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in prime_divisors(p - 1)):
            return g
    raise ValueError(f"no primitive root modulo {p}")


def lattice_index(ambient: list[list[int]], sub: list[list[int]]) -> int:
    """Index |ambient : sub| for a finite-index sublattice, via Smith divisors.

    The rows of `sub` are expressed over `ambient` (raises if one is not
    contained), and the index is cross-checked against |det| of that
    change-of-basis matrix (the two must agree; a mismatch would signal an
    arithmetic bug).
    """
    solve = hnf(ambient).solve
    t = []
    for vec in sub:
        sol = solve(vec)
        if sol is None:
            raise ValueError("row space not contained in ambient lattice")
        t.append(sol)
    if len(t) != len(ambient):
        raise ValueError("rank mismatch: sublattice is not finite index")
    d = det_exact(t)
    if d == 0:
        raise ValueError("rank mismatch: sublattice is not finite index")
    divisors = smith_invariants(t)
    prod = 1
    for e in divisors:
        prod *= e
    if prod != abs(d):
        raise AssertionError("Smith divisors disagree with determinant")
    return prod
