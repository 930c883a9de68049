"""Exact arithmetic in rings of cyclotomic integers Z[zeta_e].

Values are stored as integer coefficient vectors over the power basis
1, zeta, ..., zeta^(e-1), reduced modulo the e-th cyclotomic polynomial so
that all coefficients at indices >= phi(e) vanish.  Two values are equal
iff their canonical vectors agree after embedding into a common order.
No floating point is used anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .intlinalg import hnf, prime_divisors, spec_int


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return tuple(out)


def _reduce_mod_phi(vec: list[int], e: int) -> None:
    """Reduce vec modulo the e-th cyclotomic polynomial in place, subtracting
    only its nonzero lower terms; every entry from deg Phi_e up ends at 0."""
    deg, tail = _phi_tail(e)
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            for j, d in tail:
                vec[i + j] -= c * d


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the e-th cyclotomic polynomial."""
    if e < 1:
        raise ValueError(f"order must be positive, got {e}")
    if e == 1:
        return (-1, 1)
    num = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    den: tuple[int, ...] = (1,)
    for d in range(1, e):
        if e % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    # exact division (x^e - 1) / prod_{d|e, d<e} Phi_d
    quot = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(den) - 1]
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                rem[i + j] -= c * dj
    if any(rem):
        raise AssertionError("cyclotomic polynomial division must be exact")
    return tuple(quot)


@lru_cache(maxsize=None)
def _phi_degree(e: int) -> int:
    return len(cyclotomic_polynomial(e)) - 1


@lru_cache(maxsize=None)
def _phi_tail(e: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """deg Phi_e and the nonzero (j - deg, c_j) below its leading term."""
    deg = _phi_degree(e)
    return deg, tuple((j - deg, c) for j, c in enumerate(cyclotomic_polynomial(e)[:deg]) if c)


@lru_cache(maxsize=None)
def _units(e: int) -> tuple[int, ...]:
    return tuple(k for k in range(1, e + 1) if gcd(k, e) == 1)


class Cyclotomic:
    """An element of Z[zeta_e] in canonical power-basis form."""

    __slots__ = ("order", "coeffs", "_hash", "_terms")

    def __init__(self, order: int, coeffs) -> None:
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        vec = list(coeffs)
        if len(vec) != order:  # wrap around: zeta^i = zeta^(i mod order)
            vec = [sum(vec[r::order]) for r in range(order)]
        if any(vec[_phi_degree(order):]):
            _reduce_mod_phi(vec, order)
        self.order = order
        self.coeffs = tuple(vec)
        self._hash = None
        self._terms = None

    @classmethod
    def _make(cls, order: int, canonical_vec: tuple) -> "Cyclotomic":
        """Wrap an already-canonical coefficient tuple (no reduction pass)."""
        self = object.__new__(cls)
        self.order = order
        self.coeffs = canonical_vec
        self._hash = None
        self._terms = None
        return self

    def terms(self) -> tuple:
        """The nonzero (index, coefficient) pairs of `coeffs`, computed once."""
        if self._terms is None:
            self._terms = tuple([(i, c) for i, c in enumerate(self.coeffs) if c])
        return self._terms

    # -- constructors ---------------------------------------------------

    @classmethod
    def integer(cls, n: int) -> "Cyclotomic":
        return cls(1, (n,))

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls(1, (0,))

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls(1, (1,))

    @classmethod
    def root_of_unity(cls, e: int, k: int = 1) -> "Cyclotomic":
        """zeta_e ** k."""
        vec = [0] * e
        vec[k % e] = 1
        return cls(e, vec)

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> int:
        if not self.is_rational_integer():
            raise ValueError(f"not a rational integer: {self!r}")
        return self.coeffs[0]

    # -- ring structure ---------------------------------------------------

    def embedded(self, order: int) -> "Cyclotomic":
        """The same value in Z[zeta_order]; requires self.order | order.  The
        result is memoised per distinct value (`_embed`) and may be shared."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot embed order {self.order} into {order}")
        return _embed(self.order, self.coeffs, order)

    def _pair(self, other) -> tuple["Cyclotomic", "Cyclotomic"]:
        if isinstance(other, int):
            other = Cyclotomic.integer(other)
        elif not isinstance(other, Cyclotomic):
            return NotImplemented, NotImplemented
        e = lcm(self.order, other.order)
        return self.embedded(e), other.embedded(e)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        # sums of canonical vectors stay canonical
        return Cyclotomic._make(a.order, tuple([x + y for x, y in zip(a.coeffs, b.coeffs)]))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._make(self.order, tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return Cyclotomic._make(a.order, tuple([x - y for x, y in zip(a.coeffs, b.coeffs)]))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Cyclotomic._make(self.order, (0,) * self.order)
            return Cyclotomic._make(self.order, tuple([other * c for c in self.coeffs]))
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        e = a.order
        out = [0] * e
        for i, ai in a.terms():
            for j, bj in b.terms():
                out[(i + j) % e] += ai * bj
        return Cyclotomic(e, out)

    __rmul__ = __mul__

    def galois(self, k: int) -> "Cyclotomic":
        """Apply zeta |-> zeta^k; requires gcd(k, order) = 1."""
        e = self.order
        if gcd(k, e) != 1:
            raise ValueError(f"galois exponent {k} not coprime to order {e}")
        vec = [0] * e
        for i, c in self.terms():
            vec[(i * k) % e] += c
        return Cyclotomic(e, vec)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta |-> zeta^-1."""
        return self.galois(self.order - 1) if self.order > 1 else self

    # -- canonical identity across orders ---------------------------------

    def minimized(self) -> "Cyclotomic":
        """Equal value at the smallest order e' | order containing it."""
        val = self
        changed = True
        while changed:
            changed = False
            e = val.order
            for q in prime_divisors(e):
                d = e // q
                low = val._descend(d)
                if low is not None:
                    val = low
                    changed = True
                    break
        return val

    def _descend(self, d: int) -> "Cyclotomic | None":
        """Express the value in Z[zeta_d] (d | order) if possible, else None."""
        e = self.order
        if e == d:
            return self
        # fixed by Gal(Q(zeta_e)/Q(zeta_d)) = {sigma_k : k = 1 mod d}?
        for k in _units(e):
            if k != 1 and k % d == 1 and self.galois(k) != self:
                return None
        sol = _descent_solver(e, d)(self.coeffs)
        if sol is None:
            return None
        return Cyclotomic(d, sol)

    def key(self) -> tuple:
        """Hashable canonical key, independent of the ambient order."""
        if self.is_rational_integer():
            return (1, (self.coeffs[0],))
        m = self.minimized()
        return (m.order, m.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_rational_integer() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self) -> str:
        if self.is_rational_integer():
            return str(self.coeffs[0])
        terms = []
        for i, c in self.terms():
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{self.order}" + (f"^{i}" if i > 1 else "")
                terms.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        return "(" + "+".join(terms).replace("+-", "-") + ")"

    def to_json(self) -> dict:
        m = self.minimized()
        deg = _phi_degree(m.order)
        return {"order": m.order, "coeffs": [str(c) for c in m.coeffs[:max(deg, 1)]]}

    @classmethod
    def from_json(cls, data: dict) -> "Cyclotomic":
        return cls(spec_int(data["order"], "order"),
                   [spec_int(c, "coeffs") for c in data["coeffs"]])


@lru_cache(maxsize=4096)
def _embed(order: int, coeffs: tuple, target: int) -> Cyclotomic:
    """Canonical order-`order` `coeffs` in Z[zeta_target], reduced modulo Phi_target;
    the memo is bounded, since a run over many groups keeps meeting new values."""
    vec = [0] * target
    vec[::target // order] = coeffs
    return Cyclotomic(target, vec)


@lru_cache(maxsize=None)
def _descent_solver(e: int, d: int):
    """A function mapping canonical order-e coefficients to order-d ones.

    Solves c * B = v where row i of B is the canonical order-e vector of
    zeta_d^i.  Returns None when no integer solution exists.  B is factored
    once per (e, d); each call only back-substitutes.
    """
    basis = [Cyclotomic.root_of_unity(d, i).embedded(e).coeffs for i in range(d)]
    return hnf(basis).solve


def exact_div(a: Cyclotomic, b: Cyclotomic) -> Cyclotomic:
    """a / b when the quotient lies in the ring; raises otherwise.

    Uses a * conj-product(b) / Norm(b) with the norm taken over the Galois
    orbit, so only a rational integer division remains.
    """
    if isinstance(a, int):
        a = Cyclotomic.integer(a)
    if isinstance(b, int):
        b = Cyclotomic.integer(b)
    if b.is_zero():
        raise ZeroDivisionError("cyclotomic division by zero")
    if b.is_rational_integer():
        n = b.coeffs[0]
        if any(c % n for c in a.coeffs):
            raise ArithmeticError(f"inexact cyclotomic division {a!r} / {n}")
        return Cyclotomic._make(a.order, tuple([c // n for c in a.coeffs]))
    e = lcm(a.order, b.order)
    a = a.embedded(e)
    b = b.embedded(e)
    cofactor = Cyclotomic.one()
    for k in _units(e):
        if k != 1:
            cofactor = cofactor * b.galois(k)
    norm = (b * cofactor).rational_value()
    num = a * cofactor
    if any(c % norm for c in num.coeffs):
        raise ArithmeticError(f"inexact cyclotomic division {a!r} / {b!r}")
    return Cyclotomic(e, [c // norm for c in num.coeffs])


def cyclo_dot(weights, xs, ys=None) -> Cyclotomic:
    """sum_i w_i * x_i * conj(y_i) for integer weights, or sum_i w_i * x_i
    when ys is None.

    Terms with a zero weight or value are skipped, and e is the lcm of the
    orders of the rest.  Only nonzero coefficients (`terms()`) are walked.
    Every product is accumulated unreduced modulo x^e - 1: zeta_o^i is index
    i * (e / o) and its conjugate index -i * (e / o) mod e.  The sum is
    reduced modulo Phi_e once, at the end.
    """
    if ys is None:
        terms = [(w, x) for w, x in zip(weights, xs) if w and x.terms()]
        e = lcm(1, *(x.order for _, x in terms))
        acc = [0] * e
        for w, x in terms:
            step = e // x.order
            for i, c in x.terms():
                acc[i * step] += w * c
        return Cyclotomic(e, acc)
    terms = [(w, x, y) for w, x, y in zip(weights, xs, ys) if w and x.terms() and y.terms()]
    e = lcm(1, *(x.order for _, x, _ in terms), *(y.order for _, _, y in terms))
    acc = [0] * (2 * e)  # index i + j for i, j < e; folded modulo x^e - 1 below
    for w, x, y in terms:
        step = e // y.order
        conj_y = [(-j * step % e, d) for j, d in y.terms()]
        step = e // x.order
        for i, c in x.terms():
            i *= step
            c *= w
            for j, d in conj_y:
                acc[i + j] += c * d
    return Cyclotomic(e, [a + b for a, b in zip(acc, acc[e:])])
