import random

import pytest

from math import lcm

from fuschar.cyclotomic import (
    Cyclotomic,
    _embed,
    _reduce_mod_phi,
    cyclo_dot,
    cyclotomic_polynomial,
    exact_div,
)

from oracles import embedded_unmemoised


def z(e, k=1):
    return Cyclotomic.root_of_unity(e, k)


def test_i_squared():
    assert z(4) * z(4) == -1


def test_sum_of_pth_roots_is_minus_one():
    for p in (3, 5, 7, 11):
        total = Cyclotomic.zero()
        for i in range(1, p):
            total = total + z(p, i)
        assert total == -1


def test_conjugate_of_zeta8():
    assert z(8).conjugate() == z(8, 7)
    assert z(8) * z(8).conjugate() == 1


def test_canonical_reduction():
    # zeta_6^2 = zeta_6 - 1 after reduction by the 6th cyclotomic polynomial
    assert z(6, 2) == z(6) - 1
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    deg = len(cyclotomic_polynomial(8)) - 1
    assert all(c == 0 for c in z(8, 5).coeffs[deg:])


def test_embed_preserves_value():
    a = z(3)
    assert a.embedded(12) == z(12, 4)
    assert a.embedded(12).minimized().order == 3
    with pytest.raises(ValueError):
        a.embedded(10)


def test_memoised_embedding_matches_the_unmemoised_oracle():
    rng = random.Random(2026)
    targets = [2 ** k for k in range(7)] + [59, 61]
    for n in targets:
        for o in (d for d in range(1, n + 1) if n % d == 0):
            for trial in range(12):
                if trial % 3 == 0:  # dense: every coefficient below phi(o) may be nonzero
                    a = random_cyclo(rng, o)
                elif trial % 3 == 1:
                    a = z(o, rng.randrange(o)) * rng.randint(-3, 3)
                else:
                    a = Cyclotomic(o, [rng.choice([0, 0, 0, rng.randint(-4, 4)])
                                       for _ in range(o)])
                want = embedded_unmemoised(a, n)
                for got in (a.embedded(n), Cyclotomic(o, a.coeffs).embedded(n)):
                    assert (got.order, got.coeffs) == (want.order, want.coeffs), (o, n, a)
                    assert got.terms() == want.terms()
    # equal inputs share one memoised result; the same order is the value itself
    a = Cyclotomic(8, (1, 2, 0, -1, 0, 0, 0, 0))
    assert a.embedded(64) is Cyclotomic(8, a.coeffs).embedded(64)
    assert a.embedded(8) is a
    assert _embed.cache_info().currsize > 0
    for value, order in ((z(64), 96), (z(59), 61), (z(8), 4)):
        with pytest.raises(ValueError):
            value.embedded(order)


def test_rational_detection():
    assert Cyclotomic.integer(-7).is_rational_integer()
    assert (z(8, 4)).rational_value() == -1
    assert not z(8).is_rational_integer()
    with pytest.raises(ValueError):
        z(8).rational_value()


def test_mixed_order_arithmetic():
    assert z(2) == Cyclotomic.integer(-1)
    assert z(3) + z(4) == z(12, 4) + z(12, 3)
    assert hash(z(6, 3)) == hash(Cyclotomic.integer(-1))


def test_exact_division():
    a = Cyclotomic(12, [2, 4, 0, 6])
    b = Cyclotomic(12, [1, 2, 0, 3])
    assert exact_div(a, b) == 2
    with pytest.raises(ArithmeticError):
        exact_div(Cyclotomic.integer(3), Cyclotomic.integer(2))
    with pytest.raises(ZeroDivisionError):
        exact_div(a, Cyclotomic.zero())


def test_division_by_unit_roundtrips():
    a = Cyclotomic(8, [1, -2, 0, 5])
    q = exact_div(a * z(8, 3), z(8, 3))
    assert q == a


def random_cyclo(rng, e):
    return Cyclotomic(e, [rng.randint(-4, 4) for _ in range(e)])


def test_conjugation_is_a_ring_involution():
    rng = random.Random(20240801)
    for e in (5, 8, 9, 12):
        for _ in range(25):
            a, b = random_cyclo(rng, e), random_cyclo(rng, e)
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert a.conjugate().conjugate() == a
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_norm_of_root_times_integer_is_nonnegative():
    rng = random.Random(7)
    for _ in range(20):
        e = rng.choice([4, 5, 8, 12])
        val = z(e, rng.randrange(e)) * rng.randint(-5, 5)
        norm = val * val.conjugate()
        assert norm.is_rational_integer() and norm.rational_value() >= 0


def test_json_round_trip():
    a = Cyclotomic(12, [1, -2, 3, 0, 1])
    assert Cyclotomic.from_json(a.to_json()) == a


def test_cyclo_dot_matches_the_operator_loop():
    rng = random.Random(20261018)
    orders = (1, 3, 4, 8, 9, 12, 15)

    def value():
        if rng.random() < 0.2:
            return Cyclotomic(rng.choice(orders), [0])
        return random_cyclo(rng, rng.choice(orders))

    for _ in range(60):
        n = rng.randint(0, 8)
        weights = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(n)]
        xs = [value() for _ in range(n)]
        ys = [value() for _ in range(n)]
        dot = plain = Cyclotomic.zero()
        for w, x, y in zip(weights, xs, ys):
            dot = dot + x * y.conjugate() * w
            plain = plain + x * w
        assert cyclo_dot(weights, xs, ys) == dot
        assert cyclo_dot(weights, xs) == plain
    # the sum lives at the lcm of the orders of its nonzero terms
    assert cyclo_dot([1, 0, 5], [z(3), z(8), Cyclotomic(9, [0])], [z(4), z(5), z(7)]).order == 12
    assert cyclo_dot([], []) == 0


# -- dense oracles: every coefficient slot is walked, zeros included --------


def dense_reduce(num: list[int], e: int) -> list[int]:
    """Remainder of num modulo Phi_e by schoolbook division over all of its
    coefficients; length deg Phi_e."""
    den = cyclotomic_polynomial(e)
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            num[i] = 0
            for j in range(dd):
                num[i - dd + j] -= c * den[j]
    return num[:dd] + [0] * (dd - len(num))


def dense_cyclo_dot(weights, xs, ys=None) -> tuple[int, tuple[int, ...]]:
    """(order, canonical coefficients) of sum w x conj(y), or of sum w x."""
    if ys is None:
        ys = [None] * len(xs)
    terms = [(w, x, y) for w, x, y in zip(weights, xs, ys)
             if w and any(x.coeffs) and (y is None or any(y.coeffs))]
    e = lcm(1, *(v.order for _, x, y in terms for v in (x, y) if v is not None))
    acc = [0] * e
    for w, x, y in terms:
        step = e // x.order
        xt = [(i * step, w * c) for i, c in enumerate(x.coeffs) if c]
        if y is None:
            for i, c in xt:
                acc[i] += c
            continue
        step = e // y.order
        for j, d in enumerate(y.coeffs):
            if d:
                for i, c in xt:
                    acc[(i - j * step) % e] += c * d
    low = dense_reduce(acc, e)
    return e, tuple(low + [0] * (e - len(low)))


def test_sparse_reduction_matches_the_dense_one():
    rng = random.Random(128)
    for e in range(1, 129):
        deg = len(cyclotomic_polynomial(e)) - 1
        for length in (e, 2 * e - 1):
            vec = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(length)]
            vec[-1] = 1
            sparse = list(vec)
            _reduce_mod_phi(sparse, e)
            assert sparse[:deg] == dense_reduce(vec, e), e
            assert not any(sparse[deg:]), e


def test_cyclo_dot_matches_the_dense_oracle():
    rng = random.Random(64)
    orders = (1, 2, 3, 4, 5, 8, 12, 27, 59, 60, 61, 62, 64)

    def value(e):
        if rng.random() < 0.15:
            return Cyclotomic(e, [0])
        if rng.random() < 0.5:
            return Cyclotomic.root_of_unity(e, rng.randrange(e)) * rng.randint(-3, 3)
        return Cyclotomic(e, [rng.choice([0, 0, 0, rng.randint(-4, 4)]) for _ in range(e)])

    for trial in range(300):
        e = rng.choice(orders)
        # one order, the divisors of one order, or small orders with lcm 360
        pool = [[e], [d for d in range(1, e + 1) if e % d == 0], [3, 4, 5, 8, 9, 12]][trial % 3]
        n = rng.randint(0, 12)
        weights = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(n)]
        xs = [value(rng.choice(pool)) for _ in range(n)]
        ys = [value(rng.choice(pool)) for _ in range(n)]
        for args in ((weights, xs, ys), (weights, xs)):
            got = cyclo_dot(*args)
            assert (got.order, got.coeffs) == dense_cyclo_dot(*args), args
    for e in range(1, 65):
        xs = [Cyclotomic.root_of_unity(e, k) for k in range(e)]
        got = cyclo_dot(range(1, e + 1), xs, xs)
        assert (got.order, got.coeffs) == dense_cyclo_dot(range(1, e + 1), xs, xs)


def test_terms_are_the_nonzero_coefficients():
    rng = random.Random(5)
    for e in (1, 6, 27, 59, 64):
        for _ in range(20):
            a = random_cyclo(rng, e)
            for v in (a, a + a, -a, a * 0, a.conjugate(), a.embedded(2 * e)):
                assert v.terms() == tuple((i, c) for i, c in enumerate(v.coeffs) if c)


def test_constructor_wraps_other_lengths_modulo_the_order():
    rng = random.Random(9)
    for e in (1, 5, 8, 12, 61):
        for length in (0, 1, e - 1, e + 1, 3 * e + 2):
            vec = [rng.randint(-5, 5) for _ in range(length)]
            wrapped = [sum(vec[i::e]) for i in range(e)]
            assert Cyclotomic(e, vec).coeffs == Cyclotomic(e, wrapped).coeffs
            assert Cyclotomic(e, iter(vec)).coeffs == Cyclotomic(e, wrapped).coeffs
            assert Cyclotomic(e, (c for c in vec)).coeffs == Cyclotomic(e, wrapped).coeffs
    assert Cyclotomic(5, [0] * 7 + [1]) == Cyclotomic.root_of_unity(5, 2)
