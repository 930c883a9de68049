import random
from fractions import Fraction
from itertools import product

import pytest

from fuschar.cyclotomic import Cyclotomic
from fuschar.intlinalg import (
    det_exact,
    hnf,
    kernel_rows,
    lattice_index,
    mat_mul,
    p_part,
    p_valuation,
    prime_divisors,
    primitive_root,
    rref_mod,
    smith_invariants,
    solve_left,
    transpose,
)
from oracles import hnf_by_xgcd, kernel_rows_by_xgcd, smith_invariants_by_minors


def test_hnf_examples():
    r = hnf([[2, 0], [1, 1]])
    assert r.hnf == [[1, 1], [0, 2]] and r.rank == 2
    r = hnf([[1, 0], [0, 1]])
    assert r.hnf == [[1, 0], [0, 1]] and r.transform == [[1, 0], [0, 1]]
    r = hnf([[3, 3], [6, 6]])
    assert r.hnf == [[3, 3], [0, 0]] and r.rank == 1


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_hnf_transform_and_idempotence():
    rng = random.Random(1)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r = hnf(m)
        assert mat_mul(r.transform, m) == r.hnf
        assert abs(det_exact(r.transform)) == 1
        again = hnf(r.hnf)
        assert again.hnf == r.hnf


def cofactor_det(m):
    """Independent oracle: textbook minor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def test_det_examples():
    assert det_exact([[1, 1], [7, -1]]) == -8  # the 2x2 transitive-shape matrix
    assert det_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    z3 = Cyclotomic.root_of_unity(3)
    zero = Cyclotomic.zero()
    assert det_exact([[z3, zero], [zero, z3 * z3]]) == 1


def test_det_against_cofactor_oracle():
    rng = random.Random(2)
    for _ in range(120):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, -5, 5)
        assert det_exact(m) == cofactor_det(m)


def fraction_det(m):
    """Determinant by Gaussian elimination over Q: the oracle for the
    fraction-free integer elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


def test_integer_det_against_fraction_elimination():
    rng = random.Random(5)
    cases = [[], [[0]], [[-7]],
             [[0, 1], [1, 0]],  # a row swap at the first step
             [[0, 2, 1], [0, 1, 5], [3, 1, 1]],  # a swap past the next row
             [[1, 2, 3], [2, 4, 6], [1, 0, 1]],  # singular
             [[2, 4, 1], [1, 2, 7], [3, 6, 2]]]  # zero pivot after one step: a swap
    for _ in range(150):
        n = rng.randint(1, 7)
        m = random_matrix(rng, n, n, -6, 6)
        if n > 1 and rng.random() < 0.3:  # singular: one row repeats another's multiple
            m[rng.randrange(1, n)] = [rng.choice((-2, 1, 3)) * x for x in m[0]]
        if rng.random() < 0.3:  # a zero corner, so the first step swaps rows
            m[0][0] = 0
        cases.append(m)
    singular = 0
    for m in cases:
        d = det_exact(m)
        assert type(d) is int and d == fraction_det(m), m
        singular += d == 0
    assert singular >= 10
    # the exactness check is explicit: a non-integral quotient raises
    with pytest.raises(ArithmeticError, match="inexact division"):
        det_exact([[Fraction(1, 2), 1], [1, 1]])


def test_det_skipping_no_op_rows_matches_fraction_elimination():
    """Bareiss leaves a row alone when a_ik = 0 and a_kk = prev; every other
    zero in the pivot column still scales its row by a_kk / prev."""
    rng = random.Random(7)
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    cases = [[], [[0]], [[1]], [[-4]], identity,
             [[2, 0, 0, 0], [0, -3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]],  # diagonal
             [[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, 4, 1], [0, 0, 2, 5]],  # two blocks
             [[1, 2, 0], [2, 4, 0], [0, 0, 3]],  # singular
             [[1, 2, 3], [0, 4, 5], [0, 6, 7]],  # a_kk = prev = 1: both rows skipped
             [[3, 2, 3], [0, 4, 5], [0, 6, 7]],  # a_kk = 3 != prev: row 1 is scaled
             [[2, 0, 1], [0, 1, 3], [5, 0, 4]]]  # step 1 has a_kk = prev = 2
    for _ in range(200):
        n = rng.randint(1, 7)
        m = [[rng.choice((0, 0, 0, 0, 1, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:  # an identity block in the corner
            for i in range(n // 2):
                m[i] = [int(i == j) for j in range(n)]
        cases.append(m)
    for m in cases:
        d = det_exact(m)
        assert type(d) is int and d == fraction_det(m), m
    assert sum(fraction_det(m) == 0 for m in cases) >= 20


def test_det_cyclotomic_random_vs_conjugate():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 3)
        m = [[Cyclotomic(5, [rng.randint(-2, 2) for _ in range(5)])
              for _ in range(n)] for _ in range(n)]
        d = det_exact(m)
        conj = det_exact([[v.conjugate() for v in row] for row in m])
        assert d.conjugate() == conj


def test_p_valuation():
    assert p_valuation(2 ** 22, 2) == 22
    assert p_valuation(1, 5) == 0
    assert p_valuation(-24, 2) == 3
    assert p_part(-24, 2) == 8
    with pytest.raises(ValueError):
        p_valuation(0, 2)
    with pytest.raises(ValueError):
        p_valuation(12, 1)


def brute_force_index(m_basis, box=8):
    """Oracle: count coset representatives of M in Z^2 over a box of points."""
    def in_m(vec):
        return solve_left(m_basis, list(vec)) is not None

    reps = []
    for pt in product(range(box), repeat=2):
        if not any(in_m((pt[0] - r[0], pt[1] - r[1])) for r in reps):
            reps.append(pt)
    return len(reps)


def test_lattice_volume_index_examples():
    # the index of M in L is vol(M) / vol(L), with vol = |det basis|
    assert lattice_index([[1, 0], [0, 1]], [[2, 0], [0, 2]]) == 4
    assert lattice_index([[3, 1], [0, 2]], [[3, 1], [0, 2]]) == 1
    sub = [[6, 2], [3, 5]]  # 2 (3, 1) and (3, 1) + 2 (0, 2)
    assert lattice_index([[3, 1], [0, 2]], sub) == 4 == abs(det_exact(sub)) // 6
    m = [[1, 1], [0, 3]]
    assert lattice_index([[1, 0], [0, 1]], m) == 3 == brute_force_index(m) == det_exact(m)


def test_lattice_errors():
    with pytest.raises(ValueError):
        lattice_index([[1, 0], [0, 1]], [[1, 0], [2, 0]])  # rank deficient
    with pytest.raises(ValueError):
        lattice_index([[2, 0], [0, 2]], [[1, 0], [0, 1]])  # not contained


def test_smith_divisor_chain():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        divs = smith_invariants(m)
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0
        d = det_exact(m)
        if d:
            prod = 1
            for x in divs:
                prod *= x
            assert prod == abs(d)


def test_smith_invariants_match_determinantal_divisors():
    rng = random.Random(11)
    shapes = [(m, n) for m in range(1, 5) for n in range(1, 5)]
    for _ in range(150):
        m, n = rng.choice(shapes)
        a = random_matrix(rng, m, n, -6, 6)
        if m > 1 and rng.random() < 0.4:  # rank deficient: last row from earlier ones
            k = rng.randint(-3, 3)
            a[-1] = [x + k * y for x, y in zip(a[0], a[-2])]
        assert smith_invariants(a) == smith_invariants_by_minors(a), a
    for m, n in shapes:
        assert smith_invariants([[0] * n for _ in range(m)]) == []
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariants([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]


def constraint_shaped(rng, m, n, rank):
    """m x n of rank at most `rank`: each row a +-1 combination of sparse rows,
    as the constancy constraints of a stable lattice are."""
    sparse = [[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.1 else 0 for _ in range(n)]
              for _ in range(rank)]
    rows = []
    for _ in range(m):
        row = [0] * n
        for s in rng.sample(sparse, rng.randint(1, 4)):
            sign = rng.choice((-1, 1))
            row = [x + sign * y for x, y in zip(row, s)]
        rows.append(row)
    return rows


def test_hnf_matches_xgcd_oracle():
    rng = random.Random(18)
    cases = [random_matrix(rng, m, n) for m, n in
             [(4, 4), (5, 5), (7, 3), (9, 2), (3, 7), (2, 9), (1, 6), (6, 1)]]
    cases += [[[0] * n for _ in range(m)] for m, n in [(1, 1), (3, 5), (5, 3)]]
    for m, n in [(4, 4), (6, 3), (3, 6)]:  # rank deficient: rows from two others
        a = random_matrix(rng, m, n)
        for i in range(2, m):
            c, d = rng.randint(-3, 3), rng.randint(-3, 3)
            a[i] = [c * x + d * y for x, y in zip(a[0], a[1])]
        cases.append(a)
    cases += [constraint_shaped(rng, 20, 60, 15) for _ in range(3)]
    cases += [constraint_shaped(rng, 12, 30, 8), transpose(constraint_shaped(rng, 12, 30, 8))]
    assert [hnf(a).rank for a in cases[-8:]] == [2, 2, 2, 14, 14, 15, 8, 8]
    for a in cases:
        res, ref = hnf(a), hnf_by_xgcd(a)
        assert (res.hnf, res.rank, res.pivots) == (ref.hnf, ref.rank, ref.pivots), a
        assert mat_mul(res.transform, a) == res.hnf
        assert abs(det_exact(res.transform)) == 1
        if res.rank == len(a):  # independent rows: the transform is unique
            assert res.transform == ref.transform
        assert kernel_rows(a) == kernel_rows_by_xgcd(a), a


def test_kernel_and_solve():
    a = [[1], [-1], [2]]
    k = kernel_rows(a)
    assert len(k) == 2
    for row in k:
        assert sum(x * y[0] for x, y in zip(row, a)) == 0
    sol = solve_left([[2, 0], [0, 3]], [4, 9])
    assert sol == [2, 3]
    assert solve_left([[2, 0], [0, 3]], [1, 0]) is None


def test_prime_divisors_and_primitive_root_by_brute_force():
    for n in range(1, 200):
        brute = tuple(q for q in range(2, n + 1)
                      if n % q == 0 and all(q % d for d in range(2, q)))
        assert prime_divisors(n) == brute, n
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 97, 101):
        smallest = next(g for g in range(2, p)
                        if len({pow(g, k, p) for k in range(1, p)}) == p - 1)
        assert primitive_root(p) == smallest, p
    with pytest.raises(ValueError):
        primitive_root(2)


def solvable_in_box(m, target, bound):
    """Oracle: some integer x with |x_i| <= bound has x @ m == target."""
    for x in product(range(-bound, bound + 1), repeat=len(m)):
        if all(sum(xi * row[j] for xi, row in zip(x, m)) == t
               for j, t in enumerate(target)):
            return True
    return False


def test_hnf_solve_against_solve_left_and_brute_force():
    # at most two rows, entries and targets in [-2, 2]: Cramer's rule (rank
    # two) and the extended gcd (rank one) put a solution inside |x_i| <= 8
    # whenever one exists, so the box search decides solvability
    rng = random.Random(5)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 2), rng.randint(1, 3), -2, 2)
        res = hnf(m)
        targets = [[rng.randint(-2, 2) for _ in m[0]] for _ in range(6)]
        targets.append(mat_mul([[rng.randint(-2, 2) for _ in m]], m)[0])
        for t in targets:
            x = res.solve(t)
            assert x == solve_left(m, t)
            if x is not None:
                assert mat_mul([x], m)[0] == t
            assert (x is not None) == solvable_in_box(m, t, 8), (m, t)


def test_hnf_solve_reuses_one_factorisation():
    rng = random.Random(6)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        res = hnf(m)
        for _ in range(5):
            t = mat_mul([[rng.randint(-3, 3) for _ in m]], m)[0]
            x = res.solve(t)
            assert x == solve_left(m, t) and mat_mul([x], m)[0] == t


def greedy_independent_rows(rows):
    """Oracle: the greedy loop that keeps each row raising the rank."""
    chosen, acc = [], []
    for i, row in enumerate(rows):
        if hnf(acc + [row]).rank == len(acc) + 1:
            chosen.append(i)
            acc.append(row)
    return chosen


def test_rank_profile_is_the_greedy_choice():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        base = random_matrix(rng, rng.randint(1, 4), n, -3, 3)
        # rows mixing a few base rows, so dependencies are common
        rows = [mat_mul([[rng.randint(-2, 2) for _ in base]], base)[0]
                for _ in range(rng.randint(1, 7))]
        assert list(hnf(transpose(rows)).pivots) == greedy_independent_rows(rows)


def test_rref_mod_transform_and_echelon_shape():
    rng = random.Random(8)
    for _ in range(60):
        l = rng.choice([2, 3, 5, 7, 13])
        rows = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -20, 20)
        reduced, pivots, t = rref_mod(rows, l)
        assert [[x % l for x in r] for r in mat_mul(t, rows)] == reduced
        assert det_exact(t) % l
        for i, c in enumerate(pivots):
            assert reduced[i][c] == 1
            assert all(reduced[j][c] == 0 for j in range(len(rows)) if j != i)
            assert not any(reduced[i][:c])
        assert not any(x for r in reduced[len(pivots):] for x in r)
