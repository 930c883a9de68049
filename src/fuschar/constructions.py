"""The p^4 group family: S = V:U for V the binary quadratic forms over F_p,
the overgroups V:Gamma_(e) (and twisted variants) and S:<b>, orbit analyses
of the Gamma-action on V, and brute-force point counts over PGL_2(p).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .groups import FiniteGroup, FpMat, enumerate_group, orbit_stabiliser
from .intlinalg import is_prime, primitive_root


def is_square_mod(a: int, p: int) -> bool:
    a %= p
    return any((x * x) % p == a for x in range(p))


def smallest_nonresidue_epsilon(p: int) -> int:
    """Smallest eps in F_p* with -eps a quadratic non-residue."""
    for eps in range(1, p):
        if not is_square_mod(-eps, p):
            return eps
    raise ValueError(f"no valid epsilon modulo {p}")


class ConstructionParams(NamedTuple):
    p: int
    epsilon: int
    lam: int
    b: int

    @classmethod
    def for_prime(cls, p: int) -> "ConstructionParams":
        if p == 2 or not is_prime(p):
            raise ValueError(f"construction needs an odd prime, got {p}")
        root = primitive_root(p)
        return cls(p, smallest_nonresidue_epsilon(p), root, root)


# -- the action of (F_p^x x GL_2) on binary quadratic forms -------------------
#
# Coordinates on V are (c1, c2, c3) for c1*x^2 + c2*xy + c3*y^2.  The pair
# (lam, [[a, b], [c, d]]) sends f(x, y) to lam * f(a x + b y, c x + d y).


def form_action_matrix(p: int, lam: int, a: int, b: int, c: int, d: int) -> FpMat:
    cols = [
        (a * a, 2 * a * b, b * b),          # image of x^2
        (a * c, a * d + b * c, b * d),      # image of xy
        (c * c, 2 * c * d, d * d),          # image of y^2
    ]
    rows = [[lam * cols[j][i] % p for j in range(3)] for i in range(3)]
    return FpMat.from_rows(p, rows)


def mat_vec(m: FpMat, v: tuple[int, int, int]) -> tuple[int, int, int]:
    """m v, for v a column vector of V."""
    e, (x, y, z) = m.entries, v
    return tuple((e[i] * x + e[i + 1] * y + e[i + 2] * z) % m.p for i in (0, 3, 6))


def vec_mat(a: tuple[int, int, int], m: FpMat) -> tuple[int, int, int]:
    """a m, for a a row vector: the exponent vector of a character of V."""
    e, (x, y, z) = m.entries, a
    return tuple((x * e[j] + y * e[j + 3] + z * e[j + 6]) % m.p for j in (0, 1, 2))


def u_linear(p: int) -> FpMat:
    return form_action_matrix(p, 1, 1, 0, 1, 1)


def affine(linear: FpMat, translation: tuple[int, int, int]) -> FpMat:
    p = linear.p
    r = linear.rows()
    rows = [r[i] + [translation[i] % p] for i in range(3)] + [[0, 0, 0, 1]]
    return FpMat.from_rows(p, rows)


def translation(p: int, v: tuple[int, int, int]) -> FpMat:
    return affine(FpMat.identity(p, 3), v)


def linear_part(x: FpMat) -> FpMat:
    r = x.rows()
    return FpMat.from_rows(x.p, [row[:3] for row in r[:3]])


def translation_part(x: FpMat) -> tuple[int, int, int]:
    return x.entries[3:12:4]


def is_translation(x: FpMat) -> bool:
    return linear_part(x).is_identity()


GAMMA_VARIANTS = ("gamma", "gamma2", "gamma4star")


def _gl2_generators(lam: int) -> list[tuple[int, int, int, int]]:
    return [(lam, 0, 0, 1), (1, 1, 0, 1), (0, 1, 1, 0)]


def _det2(a, b, c, d, p):
    return (a * d - b * c) % p


@lru_cache(maxsize=None)
def gamma_group(p: int, variant: str) -> FiniteGroup:
    """Gamma_(1), Gamma_(2) or Gamma*_(4) as a matrix group on V."""
    params = ConstructionParams.for_prime(p)
    lam = params.lam
    if variant not in GAMMA_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "gamma4star" and p % 4 != 1:
        raise ValueError("the twisted index-4 subgroup needs p = 1 (mod 4)")
    e = {"gamma": 1, "gamma2": 2, "gamma4star": 4}[variant]
    gens = []
    for a, b, c, d in _gl2_generators(lam):
        det = _det2(a, b, c, d, p)
        scale = pow(det, -1, p)
        if variant == "gamma4star" and not is_square_mod(det, p):
            scale = (-scale) % p
        gens.append(form_action_matrix(p, scale, a, b, c, d))
    gens.append(form_action_matrix(p, pow(lam, e, p), 1, 0, 0, 1))
    return enumerate_group(gens)


def _designated(p: int) -> dict:
    """The named elements of S, as affine matrices."""
    params = ConstructionParams.for_prime(p)
    eps, lam = params.epsilon, params.lam
    return {
        "z": translation(p, (1, 0, 0)),
        "v1": translation(p, (1, 0, 0)),
        "v2": translation(p, (0, 1, 0)),
        "v3": translation(p, (0, 0, 1)),
        "v1+e*v3": translation(p, (1, 0, eps)),
        "lam*v2": translation(p, (0, lam, 0)),
        "lam*(v1+e*v3)": translation(p, (lam, 0, lam * eps % p)),
        "u": affine(u_linear(p), (0, 0, 0)),
    }


def _v_generators(p: int) -> list[FpMat]:
    return [translation(p, (1, 0, 0)), translation(p, (0, 1, 0)), translation(p, (0, 0, 1))]


@lru_cache(maxsize=None)
def linear_parts(p: int, which: str) -> FiniteGroup:
    """H, the linear parts of the overgroup `which` = V:H, as a matrix group
    on V: <u, b> for S:<b>, one of the Gamma-groups otherwise."""
    if which == "N_b":
        b = ConstructionParams.for_prime(p).b
        return enumerate_group([u_linear(p), form_action_matrix(p, b, 1, 0, 0, b)])
    if not which.startswith("N_") or which[2:] not in GAMMA_VARIANTS:
        raise ValueError(f"unknown construction {which!r}")
    return gamma_group(p, which[2:])


@lru_cache(maxsize=None)
def build_group(p: int, which: str) -> FiniteGroup:
    """Build S, one of the V:Gamma overgroups, or S:<b>.

    which: "S" | "N_gamma" | "N_gamma2" | "N_gamma4star" | "N_b".
    The affine 4x4 representation puts V in the translation part.
    """
    linear = [u_linear(p)] if which == "S" else linear_parts(p, which).generators
    gens = _v_generators(p) + [affine(m, (0, 0, 0)) for m in linear]
    return enumerate_group(gens, designated=_designated(p))


@lru_cache(maxsize=None)
def sylow_inside(p: int) -> FiniteGroup:
    """S = V:U with its named elements, one group per prime: every overgroup
    V:H whose H holds u's linear part contains it, so all of them share S,
    its classes and Irr(S)."""
    designated = _designated(p)
    return enumerate_group(_v_generators(p) + [designated["u"]], designated=designated)


# -- orbit analysis of Gamma on V ---------------------------------------------


class OrbitInfo(NamedTuple):
    rep: tuple[int, int, int]
    size: int
    stabilizer_order: int
    stabilizer_abelian: bool


def gamma_orbit_analysis(p: int, variant: str) -> list[OrbitInfo]:
    """Nontrivial orbits of the chosen Gamma-group on V, with stabilizer
    orders and abelianness (the stabilizer's generators commute)."""
    gam = gamma_group(p, variant)
    vectors = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)
               if (a, b, c) != (0, 0, 0)]
    seen: set = set()
    orbits = []
    for v in vectors:
        if v in seen:
            continue
        # Gamma acts on V from the left, so v -> g^-1 v is the right action
        orbit, stab = orbit_stabiliser(gam, v, lambda w, g: mat_vec(g.inverse(), w))
        seen.update(orbit)
        abelian = all(x * y == y * x for x in stab.generators for y in stab.generators)
        orbits.append(OrbitInfo(v, len(orbit), stab.order, abelian))
    orbits.sort(key=lambda o: (o.size, o.rep))
    return orbits


# -- brute-force point counts over PGL_2(p) ------------------------------------


PSI_KEYS = {"psi100": (1, 0, 0), "psi010": (0, 1, 0)}
V_KEYS = {"v1": (1, 0, 0), "v2": (0, 1, 0)}


def _psi_vector(key: str, params: ConstructionParams) -> tuple[int, int, int]:
    if key in PSI_KEYS:
        return PSI_KEYS[key]
    if key == "psi10e":
        return (1, 0, params.epsilon)
    raise ValueError(f"unknown character key {key!r}")


def _v_vector(key: str, params: ConstructionParams) -> tuple[int, int, int]:
    if key in V_KEYS:
        return V_KEYS[key]
    if key == "v1+e*v3":
        return (1, 0, params.epsilon)
    raise ValueError(f"unknown element key {key!r}")


def pgl2_cosets(p: int):
    """Scalar-normalised representatives of PGL_2(p): first nonzero entry 1."""
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p == 0:
                        continue
                    first = next(x for x in (a, b, c, d) if x)
                    if first != 1:
                        continue
                    yield (a, b, c, d)


def count_n_v_psi(p: int, v_key: str, psi_key: str) -> int:
    """#{g in PGL_2(p) : <psi, g.v> = 0}, counted over normalised cosets.

    The pairing is derived from the quadratic-form action, replacing any
    closed-form point count by enumeration.
    """
    params = ConstructionParams.for_prime(p)
    vvec = _v_vector(v_key, params)
    avec = _psi_vector(psi_key, params)
    count = 0
    for a, b, c, d in pgl2_cosets(p):
        m = form_action_matrix(p, 1, a, b, c, d)
        img = mat_vec(m, vvec)
        if sum(x * y for x, y in zip(avec, img)) % p == 0:
            count += 1
    return count


def table3_expected(p: int) -> dict[tuple[str, str], int]:
    """The nine symbolic zero-counts evaluated at p."""
    return {
        ("v1", "psi100"): p * (p - 1),
        ("v1", "psi010"): 2 * p * (p - 1),
        ("v1", "psi10e"): 0,
        ("v2", "psi100"): 2 * p * (p - 1),
        ("v2", "psi010"): (p - 1) ** 2,
        ("v2", "psi10e"): p * p - 1,
        ("v1+e*v3", "psi100"): 0,
        ("v1+e*v3", "psi010"): p * p - 1,
        ("v1+e*v3", "psi10e"): (p + 1) ** 2,
    }


def gamma_stabilizer_of_character(p: int, psi_key: str,
                                  variant: str = "gamma") -> FiniteGroup:
    """Subgroup of Gamma fixing the V-character with exponent vector psi."""
    avec = _psi_vector(psi_key, ConstructionParams.for_prime(p))
    return orbit_stabiliser(gamma_group(p, variant), avec, vec_mat)[1]


def induced_value_formula(p: int, psi_key: str, rho_degree: int,
                          stab_order: int, v_key: str) -> int:
    """p * rho(1) / |I(psi)| * (n_{v,psi} - p^2 + 1), checked integral."""
    n = count_n_v_psi(p, v_key, psi_key)
    num = p * rho_degree * (n - p * p + 1)
    q, r = divmod(num, stab_order)
    if r:
        raise ArithmeticError("induced-value formula did not produce an integer")
    return q
