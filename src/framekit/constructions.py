"""Concrete frame constructions and seeded random frames.

Catalog: standard bases, the E_ij family (whose outer products form a
Riesz basis of the symmetric matrices), its complex extension, the
simplex equiangular tight frame, the biangular sums-of-simplex-pairs
frame, the two-vector epsilon example, and spherical random frames
driven by the portable counter-based generator in :mod:`framekit.rng`.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BadParam
from .frame import COMPLEX, REAL, Frame
from .rng import box_muller, counter_words, normal_words, seed_words


def orthonormal(n: int, field: str = REAL) -> Frame:
    """The standard basis of R^n or C^n."""
    if n < 1:
        raise BadParam("n must be at least 1")
    return Frame(field=field, vectors=np.eye(n))


def eij_basis(n: int) -> Frame:
    """Unit vectors e_i (i = 1..n) followed by (e_i + e_j)/sqrt(2) for i < j.

    The n(n+1)/2 induced outer products form a Riesz basis for the
    symmetric n x n matrices.
    """
    if n < 1:
        raise BadParam("n must be at least 1")
    eye = np.eye(n)
    rows = [eye[i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows.append((eye[i] + eye[j]) / np.sqrt(2.0))
    return Frame(field=REAL, vectors=np.array(rows))


def complex_eij_basis(n: int) -> Frame:
    """The E_ij vectors plus (e_i + i e_j)/sqrt(2) for i < j, over C.

    Gives n^2 vectors whose outer products are independent in the real
    vector space of self-adjoint matrices (real dimension n^2).
    """
    if n < 1:
        raise BadParam("n must be at least 1")
    base = eij_basis(n).vectors.astype(np.complex128)
    eye = np.eye(n, dtype=np.complex128)
    rows = list(base)
    for i in range(n):
        for j in range(i + 1, n):
            rows.append((eye[i] + 1j * eye[j]) / np.sqrt(2.0))
    return Frame(field=COMPLEX, vectors=np.array(rows))


def simplex(n: int) -> Frame:
    """The regular simplex: n + 1 unit vectors in R^n with <phi_i, phi_j> = -1/n.

    The projections P e_i of the standard basis of R^{n+1} off the
    all-ones direction, normalized and written in the Helmert basis of
    that complement: h_k = (1, ..., 1, -k, 0, ..., 0) / sqrt(k(k+1)) with
    k leading ones, k = 1..n.  Since h_k is orthogonal to the ones vector,
    <h_k, P e_i> = h_k[i], and ||P e_i|| = sqrt(n / (n+1)).
    """
    if n < 1:
        raise BadParam("n must be at least 1")
    helmert = np.zeros((n + 1, n))
    for k in range(1, n + 1):
        helmert[:k, k - 1] = 1.0
        helmert[k, k - 1] = -float(k)
        helmert[:, k - 1] /= np.sqrt(k * (k + 1.0))
    return Frame(field=REAL, vectors=helmert * np.sqrt((n + 1.0) / n))


def simplex_pairs(n: int) -> list:
    """Index pairs (i, j), i < j, in the order the biangular frame uses."""
    return [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]


def biangular(n: int) -> Frame:
    """Normalized pairwise sums of simplex vectors, lexicographic (i, j) order.

    Unit-norm tight for every n >= 2.  At n = 3 the simplex vectors sum to
    zero, so phi_i + phi_j = -(phi_k + phi_l) for complementary pairs and
    three pairs of induced outer products coincide: (1,2)/(3,4), (1,3)/(2,4)
    and (1,4)/(2,3) in 1-based labels.  That case is dependent, with outer
    Gram rank 3 of 6.
    """
    if n < 2:
        raise BadParam("biangular frames need n >= 2")
    s = simplex(n).vectors
    # ||phi_i + phi_j||^2 = 2(n-1)/n for simplex pairs
    rows = [(s[i] + s[j]) / np.sqrt(2.0 * (n - 1.0) / n) for i, j in simplex_pairs(n)]
    return Frame(field=REAL, vectors=np.array(rows))


def epsilon_pair(eps: float) -> Frame:
    """The two-vector example whose outer products have better Riesz bounds.

    <phi_1, phi_2> = sqrt(eps), so the vector Riesz bounds are
    1 -+ sqrt(eps) while the outer-product bounds are 1 -+ eps.
    """
    if not 0.0 < eps < 1.0:
        raise BadParam("eps must lie strictly between 0 and 1")
    return Frame(field=REAL, vectors=np.array([
        [1.0, 0.0],
        [np.sqrt(eps), np.sqrt(1.0 - eps)],
    ]))


def random_unit_stack(n: int, m: int, seeds, field: str = REAL) -> np.ndarray:
    """The vectors of ``random_unit(n, m, seed, field)`` for every seed, shape (K, m, n).

    The counter words of all seeds are mixed at once, so row k equals, bit
    for bit, what a stream of seed ``seeds[k]`` gives on its own.
    """
    if n < 1 or m < 1:
        raise BadParam("n and m must be at least 1")
    if field not in (REAL, COMPLEX):
        raise BadParam(f"unknown field {field!r}")
    count = m * n
    cplx = field == COMPLEX
    words = counter_words(seed_words(seeds), 0, normal_words(count, cplx))
    z = box_muller(words, 2 * count if cplx else count)
    if cplx:
        z = z[:, :count] + 1j * z[:, count:]
    v = z.reshape(-1, m, n)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v


def random_unit(n: int, m: int, seed: int, field: str = REAL) -> Frame:
    """m vectors i.i.d. uniform on the unit sphere, deterministic in seed."""
    return Frame(field=field, vectors=random_unit_stack(n, m, [seed], field)[0])


KINDS = ("orthonormal", "eij", "complex_eij", "simplex", "biangular",
         "epsilon_pair", "random_unit")


@dataclass(frozen=True)
class ConstructionSpec:
    """Serializable descriptor naming a construction and its parameters."""

    kind: str
    n: int
    params: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n": self.n, **self.params}

    @classmethod
    def from_dict(cls, d: dict) -> "ConstructionSpec":
        d = dict(d)
        kind = d.pop("kind")
        n = int(d.pop("n"))
        return cls(kind=kind, n=n, params=d)


def build(spec: ConstructionSpec) -> Frame:
    """Materialize a ConstructionSpec."""
    kind, n, p = spec.kind, spec.n, spec.params
    if kind == "orthonormal":
        return orthonormal(n, field=p.get("field", REAL))
    if kind == "eij":
        return eij_basis(n)
    if kind == "complex_eij":
        return complex_eij_basis(n)
    if kind == "simplex":
        return simplex(n)
    if kind == "biangular":
        return biangular(n)
    if kind == "epsilon_pair":
        return epsilon_pair(float(p["eps"]))
    if kind == "random_unit":
        return random_unit(n, int(p["m"]), int(p.get("seed", 0)),
                           field=p.get("field", REAL))
    raise BadParam(f"unknown construction kind {kind!r}")
