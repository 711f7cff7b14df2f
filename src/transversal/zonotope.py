"""Zonotopes, projection bodies, mixed volumes, and the Bezout-type check.

A zonotope with generators g_1..g_m is the Minkowski sum of the segments
[-g_i, g_i].  The projection body of a discrete hypersurface has generators
w_i * v_i; plane shadows of the projection body come from determinant
expansion (``sigma_plane``), which the tests cross-check against direct
tuple enumeration.  A mixed volume with entries is one Q^1 tuple sum
(transversality._q_sum) over unit-weight generator slots.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import ConstantsCatalog, ball_volume
from .hypersurface import DiscreteHypersurface, UniformCover, validate_cover
from .reports import Claim, make_report
from .transversality import DEFAULT_BUDGET, _index_blocks, _q_sum

#: Zonotope.rank counts singular values above RANK_TOL times the largest
RANK_TOL = 1e-10


class Ball:
    """Euclidean unit ball B_2^d (mixed-volume body argument)."""

    def __init__(self, d):
        d = int(d)
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = d

    def volume(self):
        return ball_volume(self.d)

    def to_dict(self):
        return {"body": "ball", "d": self.d}

    def __repr__(self):
        return f"Ball(d={self.d})"


class Zonotope:
    """Minkowski sum of segments [-g_i, g_i]."""

    def __init__(self, d, generators):
        d = int(d)
        G = np.asarray(generators, dtype=float)
        if G.ndim != 2 or G.shape[1] != d:
            raise ValueError(f"generators must be rows of length d={d}")
        if not np.all(np.isfinite(G)):
            raise ValueError("generators must be finite")
        self.d = d
        self.generators = G

    @property
    def m(self):
        return self.generators.shape[0]

    def support(self, y):
        """Support function h_Z(y) = sum_i |<g_i, y>|."""
        y = np.asarray(y, dtype=float)
        return float(np.sum(np.abs(self.generators @ y)))

    def rank(self):
        s = np.linalg.svd(self.generators, compute_uv=False)
        return int(np.sum(s > RANK_TOL * s[0]))

    def to_dict(self):
        return {"body": "zonotope", "d": self.d, "generators": self.generators.tolist()}

    def __repr__(self):
        return f"Zonotope(d={self.d}, m={self.m})"


def projection_body(s: DiscreteHypersurface) -> Zonotope:
    """Zonotope with generators w_i * v_i (support = weighted shadow sum)."""
    return Zonotope(s.d, s.weights[:, None] * s.vectors)


def zonotope_volume(z: Zonotope, *, budget=DEFAULT_BUDGET) -> float:
    """Exact volume 2^d * sum over d-subsets |det of chosen generators|.

    Returns 0 for fewer generators than dimensions; errors when the C(m, d)
    subsets exceed the budget.
    """
    d, m = z.d, z.m
    if m < d:
        return 0.0
    partial = [
        float(np.sum(np.abs(np.linalg.det(z.generators[idx]))))
        for idx in _index_blocks([m] * d, "subset", budget)
    ]
    return (2.0**d) * math.fsum(partial)


def _check_frame(frame, d):
    F = np.asarray(frame, dtype=float)
    if F.ndim != 2 or F.shape[1] != d:
        raise ValueError(f"frame must be rows of length d={d}")
    k = F.shape[0]
    if k < 1 or k > d:
        raise ValueError("frame must have 1 <= k <= d rows")
    if np.max(np.abs(F @ F.T - np.eye(k))) > 1e-10:
        raise ValueError("frame rows must be orthonormal (tolerance 1e-10)")
    return F


def project_zonotope(z: Zonotope, frame) -> Zonotope:
    """Orthogonal shadow onto span(frame), in frame coordinates."""
    F = _check_frame(frame, z.d)
    return Zonotope(F.shape[0], z.generators @ F.T)


def sigma_plane(s: DiscreteHypersurface, frame) -> float:
    """Plane shadow functional sigma(E) = (k!/2^k) |P_E projection_body(s)|."""
    F = _check_frame(frame, s.d)
    k = F.shape[0]
    vol = zonotope_volume(project_zonotope(projection_body(s), F))
    return math.factorial(k) / (2.0**k) * vol


def _entry_generators(entry, d):
    if isinstance(entry, Zonotope):
        if entry.d != d:
            raise ValueError("zonotope entry dimension mismatch")
        return entry.generators
    v = np.asarray(entry, dtype=float)
    if v.shape != (d,):
        raise ValueError(f"segment entry must be a length-{d} vector")
    return v[None, :]


def mixed_volume(body, multiplicity, entries, *, budget=DEFAULT_BUDGET) -> float:
    """Mixed volume V(body[d-k], Z_1, ..., Z_k) with segment/zonotope entries.

    Each entry is a Zonotope (a factor 2 per segment [-g, g]) or a plain
    vector w, read as the segment [0, w].  By multilinearity (Schneider,
    Convex Bodies, ch. 5) V is the Q^1 tuple sum R = transversality._q_sum
    over unit-weight generator slots: the k entries for a Ball body, with
    V = 2^doubles omega_{d-k} R / (k! C(d, k)); the body's generators in d-k
    slots (one surface) ahead of the entries for a Zonotope body, with
    V = 2^(doubles+d-k) R / d!.  Dependent tuples give exactly 0 (the rank
    floor of geom_core.gram_dets).  ``budget`` bounds the tuples walked: the
    product of the entries' generator counts, times C(m_body, d-k) for a
    Zonotope body (with no entries, the body's volume expansion).
    """
    if isinstance(body, (Ball, Zonotope)):
        d = body.d
    else:
        raise ValueError("body must be a Ball or a Zonotope")
    entries = list(entries)
    k = len(entries)
    if int(multiplicity) != d - k:
        raise ValueError(f"multiplicity {multiplicity} != d - k = {d - k}")
    if k == 0:
        return body.volume() if isinstance(body, Ball) else zonotope_volume(body, budget=budget)
    if k > d:
        raise ValueError("more segment entries than dimensions")
    doubles = sum(isinstance(entry, Zonotope) for entry in entries)
    r = d - k if isinstance(body, Zonotope) else 0
    gens = ([body.generators] if r else []) + [_entry_generators(entry, d) for entry in entries]
    if any(G.shape[0] == 0 for G in gens):
        return 0.0
    slots = [DiscreteHypersurface(d, [(1.0, g) for g in G]) for G in gens]
    # the r body slots hold one surface object, so they are walked by subsets
    R = _q_sum(slots[:1] * r + slots[min(r, 1) :], 1.0, budget)
    if isinstance(body, Ball):
        return (2.0**doubles) * ball_volume(d - k) * R / (math.factorial(k) * math.comb(d, k))
    return (2.0 ** (doubles + r)) * R / math.factorial(d)


def bezout_check(body, zonotopes, cover, *, budget=DEFAULT_BUDGET, seed=0):
    """Bezout-type mixed-volume bound under an s-uniform counting cover.

    With sigma = {0..j-1} indexing the zonotopes, r cover sets A_i of sizes
    d_i, and each index covered exactly s times:

        |K|^(r-s) * V(K[d-j], Z_0..Z_{j-1})^s
            <= const * prod_i V(K[d-d_i], (Z_l)_{l in A_i}),

        const = prod_i C(d-d_i, d-j) * C(d, d_i) / C(d, j)^r.

    When the body is a Ball the report also carries the equivalent
    transversality form Q_j^1 <= q * prod_i Q_{d_i}^1(...)^(d_i/(s j)) of the
    generators (weight 1 each), read off the mixed volumes already computed,

        V(B[d-k], Z_1..Z_k) = 2^k omega_{d-k} Q_k^1^k / (k! C(d, k)),

    with the constant ConstantsCatalog.q_bezout:

        q = omega_d^(-r/(sj)) * (d! omega_d / ((d-j)! omega_{d-j}))^(1/j)
            * prod_i (C(j, d_i) omega_{d-d_i} / (C(d, d_i) d_i!))^(1/(sj)).
    """
    if not isinstance(cover, UniformCover):
        raise ValueError("cover must be a UniformCover")
    if cover.s is None:
        raise ValueError("bezout_check needs an s-uniform counting cover")
    check = validate_cover(cover)
    if not check.valid:
        raise ValueError(f"invalid cover: {check.message}")
    zonotopes = list(zonotopes)
    j = len(zonotopes)
    if cover.j != j:
        raise ValueError("cover ground size must match the number of zonotopes")
    d = body.d
    if j > d:
        raise ValueError(f"j={j} exceeds dimension d={d}")
    for z in zonotopes:
        if not isinstance(z, Zonotope) or z.d != d:
            raise ValueError("entries must be zonotopes in the body dimension")
    s = int(cover.s)
    r = cover.m
    sizes = cover.block_sizes

    vol_K = mixed_volume(body, d, [], budget=budget)
    v_full = mixed_volume(body, d - j, zonotopes, budget=budget)
    lhs = vol_K ** (r - s) * v_full**s
    const = 1.0
    for d_i in sizes:
        const *= math.comb(d - d_i, d - j) * math.comb(d, d_i)
    const /= math.comb(d, j) ** r
    rhs = const
    block_mixed = []
    for A, d_i in zip(cover.sets, sizes):
        v_i = mixed_volume(body, d - d_i, [zonotopes[l] for l in A], budget=budget)
        block_mixed.append(v_i)
        rhs *= v_i
    claims = [Claim("bound", lhs, rhs)]
    details = {
        "volume_K": vol_K,
        "mixed_full": v_full,
        "block_mixed": block_mixed,
        "r": r,
        "s": s,
        "block_sizes": list(sizes),
        "relation": "leq",
    }
    if isinstance(body, Ball):

        def q_of(v, k):
            """Q_k^1 of the generators behind the mixed volume v."""
            scale = math.factorial(k) * math.comb(d, k) / (2.0**k * ball_volume(d - k))
            return (v * scale) ** (1.0 / k)

        q_lhs = q_of(v_full, j)
        q_const = ConstantsCatalog.q_bezout(d, j, sizes, s)
        q_blocks = 1.0
        for v_i, d_i in zip(block_mixed, sizes):
            q_blocks *= q_of(v_i, d_i) ** (d_i / (s * j))
        q_rhs = q_const * q_blocks
        claims.append(Claim("q_form", q_lhs, q_rhs))
        details["q_form"] = {
            "lhs": q_lhs,
            "rhs": q_rhs,
            "constant": q_const,
            "holds": claims[-1].verdict() == "pass",
        }
    return make_report(
        "BEZOUT",
        (body.to_dict(), [z.to_dict() for z in zonotopes], cover.sets, s),
        lhs,
        rhs,
        constant=const,
        constant_formula="prod_i C(d-d_i,d-j)C(d,d_i) / C(d,j)^r",
        claims=claims,
        seed=seed,
        details=details,
    )
