"""Independent reference computations used to pin expected test values.

Nothing here imports from the package's numerical core beyond plain numpy
arrays; determinants (and so wedge norms and cover factors) use cofactor
expansion, the Finner refinement a loop over all ordered tuples, sphere
integrals use 1-D quadrature, zonogon areas use an explicit vertex walk,
Minkowski-sum volumes use Monte Carlo membership with closed-form
distances, and mixed volumes use a per-tuple loop.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad


def det_cofactor(A):
    """Determinant by Laplace cofactor expansion (no LAPACK)."""
    A = [list(map(float, row)) for row in A]
    n = len(A)
    if n == 1:
        return A[0][0]
    total = 0.0
    for col in range(n):
        minor = [row[:col] + row[col + 1 :] for row in A[1:]]
        total += ((-1.0) ** col) * A[0][col] * det_cofactor(minor)
    return total


def wedge_norm_oracle(V):
    """sqrt(det Gram) via the cofactor determinant."""
    V = np.asarray(V, dtype=float)
    G = (V @ V.T).tolist()
    return math.sqrt(max(det_cofactor(G), 0.0))


def rho_oracle(V, sets, alphas, degenerate_det=1e-14):
    """Cover factor sqrt(det C) / prod_i det(C_{A_i})^{alpha_i / 2} by cofactor
    determinants of the Gram matrix C of the normalized (nonzero) rows.

    A block or full determinant below ``degenerate_det`` gives 0: for blocks
    that is the package's degeneracy rule, and for the full determinant it
    stands in for the rank floor that makes an exactly dependent tuple's
    determinant 0 (cofactor round-off would give about 1e-8 after the root).
    """
    V = np.asarray(V, dtype=float)
    U = V / np.linalg.norm(V, axis=1)[:, None]
    C = U @ U.T
    full = det_cofactor(C.tolist())
    if full < degenerate_det:
        return 0.0
    denom = 1.0
    for A, a in zip(sets, alphas):
        block = det_cofactor(C[np.ix_(A, A)].tolist())
        if block < degenerate_det:
            return 0.0
        denom *= block ** (a / 2.0)
    return min(math.sqrt(full) / denom, 1.0)


def refinement_oracle(surfaces, sets, alphas, p):
    """finner_check's refinement factor and sup rho by a per-tuple loop.

    Walks every ordered tuple of the slots (tuples that repeat an atom get
    rho = 0 from ``rho_oracle``), with block sums and wedge norms from
    cofactor determinants:

        refinement = ( sum prod_k w_k * prod_i (F_i / raw_i)^alpha_i
                       * rho^p )^(1/(jp)),   F_i = |wedge of block A_i|^p,

    where raw_i sums prod w * F_i over the ordered tuples of block A_i.
    """
    j = len(surfaces)

    def tuples(slots):
        for t in itertools.product(*(range(surfaces[l].m) for l in slots)):
            w = math.prod(surfaces[l].weights[i] for l, i in zip(slots, t))
            yield w, np.array([surfaces[l].vectors[i] for l, i in zip(slots, t)])

    raws = [sum(w * wedge_norm_oracle(V) ** p for w, V in tuples(A)) for A in sets]
    total = 0.0
    sup = 0.0
    for w, V in tuples(range(j)):
        rho = rho_oracle(V, sets, alphas)
        sup = max(sup, rho)
        if rho > 0.0:
            factor = math.prod(
                (wedge_norm_oracle(V[list(A)]) ** p / raw) ** a
                for A, a, raw in zip(sets, alphas, raws)
            )
            total += w * factor * rho**p
    return total ** (1.0 / (j * p)), sup


def i_p_uniform_quadrature(d, p):
    """Pairwise energy of the uniform spherical measure by 1-D quadrature.

    The angle between two independent uniform points on S^{d-1} has density
    proportional to sin(theta)^{d-2} on [0, pi]; the integrand is sin^p.
    """
    num, _ = quad(lambda t: math.sin(t) ** (p + d - 2), 0.0, math.pi, limit=200)
    den, _ = quad(lambda t: math.sin(t) ** (d - 2), 0.0, math.pi, limit=200)
    return num / den


def uniform_moment_quadrature(d, k):
    """E <X, X'>^{2k} on S^{d-1} by the same angular quadrature."""
    num, _ = quad(
        lambda t: (math.cos(t) ** (2 * k)) * math.sin(t) ** (d - 2), 0.0, math.pi, limit=200
    )
    den, _ = quad(lambda t: math.sin(t) ** (d - 2), 0.0, math.pi, limit=200)
    return num / den


def zonogon_area(generators):
    """Area of sum_i [-g_i, g_i] in R^2 by the sorted-edge vertex walk."""
    G = []
    for g in np.asarray(generators, dtype=float):
        if np.allclose(g, 0.0):
            continue
        G.append(-g if g[1] < 0 or (g[1] == 0 and g[0] < 0) else g)
    if len(G) < 2:
        return 0.0
    G = sorted(G, key=lambda g: math.atan2(g[1], g[0]))
    start = -np.sum(G, axis=0)
    upper = [start]
    for g in G:
        upper.append(upper[-1] + 2.0 * np.asarray(g))
    verts = upper + [-v for v in upper[1:-1]]
    x = np.array([v[0] for v in verts])
    y = np.array([v[1] for v in verts])
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _dist_point_segment(x, a, b):
    """Euclidean distance from x to the segment [a, b]."""
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((x - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(x - (a + t * ab)))


def mc_ball_plus_segment_volume(d, w, n, seed):
    """(volume, std_error) of B_2^d + [0, w] by Monte Carlo membership."""
    rng = np.random.default_rng(seed)
    w = np.asarray(w, dtype=float)
    lo = np.minimum(0.0, w) - 1.0
    hi = np.maximum(0.0, w) + 1.0
    box = float(np.prod(hi - lo))
    pts = rng.uniform(lo, hi, size=(n, d))
    zero = np.zeros(d)
    hits = np.fromiter(
        (_dist_point_segment(x, zero, w) <= 1.0 for x in pts), dtype=float, count=n
    )
    frac = float(hits.mean())
    se = box * float(hits.std(ddof=1)) / math.sqrt(n)
    return box * frac, se


def cross3(u, v):
    u, v = np.asarray(u, float), np.asarray(v, float)
    return np.array(
        [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
    )


def mixed_volume_oracle(d, entries, body_generators=None, rank_tol=1e-10):
    """V(K[d-k], E_1, ..., E_k) by a per-tuple Python loop.

    ``body_generators`` None means K is the unit ball; otherwise K is the
    zonotope sum [-g, g] over its rows.  An entry is a (n, d) array (the
    zonotope of its rows, a factor 2 per segment) or a length-d vector (the
    segment [0, w]).  Each tuple (w_1..w_k) of entry generators contributes

        |w_1 ^ ... ^ w_k| * |shadow of K onto span(w)^perp| / (k! C(d, k)),

    with the shadow found from an SVD null space and cofactor determinants.
    Tuples whose Gram determinant is at most rank_tol^2 times the product of
    max(|w_i|^2, 1) are skipped as dependent.
    """
    k = len(entries)
    gens = [np.atleast_2d(np.asarray(e, dtype=float)) for e in entries]
    doubles = sum(np.ndim(e) == 2 for e in entries)
    total = 0.0
    for W in itertools.product(*gens):
        W = np.array(W)
        gram = (W @ W.T).tolist()
        det = max(det_cofactor(gram), 0.0)
        if det <= rank_tol**2 * math.prod(max(gram[i][i], 1.0) for i in range(k)):
            continue
        r = d - k
        if r == 0:
            shadow = 1.0
        elif body_generators is None:
            shadow = math.pi ** (r / 2) / math.gamma(r / 2 + 1)
        else:
            frame = np.linalg.svd(W)[2][k:]
            P = np.asarray(body_generators, dtype=float) @ frame.T
            shadow = 2.0**r * sum(
                abs(det_cofactor(P[list(rows)])) for rows in itertools.combinations(range(len(P)), r)
            )
        total += math.sqrt(det) * shadow
    return 2.0**doubles * total / (math.factorial(k) * math.comb(d, k))
