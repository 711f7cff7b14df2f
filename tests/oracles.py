"""Independent reference computations used to pin expected test values.

Nothing here imports from the package's numerical core beyond plain numpy
arrays; determinants (and so wedge norms and cover factors) use cofactor
expansion, the Finner refinement a loop over all ordered tuples, sphere
integrals use 1-D quadrature, zonogon areas use an explicit vertex walk,
Minkowski-sum volumes use Monte Carlo membership with closed-form
distances, and mixed volumes use a per-tuple loop.

Three second routes do call the package, each through a kernel other than
the one it checks: the registry constants by log-gamma (``ConstantsCatalog``
here extends the package's catalog with a ``<name>_alt`` per constant and
``self_check``), and the plane shadows ``sigma_plane`` (determinant
expansion) and ``sigma2_plane`` (covariance form) by direct tuple
enumeration with ``transversality._q_sum``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad

from transversal import constants
from transversal.hypersurface import DiscreteHypersurface
from transversal.transversality import _q_sum
from transversal.zonotope import _check_frame

LOG_PI = constants.LOG_PI


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


def ball_volume_loggamma(m) -> float:
    """Same constant as pi^(m/2) / Gamma(m/2 + 1)."""
    m = int(m)
    if m < 0:
        raise ValueError("dimension must be >= 0")
    return math.exp(0.5 * m * LOG_PI - math.lgamma(0.5 * m + 1.0))


def _log_comb(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


class ConstantsCatalog(constants.ConstantsCatalog):
    """The registry constants plus, for each, an independent log-gamma route
    <name>_alt, and ``self_check`` over both."""

    @staticmethod
    def omega_alt(m):
        return ball_volume_loggamma(m)

    @staticmethod
    def b_d_alt(d, dims):
        log = math.lgamma(d + 1) - d * math.log(2.0)
        for d_i in dims:
            log -= math.lgamma(d_i + 1)
        return math.exp(log / d)

    @staticmethod
    def c_d_alt(d, dims):
        log = math.lgamma(d + 1)
        for d_i in dims:
            log -= 0.5 * math.lgamma(d_i + 1)
        return math.exp(log / d - math.log(2.0) - 0.5 * math.log(d))

    @staticmethod
    def reverse_lw_alt(d, dims):
        log = 0.5 * d * math.log(d)
        for d_i in dims:
            log -= 0.5 * math.lgamma(d_i + 1)
        return math.exp(log)

    @staticmethod
    def q_bezout_alt(d, j, dims, s):
        r = len(dims)
        lomega = lambda m: 0.5 * m * LOG_PI - math.lgamma(0.5 * m + 1.0)  # noqa: E731
        log = -r / (s * j) * lomega(d)
        log += (math.lgamma(d + 1) + lomega(d) - math.lgamma(d - j + 1) - lomega(d - j)) / j
        for d_i in dims:
            log += (
                _log_comb(j, d_i) + lomega(d - d_i) - _log_comb(d, d_i) - math.lgamma(d_i + 1)
            ) / (s * j)
        return math.exp(log)

    @staticmethod
    def big_c_ell_alt(d, dims, weights):
        lomega = lambda m: 0.5 * m * LOG_PI - math.lgamma(0.5 * m + 1.0)  # noqa: E731
        log = lomega(d)
        for d_j, p_j in zip(dims, weights):
            log -= p_j * lomega(d_j)
        return math.exp(log)

    @staticmethod
    def c_ell_alt(d, dims, weights):
        lomega = lambda m: 0.5 * m * LOG_PI - math.lgamma(0.5 * m + 1.0)  # noqa: E731
        log = lomega(d) - 0.5 * d * math.log(d)
        for d_j, p_j in zip(dims, weights):
            log += p_j * (0.5 * d_j * math.log(d_j) - lomega(d_j))
        return math.exp(log)

    @staticmethod
    def c_dp_alt(d, p):
        lomega = lambda m: 0.5 * m * LOG_PI - math.lgamma(0.5 * m + 1.0)  # noqa: E731
        log = math.log((d + p) / p) + lomega(d - 1) - lomega(d)
        log += math.lgamma((p + 1) / 2.0) + math.lgamma((d + 1) / 2.0)
        log -= math.lgamma((d + p + 1) / 2.0)
        return math.exp(log)

    @staticmethod
    def c0_alt(d, p):
        log = math.lgamma(d / p + 1.0) / d
        log -= math.log(d) / p + math.log(2.0) + math.lgamma(1.0 / p + 1.0)
        return math.exp(log)

    @staticmethod
    def lp_ball_volume_alt(d, p):
        return math.exp(
            d * (math.log(2.0) + math.lgamma(1.0 / p + 1.0)) - math.lgamma(d / p + 1.0)
        )

    @classmethod
    def self_check(cls, dims_max=9, p_grid=(0.5, 1.0, 1.5, 2.0, 3.0, 6.0)) -> float:
        """Max relative disagreement of the paired routes over a sample grid."""
        worst = 0.0

        def rel(a, b):
            return abs(a - b) / max(abs(a), abs(b), 1e-300)

        for m in range(dims_max + 1):
            worst = max(worst, rel(cls.omega(m), cls.omega_alt(m)))
        partitions = {
            2: [(1, 1), (2,)],
            3: [(1, 1, 1), (1, 2), (3,)],
            4: [(1, 1, 2), (2, 2), (1, 3)],
            5: [(1, 2, 2), (2, 3), (1, 1, 3)],
        }
        for d, parts in partitions.items():
            for dims in parts:
                worst = max(worst, rel(cls.b_d(d, dims), cls.b_d_alt(d, dims)))
                worst = max(worst, rel(cls.c_d(d, dims), cls.c_d_alt(d, dims)))
                worst = max(worst, rel(cls.reverse_lw(d, dims), cls.reverse_lw_alt(d, dims)))
                weights = [1.0] * len(dims)
                worst = max(
                    worst,
                    rel(cls.big_c_ell(d, dims, weights), cls.big_c_ell_alt(d, dims, weights)),
                )
                worst = max(worst, rel(cls.c_ell(d, dims, weights), cls.c_ell_alt(d, dims, weights)))
                j = sum(dims)
                if j <= d:
                    worst = max(
                        worst, rel(cls.q_bezout(d, j, dims, 1), cls.q_bezout_alt(d, j, dims, 1))
                    )
            for p in p_grid:
                worst = max(worst, rel(cls.c_dp(d, p), cls.c_dp_alt(d, p)))
                worst = max(worst, rel(cls.c0(d, p), cls.c0_alt(d, p)))
                worst = max(worst, rel(cls.lp_ball_volume(d, p), cls.lp_ball_volume_alt(d, p)))
        return worst


def sigma_plane_direct(s: DiscreteHypersurface, frame) -> float:
    """sigma_plane's functional by direct k-fold tuple enumeration:

        sum over ordered k-tuples  prod w  *  |P_E v_1 ^ ... ^ P_E v_k|.

    Independent of the determinant-expansion route in sigma_plane.
    """
    F = _check_frame(frame, s.d)
    k = F.shape[0]
    projected = DiscreteHypersurface(
        k, zip(s.weights, s.vectors @ F.T), label=f"{s.label}|projected"
    )
    return _q_sum([projected] * k, 1.0)


def sigma2_plane_direct(s: DiscreteHypersurface, frame) -> float:
    """sigma2_plane's functional by direct enumeration:
    sqrt( sum over ordered k-tuples prod w * |P_E v_1 ^ ... ^ P_E v_k|^2 )."""
    F = _check_frame(frame, s.d)
    k = F.shape[0]
    projected = DiscreteHypersurface(k, zip(s.weights, s.vectors @ F.T), label="projected")
    return math.sqrt(_q_sum([projected] * k, 2.0))
