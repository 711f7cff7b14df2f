"""Unit balls K^p of the weighted shadow norms, their volumes, and visibility.

For a surface with atoms (w_i, v_i), the p-th shadow norm is

    ||y||_p = ( sum_i w_i |<y, v_i>|^p )^(1/p),          p >= 1,

K^p its unit ball, and vis_p = |K^p|^(-1/d).  Routes for |K^p|:

- "exact": p = 2 as omega_d / prod_i sigma_i, sigma_i the singular values
  of the rows sqrt(w_i) v_i (so prod_i sigma_i = (det T)^(1/2) for the
  covariance form T, without an LU determinant), p = 1 via the polar of
  the projection-body zonotope (d <= 4, m <= 8);
- "quadrature" (d = 2, 3): |K^p| = (1/d) * integral over S^{d-1} of
  ||theta||_p^{-d}, by graded piecewise Gauss-Legendre split at the kinks
  of the norm (``_quadrature_volume``); its error bar is the gap between
  the n- and 2n-node rules, floored at the round-off of the rule;
- "radial_mc": |K^p| = omega_d * E_theta ||theta||_p^{-d}, theta uniform
  on S^{d-1}, with the sample standard error.

"auto" takes an exact route where one applies, then quadrature while its
node-times-atom count is within ``transversality.DEFAULT_BUDGET``, then
radial MC.  Every route requires ``s.spans(1e-12)``: otherwise K^p is
unbounded.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .constants import ball_volume
from .hypersurface import DiscreteHypersurface
from .reports import Claim, Estimate, make_report
from .transversality import CHUNK, DEFAULT_BUDGET, q_exact
from .zonotope import Zonotope, _check_frame, projection_body

#: exact polar-volume route is enabled only for small zonotopes
POLAR_MAX_D = 4
POLAR_MAX_GENERATORS = 8


class EllipsoidBody:
    """Ellipsoid {x : x^T T x <= 1} for a symmetric positive definite T."""

    def __init__(self, T):
        T = np.asarray(T, dtype=float)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError("T must be square")
        if np.max(np.abs(T - T.T)) > 1e-12 * np.max(np.abs(T)):
            raise ValueError("T must be symmetric (relative tolerance 1e-12)")
        T = 0.5 * (T + T.T)
        if np.linalg.eigvalsh(T)[0] <= 1e-12 * max(float(np.trace(T)), 1e-300):
            raise ValueError("T must be positive definite")
        self.T = T
        self.d = T.shape[0]

    @property
    def support_form(self):
        """M = T^{-1}; the support function is h(y) = sqrt(y^T M y)."""
        return np.linalg.inv(self.T)

    def volume(self):
        return ball_volume(self.d) / math.sqrt(float(np.linalg.det(self.T)))

    def support(self, y):
        y = np.asarray(y, dtype=float)
        return math.sqrt(float(y @ self.support_form @ y))

    def shadow_volume(self, frame):
        """k-volume of the orthogonal shadow onto span(frame rows)."""
        F = _check_frame(frame, self.d)
        k = F.shape[0]
        M = self.support_form
        return ball_volume(k) * math.sqrt(float(np.linalg.det(F @ M @ F.T)))

    def section_volume(self, frame):
        """k-volume of the central section by span(frame rows)."""
        F = _check_frame(frame, self.d)
        k = F.shape[0]
        return ball_volume(k) / math.sqrt(float(np.linalg.det(F @ self.T @ F.T)))

    def to_dict(self):
        return {"body": "ellipsoid", "T": self.T.tolist()}


def covariance(s: DiscreteHypersurface) -> EllipsoidBody:
    """Covariance ellipsoid body with T = sum_i w_i v_i v_i^T.

    Satisfies the identity d! * det T = Q_d^2(s)^(2d).  Errors when the atoms
    fail to span (``s.spans()``).
    """
    if not s.spans():
        raise ValueError("covariance form is numerically singular: atoms do not span R^d")
    sv, Qt = s.whiten()
    return EllipsoidBody((Qt.T * sv**2) @ Qt)


def kp_norm(s: DiscreteHypersurface, p, y) -> float:
    """Weighted shadow norm ( sum_i w_i |<y, v_i>|^p )^(1/p), p >= 1."""
    if p < 1:
        raise ValueError("p must be >= 1 for a norm")
    y = np.asarray(y, dtype=float)
    if y.shape != (s.d,):
        raise ValueError(f"y must be a length-{s.d} vector")
    return float(np.sum(s.weights * np.abs(s.vectors @ y) ** p)) ** (1.0 / p)


def polar_zonotope_volume(z: Zonotope) -> float:
    """Exact volume of the polar body Z° = {y : sum_i |<g_i, y>| <= 1}.

    Enumerates the 2^m support cones as halfspaces and runs an exact convex
    hull; restricted to d <= 4 and m <= 8 generators.
    """
    d, m = z.d, z.m
    if d > POLAR_MAX_D or m > POLAR_MAX_GENERATORS:
        raise ValueError(
            f"exact polar volume supports d <= {POLAR_MAX_D}, m <= {POLAR_MAX_GENERATORS}"
        )
    if z.rank() < d:
        raise ValueError("generators must span R^d; the polar body is unbounded")
    # imported here: scipy.spatial is most of the package's import time
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    normals = signs @ z.generators
    norms = np.linalg.norm(normals, axis=1)
    keep = norms > 1e-12 * norms.max()
    halfspaces = np.hstack([normals[keep], -np.ones((int(keep.sum()), 1))])
    interior = np.zeros(d)
    hs = HalfspaceIntersection(halfspaces, interior)
    return float(ConvexHull(hs.intersections).volume)


def _polar_route_ok(s):
    """True when the exact p = 1 route (``polar_zonotope_volume``) takes s."""
    return s.d <= POLAR_MAX_D and s.m <= POLAR_MAX_GENERATORS


def _radial_mc_volume(s, p, n_samples, seed):
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    rng = np.random.default_rng(seed)
    d = s.d
    g = rng.normal(size=(n_samples, d))
    g /= np.linalg.norm(g, axis=1)[:, None]
    inner = np.abs(g @ s.vectors.T)
    norms = (inner**p @ s.weights) ** (1.0 / p)
    f = ball_volume(d) * norms ** (-float(d))
    value = float(np.mean(f))
    se = float(np.std(f, ddof=1) / math.sqrt(n_samples))
    return Estimate(value, se, "radial_mc", n_samples)


@functools.lru_cache(maxsize=8)
def _leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    t, w = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _sphere_rule(d, n_polar, n_azimuth):
    """Product rule for the normalized measure on S^{d-1}, d in {2, 3}.

    Nodes are cos(phi) e_1 + sin(phi) xi, with phi Gauss-Legendre on
    [0, pi/2] and on [pi/2, pi] (the kink of |<e_1, theta>| is at pi/2) and
    xi equally spaced on the unit circle of e_1^perp (the two points +-e_2
    when d = 2).  Weights are sin^{d-2}(phi), normalized by |S^{d-1}|.
    """
    t, w = _leggauss(max(n_polar // 2, 30))
    phi = np.concatenate([t + 1.0, t + 3.0]) * (math.pi / 4.0)
    w_phi = np.concatenate([w, w]) * (math.pi / 4.0) * np.sin(phi) ** (d - 2)
    n_xi = n_azimuth if d == 3 else 2
    psi = np.arange(n_xi) * (2.0 * math.pi / n_xi)
    xi = np.stack([np.cos(psi), np.sin(psi)], axis=1)[:, : d - 1]
    nodes = np.column_stack([np.repeat(np.cos(phi), n_xi), np.kron(np.sin(phi)[:, None], xi)])
    # each azimuth carries |S^{d-2}| / n_xi
    scale = (d - 1) * ball_volume(d - 1) / (n_xi * d * ball_volume(d))
    return nodes, np.repeat(w_phi, n_xi) * scale


#: nodes per panel of the smaller K^p quadrature rule (the reported rule has twice as many)
_QUAD_NODES = {2: 32, 3: 16}
#: generic pole (first row) and azimuth frame of the d = 3 K^p rule
_POLE_FRAME = np.linalg.qr(np.array([[1.0], [2.0**0.5], [5.0**0.5]]), mode="complete")[0].T


def _graded_rule(n):
    """n-node rule on [0, 1] after the quintic end grading
    s -> s^3 (10 - 15 s + 6 s^2) (Sidi 1993), which flattens a kink at
    either end of a panel to high order."""
    t, w = _leggauss(n)
    s, r = 0.5 * (1.0 + t), 0.5 * (1.0 - t)  # r = 1 - s, kept exact near s = 1
    return s**3 * (10.0 - 15.0 * s + 6.0 * s * s), 15.0 * w * (s * r) ** 2


def _panel_nodes(cuts, n):
    """Graded nodes and weights on the panels between consecutive cuts
    along the last axis; the panel and node axes are merged."""
    g, gw = _graded_rule(n)
    h = np.diff(cuts, axis=-1)[..., None]
    shape = cuts.shape[:-1] + (-1,)
    return (cuts[..., :-1, None] + h * g).reshape(shape), (h * gw).reshape(shape)


def _circle_cuts(angles):
    """Cuts of [a, a + pi], a the least of ``angles`` mod pi, at every angle;
    a gap longer than pi/8 is split evenly and a zero gap is dropped."""
    a = np.sort(np.mod(angles, math.pi))
    a = np.append(a, a[0] + math.pi)
    gaps = np.diff(a)
    pieces = np.ceil(gaps * (8.0 / math.pi)).astype(int)
    first = np.repeat(np.cumsum(pieces) - pieces, pieces)
    frac = (np.arange(first.size) - first) / np.repeat(pieces, pieces)
    return np.append(np.repeat(a[:-1], pieces) + np.repeat(gaps, pieces) * frac, a[-1])


def _quadrature_count(d, m):
    """Bound on the node-times-atom count of the 2n-node K^p rule: the
    circle has at most (kinks + 8) panels (``_circle_cuts``), and at d = 3
    each meridian has m + 1."""
    n2 = 2 * _QUAD_NODES[d]
    if d == 2:
        return (m + 8) * n2 * m
    return (math.comb(m, 2) + 8) * n2 * (m + 1) * n2 * m


def _inverse_power(t, ab, w, p, d):
    """||theta||_p^{-d} at the nodes t of great circles on which
    <theta, v_i> = cos t a_i + sin t b_i, with ab of shape (..., 2, m)
    holding the rows a and b of each circle."""
    x = np.stack([np.cos(t), np.sin(t)], axis=-1) @ ab
    np.square(x, out=x)
    np.power(x, 0.5 * p, out=x)
    return (x @ w) ** (-d / p)


def _quadrature_sum(V, w, p, n):
    """(1/d) * integral over S^{d-1} of ||theta||_p^{-d}, d = 2 or 3, by the
    graded rule with n nodes per panel, evaluated in blocks of at most
    about CHUNK node-atom pairs.

    By evenness it is twice the integral over half the sphere.  d = 2:
    theta(t) = (cos t, sin t), t over half a turn, panels split where
    <theta, v_i> = 0.  d = 3: theta = cos t e + sin t c(phi) about the pole
    e, c(phi) = cos phi a + sin phi b; the azimuth runs over half a turn,
    split where a meridian meets two kink circles at one point (the
    directions v_i x v_j); each meridian t in [0, pi] carries the weight
    sin t and is split at its m roots tan t = -<e, v_i>/<c(phi), v_i>.
    Inner products are built from <e, v_i>, <a, v_i> and <b, v_i> alone.
    """
    m = len(w)
    if V.shape[1] == 2:
        t, wt = _panel_nodes(_circle_cuts(np.arctan2(V[:, 1], V[:, 0]) + 0.5 * math.pi), n)
        step = max(1, CHUNK // m)
        return math.fsum(
            float(wt[k : k + step] @ _inverse_power(t[k : k + step], V.T, w, p, 2))
            for k in range(0, t.size, step)
        )
    alpha, va, vb = _POLE_FRAME @ V.T
    i, j = np.triu_indices(m, 1)
    X = np.cross(V[i], V[j])
    phi, w_phi = _panel_nodes(_circle_cuts(np.arctan2(X @ _POLE_FRAME[2], X @ _POLE_FRAME[1])), n)
    step = max(1, CHUNK // ((m + 1) * n * m))
    parts = []
    for k in range(0, phi.size, step):
        f = phi[k : k + step]
        beta = np.cos(f)[:, None] * va + np.sin(f)[:, None] * vb
        roots = np.sort(np.mod(np.arctan2(alpha, -beta), math.pi), axis=1)
        ends = np.zeros((f.size, 1))
        t, wt = _panel_nodes(np.hstack([ends, roots, ends + math.pi]), n)
        ab = np.stack([np.broadcast_to(alpha, beta.shape), beta], axis=1)
        g = np.sum(_inverse_power(t, ab, w, p, 3) * np.sin(t) * wt, axis=1)
        parts.append(float(w_phi[k : k + step] @ g))
    return 2.0 * math.fsum(parts) / 3.0


def _quadrature_volume(s, p):
    """|K^p| at d = 2, 3 by the graded rule with 2n nodes per panel.

    The rule runs on the whitened atoms A v_i, A = T^{-1/2} with
    T = sum_i w_i v_i v_i^T: |K^p(s)| = |det A| |K^p(As)|, and K^2(As) is
    the unit ball, so the integrand is nearly flat whatever the
    eccentricity of K^p(s).  The error bar is the gap to the n-node rule,
    floored at 8 kappa ulps of the value, kappa = cond(A): the round-off
    that the whitened inner products carry, which both rules share."""
    sv, Qt = s.whiten()
    V = s.vectors @ (Qt.T / sv) @ Qt
    n = _QUAD_NODES[s.d]
    scale = 1.0 / float(np.prod(sv))
    coarse, value = (scale * _quadrature_sum(V, s.weights, p, k) for k in (n, 2 * n))
    floor = 8.0 * (sv[0] / sv[-1]) * math.ulp(value)
    return Estimate(value, max(abs(value - coarse), floor), "quadrature")


def kp_volume(s, p, method="auto", *, n_samples=100_000, seed=0) -> Estimate:
    """Volume of K^p by one of the routes in the module docstring.

    "exact": p = 2, or p = 1 with d <= 4 and m <= 8, else ValueError.
    "quadrature": d in {2, 3} and ``_quadrature_count(d, m)`` within
    ``DEFAULT_BUDGET`` (about m <= 11 at d = 3), else ValueError; returns
    ``n_samples = 0`` and ignores ``n_samples`` and ``seed``.
    "radial_mc": ``n_samples`` directions drawn from ``seed``.
    "auto": the first of these that applies.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not s.spans(tol=1e-12):
        raise ValueError("atoms must span R^d; the norm degenerates and K^p is unbounded")
    d, m = s.d, s.m
    count = _quadrature_count(d, m) if d in (2, 3) else None
    if method == "auto":
        if p == 2.0 or (p == 1.0 and _polar_route_ok(s)):
            method = "exact"
        elif count is not None and count <= DEFAULT_BUDGET:
            method = "quadrature"
        else:
            method = "radial_mc"
    if method == "exact":
        if p == 2.0:
            return Estimate(ball_volume(d) / float(np.prod(s.whiten()[0])), 0.0, "exact")
        if p == 1.0:
            return Estimate(polar_zonotope_volume(projection_body(s)), 0.0, "exact")
        raise ValueError(f"no exact route for p={p}; use method='quadrature' or 'radial_mc'")
    if method == "quadrature":
        if count is None:
            raise ValueError("the quadrature route supports d = 2 and 3")
        if count > DEFAULT_BUDGET:
            raise ValueError(
                f"quadrature takes {count} node-atom pairs, over the budget {DEFAULT_BUDGET}"
            )
        return _quadrature_volume(s, float(p))
    if method == "radial_mc":
        return _radial_mc_volume(s, float(p), int(n_samples), seed)
    raise ValueError(f"unknown method {method!r}")


def vis_p(s, p, method="auto", *, n_samples=100_000, seed=0) -> Estimate:
    """p-visibility vis_p = |K^p|^(-1/d), delta-method error bar."""
    return kp_volume(s, p, method, n_samples=n_samples, seed=seed).root(-s.d)


def _distinct_directions(s, tol=1e-10):
    dirs = []
    for v in s.vectors:
        u = v / np.linalg.norm(v)
        for w in dirs:
            if min(np.linalg.norm(u - w), np.linalg.norm(u + w)) <= tol:
                break
        else:
            dirs.append(u)
    return np.array(dirs)


def santalo_check(s: DiscreteHypersurface, *, n_samples=1_000_000, seed=0):
    """Volume-product bound (2 vis_1)^d <= Q_d^1(s)^d.

    Exact on small instances, radial Monte Carlo otherwise (verdict allows a
    3-sigma band): the MC route stays as the independent cross-check of the
    polar volume, so this check never takes the quadrature route.  Equality
    holds exactly when the atoms use d independent directions, i.e. the
    projection body is a parallelotope; the report flags that case and its
    gap.
    """
    d = s.d
    rhs = q_exact(s, d, 1.0) ** d
    method = "exact" if _polar_route_ok(s) else "radial_mc"
    vol = kp_volume(s, 1.0, method, n_samples=n_samples, seed=seed)
    lhs = (2.0 * vol.root(-d).value) ** d
    mc_error = (2.0**d) * vol.std_error / vol.value**2 if vol.std_error else 0.0
    dirs = _distinct_directions(s)
    parallelotope = len(dirs) == d and np.linalg.matrix_rank(dirs, tol=1e-10) == d
    exact_case = bool(parallelotope) and vol.method == "exact"
    equality = Claim("equality", lhs, rhs, "eq", tol=1e-9 * max(1.0, rhs), asserted=exact_case)
    report = make_report(
        "SANTALO",
        (s.to_dict(), vol.n_samples),
        lhs,
        rhs,
        constant=2.0**d,
        constant_formula="(2 vis_1)^d",
        mc_error=mc_error,
        claims=[Claim("bound", lhs, rhs, error=mc_error), equality],
        seed=seed,
        details={
            "volume_K1": vol.value,
            "volume_method": vol.method,
            "equality_case": bool(parallelotope),
            "equality_gap": rhs - lhs,
            "relation": "leq",
        },
    )
    if equality.asserted and equality.verdict() == "fail":
        report.details["equality_violation"] = True
    return report


def sigma2_plane(s: DiscreteHypersurface, frame) -> float:
    """Quadratic plane shadow sqrt(k! det(F T F^T)), T the covariance form."""
    F = _check_frame(frame, s.d)
    sv, Qt = s.whiten()
    C = (F @ Qt.T) * sv  # F T F^T = C C^T
    det = max(float(np.linalg.det(C @ C.T)), 0.0)
    return math.sqrt(math.factorial(F.shape[0]) * det)
