"""Unit balls K^p of the weighted shadow norms, their volumes, and visibility.

For a surface with atoms (w_i, v_i), the p-th shadow norm is

    ||y||_p = ( sum_i w_i |<y, v_i>|^p )^(1/p),          p >= 1,

K^p its unit ball, and vis_p = |K^p|^(-1/d).  Exact routes: p = 2 via the
covariance ellipsoid, p = 1 via the polar of the projection-body zonotope
(small instances); everything else via radial Monte Carlo

    |K^p| = omega_d * E_theta ||theta||_p^{-d},   theta uniform on S^{d-1}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import ball_volume
from .hypersurface import DiscreteHypersurface
from .reports import make_report
from .transversality import _q_sum, q_exact
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
        scale = max(1.0, float(np.max(np.abs(T))))
        if np.max(np.abs(T - T.T)) > 1e-12 * scale:
            raise ValueError("T must be symmetric (tolerance 1e-12)")
        eigs = np.linalg.eigvalsh(T)
        if eigs[0] <= 1e-12 * max(float(np.trace(T)), 1e-300):
            raise ValueError("T must be positive definite")
        self.T = 0.5 * (T + T.T)
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
    fail to span (smallest eigenvalue <= 1e-12 * trace).
    """
    T = (s.weights[:, None] * s.vectors).T @ s.vectors
    eigs = np.linalg.eigvalsh(T)
    if eigs[0] <= 1e-12 * float(np.trace(T)):
        raise ValueError("covariance form is numerically singular: atoms do not span R^d")
    return EllipsoidBody(T)


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
    keep = np.linalg.norm(normals, axis=1) > 1e-12
    halfspaces = np.hstack([normals[keep], -np.ones((int(keep.sum()), 1))])
    interior = np.zeros(d)
    hs = HalfspaceIntersection(halfspaces, interior)
    return float(ConvexHull(hs.intersections).volume)


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float
    method: str
    n_samples: int = 0


def _radial_mc_volume(s, p, n_samples, seed):
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    if not s.spans(tol=1e-12):
        raise ValueError("atoms must span R^d; the norm degenerates and K^p is unbounded")
    rng = np.random.default_rng(seed)
    d = s.d
    g = rng.normal(size=(n_samples, d))
    g /= np.linalg.norm(g, axis=1)[:, None]
    inner = np.abs(g @ s.vectors.T)
    norms = (inner**p @ s.weights) ** (1.0 / p)
    f = ball_volume(d) * norms ** (-float(d))
    value = float(np.mean(f))
    se = float(np.std(f, ddof=1) / math.sqrt(n_samples))
    return VolumeEstimate(value, se, "radial_mc", n_samples)


def kp_volume(s, p, method="auto", *, n_samples=100_000, seed=0) -> VolumeEstimate:
    """Volume of K^p.  Methods: "exact" (p = 2 always; p = 1 on small
    instances via the polar zonotope), "radial_mc", or "auto"."""
    if p < 1:
        raise ValueError("p must be >= 1")
    exact_p1_ok = p == 1.0 and s.d <= POLAR_MAX_D and s.m <= POLAR_MAX_GENERATORS
    if method == "auto":
        if p == 2.0:
            method = "exact"
        elif exact_p1_ok:
            method = "exact"
        else:
            method = "radial_mc"
    if method == "exact":
        if p == 2.0:
            return VolumeEstimate(covariance(s).volume(), 0.0, "exact")
        if p == 1.0:
            return VolumeEstimate(polar_zonotope_volume(projection_body(s)), 0.0, "exact")
        raise ValueError(f"no exact route for p={p}; use method='radial_mc'")
    if method == "radial_mc":
        return _radial_mc_volume(s, float(p), int(n_samples), seed)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class VisEstimate:
    value: float
    std_error: float
    volume: float
    volume_std_error: float
    method: str
    n_samples: int
    p: float


def vis_p(s, p, method="auto", *, n_samples=100_000, seed=0) -> VisEstimate:
    """p-visibility vis_p = |K^p|^(-1/d), delta-method error bar."""
    est = kp_volume(s, p, method, n_samples=n_samples, seed=seed)
    d = s.d
    value = est.value ** (-1.0 / d)
    se = value * est.std_error / (d * est.value) if est.std_error else 0.0
    return VisEstimate(value, se, est.value, est.std_error, est.method, est.n_samples, float(p))


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

    Exact on small instances, Monte Carlo otherwise (verdict allows a 3-sigma
    band).  Equality holds exactly when the atoms use d independent
    directions, i.e. the projection body is a parallelotope; the report flags
    that case and its gap.
    """
    d = s.d
    rhs = q_exact(s, d, 1.0) ** d
    vest = vis_p(s, 1.0, "auto", n_samples=n_samples, seed=seed)
    lhs = (2.0 * vest.value) ** d
    vol = vest.volume
    mc_error = (2.0**d) * vest.volume_std_error / vol**2 if vest.volume_std_error else 0.0
    dirs = _distinct_directions(s)
    parallelotope = len(dirs) == d and np.linalg.matrix_rank(dirs, tol=1e-10) == d
    gap = rhs - lhs
    report = make_report(
        "SANTALO",
        (s.to_dict(), n_samples if vest.method == "radial_mc" else 0),
        lhs,
        rhs,
        constant=2.0**d,
        constant_formula="(2 vis_1)^d",
        mc_error=mc_error,
        seed=seed,
        details={
            "volume_K1": vol,
            "volume_method": vest.method,
            "equality_case": bool(parallelotope),
            "equality_gap": gap,
            "relation": "leq",
        },
    )
    if parallelotope and vest.method == "exact" and abs(gap) > 1e-9 * max(1.0, rhs):
        report.verdict = "fail"
        report.details["equality_violation"] = True
    return report


def sigma2_plane(s: DiscreteHypersurface, frame) -> float:
    """Quadratic plane shadow sqrt(k! det(F T F^T)), T the covariance form."""
    F = _check_frame(frame, s.d)
    k = F.shape[0]
    T = (s.weights[:, None] * s.vectors).T @ s.vectors
    det = max(float(np.linalg.det(F @ T @ F.T)), 0.0)
    return math.sqrt(math.factorial(k) * det)


def sigma2_plane_direct(s: DiscreteHypersurface, frame) -> float:
    """Same functional by direct enumeration:
    sqrt( sum over ordered k-tuples prod w * |P_E v_1 ^ ... ^ P_E v_k|^2 )."""
    F = _check_frame(frame, s.d)
    k = F.shape[0]
    projected = DiscreteHypersurface(k, zip(s.weights, s.vectors @ F.T), label="projected")
    return math.sqrt(_q_sum([projected] * k, 2.0))
