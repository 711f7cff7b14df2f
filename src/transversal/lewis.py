"""Lewis positions: fixed-point solve of the p-isotropy condition.

A matrix u puts the surface in Lewis p-position when the normalized moment
matrix

    M(u) = sum_i w_i ||u v_i||^(p-2) (u v_i)(u v_i)^T,   a(u) = 1,

equals I/d, where a(u) = ( sum_i w_i ||u v_i||^p )^(1/p).  The solver damps a
matrix-power iteration u <- c M(u)^(-eta) u (eta starts at 1/2, halves on a
defect increase) and gauge-fixes the answer to the symmetric positive
definite representative (u^T u)^(1/2), which leaves the defect unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hypersurface import DiscreteHypersurface


@dataclass(frozen=True)
class LewisResult:
    u: np.ndarray
    defect: float
    iterations: int
    p: float
    normalization_residual: float
    converged: bool


class IsotropyDefect(NamedTuple):
    defect: float
    trace_residual: float


def _norm_a(s, u, p):
    z = s.vectors @ u.T
    return float(np.sum(s.weights * np.linalg.norm(z, axis=1) ** p)) ** (1.0 / p)


def _moment_matrix(s, u, p):
    """M(u) = sum_i w_i ||u v_i||^(p-2) (u v_i)(u v_i)^T."""
    z = s.vectors @ u.T
    nz = np.linalg.norm(z, axis=1)
    fac = np.where(nz > 0.0, nz ** (p - 2.0), 0.0)
    return (s.weights * fac * z.T) @ z


def isotropy_defect(s: DiscreteHypersurface, u, p) -> IsotropyDefect:
    """Frobenius defect ||d M(u) - I||_F and the trace residual
    |d * sum_i w_i ||u v_i||^p - d| of the isotropy identity."""
    u = np.asarray(u, dtype=float)
    if u.shape != (s.d, s.d):
        raise ValueError(f"u must be {s.d} x {s.d}")
    if abs(float(np.linalg.det(u))) < 1e-300:
        raise ValueError("u must be invertible")
    M = _moment_matrix(s, u, float(p))
    defect = float(np.linalg.norm(s.d * M - np.eye(s.d)))
    trace_residual = s.d * abs(float(np.trace(M)) - 1.0)
    return IsotropyDefect(defect, trace_residual)


def _spd_gauge(u):
    """Symmetric positive definite representative (u^T u)^(1/2)."""
    evals, evecs = np.linalg.eigh(u.T @ u)
    return evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T


def lewis_solve(s: DiscreteHypersurface, p, *, tol=1e-9, max_iter=500) -> LewisResult:
    """Solve for the Lewis p-position of a spanning surface.

    Parameters
    ----------
    s : DiscreteHypersurface
        Atoms must span R^d; for p < 2 no atom vector may be zero.
    p : float
        Exponent, p >= 1.
    tol : float
        Target Frobenius defect of d M(u) - I.
    max_iter : int
        Iteration cap.

    For p = 2 the exact solution (d T)^(-1/2) is reached in one step.
    """
    p = float(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    if not s.spans(tol=1e-12):
        raise ValueError("atoms must span R^d for a Lewis position to exist")
    if p < 2 and np.any(np.linalg.norm(s.vectors, axis=1) == 0.0):
        raise ValueError("zero atom vectors are not allowed for p < 2")
    d = s.d
    u = np.eye(d) / _norm_a(s, np.eye(d), p)

    def defect_of(mat):
        return float(np.linalg.norm(d * _moment_matrix(s, mat, p) - np.eye(d)))

    current = defect_of(u)
    iterations = 0
    while current > tol and iterations < max_iter:
        M = _moment_matrix(s, u, p)
        evals, evecs = np.linalg.eigh(M)
        if evals[0] <= 0.0:
            break
        eta = 0.5
        improved = None
        for _ in range(8):
            step = evecs @ np.diag(evals ** (-eta)) @ evecs.T
            cand = step @ u
            cand /= _norm_a(s, cand, p)
            cand_defect = defect_of(cand)
            if cand_defect < current:
                improved = (cand, cand_defect)
                break
            eta /= 2.0
        if improved is None:
            break
        u, current = improved
        iterations += 1
    u = _spd_gauge(u)
    u /= _norm_a(s, u, p)
    current = defect_of(u)
    residual = abs(_norm_a(s, u, p) - 1.0)
    return LewisResult(
        u=u,
        defect=current,
        iterations=iterations,
        p=p,
        normalization_residual=residual,
        converged=current <= tol,
    )


def lewis_p2_closed_form(s: DiscreteHypersurface) -> np.ndarray:
    """Exact Lewis 2-position (d T)^(-1/2) = Q diag(1 / (sqrt(d) sigma)) Q^T,
    T the covariance form, from its factors ``s.whiten()``."""
    if not s.spans(tol=1e-12):
        raise ValueError("atoms must span R^d for a Lewis position to exist")
    sv, Qt = s.whiten()
    return (Qt.T / (math.sqrt(s.d) * sv)) @ Qt


def det_u_lower_bound(d, p, q_d_p) -> float:
    """Corrected determinant bound (d!/d^d)^(1/min(p,2)) * q_d_p^(-d).

    The 1/2 exponent is the Hoelder-tight value for p >= 2; for p < 2 the
    exponent 1/p is required (the square-root form fails, e.g. for the axis
    cross at p = 1).
    """
    expo = 1.0 / min(p, 2.0)
    return (math.factorial(d) / d**d) ** expo * q_d_p ** (-float(d))
