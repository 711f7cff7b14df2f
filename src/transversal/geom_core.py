"""Exact multilinear algebra: wedge norms, Gram determinants, cover factors.

The wedge norm of vectors v_1..v_j is the j-volume of the parallelepiped they
span, computed as sqrt(det Gram).  The cover factor rho compares the full Gram
determinant of the normalized directions against the weighted product of its
principal blocks; it lies in [0, 1] by a determinant majorization argument and
equals 1 exactly when the blocks are mutually orthogonal.

gram_dets is the batched kernel behind every wedge norm and cover factor in
the package: the tuple sums, finner_check and the mixed volumes call it on
stacks of tuples, wedge_norm and rho_factor on one.  _rho_from_dets is the one
rule that forms rho from the full and block determinants; rho_factor calls it
on one tuple, finner_check on block determinants read from its tables.
"""

from __future__ import annotations

import numpy as np

from .hypersurface import UniformCover, validate_cover

#: determinants of unit-direction Grams below this are treated as degenerate
DEGENERATE_DET = 1e-14

#: Gram determinants this far below the Hadamard bound (product of squared
#: row norms) have lost about half their digits to LU cancellation; the square
#: root of a wedge norm halves that relative error but leaves it near 1e-8,
#: so such values are recomputed from singular values.
WEDGE_REFINE_REL = 1e-8


def gram_dets(V):
    """det(V V^T) for each tuple of a stack V of shape (n, j, d).

    LU determinants more than WEDGE_REFINE_REL below the Hadamard bound (the
    product of squared row norms) are recomputed from singular values, with
    those below max(j, d) * eps * sigma_max zeroed: tuples with repeated or
    linearly dependent rows give an exact 0 instead of round-off noise, and
    other near-degenerate values keep full absolute accuracy.
    """
    G = V @ np.transpose(V, (0, 2, 1))
    det = np.clip(np.linalg.det(G), 0.0, None)
    hadamard = np.prod(np.einsum("nkk->nk", G), axis=1)
    suspect = det < WEDGE_REFINE_REL * hadamard
    if np.any(suspect):
        sv = np.linalg.svd(V[suspect], compute_uv=False)
        floor = sv[:, :1] * (max(V.shape[1], V.shape[2]) * np.finfo(float).eps)
        det[suspect] = np.prod(np.where(sv > floor, sv, 0.0), axis=1) ** 2
    return det


def _rho_from_dets(det_full, subs, alphas):
    """(rho, degenerate) from the full and the block determinants of the
    normalized Gram, one array entry per tuple (see rho_factor)."""
    log_den = np.zeros(len(det_full))
    degenerate = np.zeros(len(det_full), dtype=bool)
    for sub, a in zip(subs, alphas):
        degenerate |= sub < DEGENERATE_DET
        with np.errstate(divide="ignore"):
            log_den += np.where(sub > 0, 0.5 * a * np.log(sub), 0.0)
    rho = np.where(degenerate, 0.0, np.minimum(np.sqrt(det_full) * np.exp(-log_den), 1.0))
    return rho, degenerate


def unit_directions(vectors):
    """Rows (last axis) normalized to unit length; exact zero rows fall back
    to e_1."""
    V = np.asarray(vectors, dtype=float)
    norms = np.linalg.norm(V, axis=-1, keepdims=True)
    U = V / np.where(norms == 0.0, 1.0, norms)
    U[norms[..., 0] == 0.0] = np.eye(V.shape[-1])[0]
    return U


def wedge_norm(t) -> float:
    """j-volume |v_1 ^ ... ^ v_j| = sqrt(det Gram(v_1..v_j)).

    Takes a (j, d) array; the determinant comes from gram_dets.
    """
    V = np.asarray(t, dtype=float)
    if V.ndim != 2:
        raise ValueError("expected a (j, d) array of row vectors")
    j, d = V.shape
    if j > d:
        raise ValueError(f"cannot wedge {j} vectors in R^{d}")
    return np.sqrt(gram_dets(V[None])[0])


def _cover_for(t, cover):
    if not isinstance(cover, UniformCover):
        raise ValueError("cover must be a UniformCover")
    j = np.asarray(t).shape[0]
    if cover.j != j:
        raise ValueError(f"cover ground size {cover.j} != tuple length {j}")
    check = validate_cover(cover)
    if not check.valid:
        raise ValueError(f"invalid cover: {check.message}")
    if cover.alphas is None:
        raise ValueError("cover factor needs weighted cover (alphas)")
    return cover


def rho_factor(t, cover, *, with_flag=False):
    """Cover factor rho(v_1..v_j; cover) in [0, 1].

    rho = sqrt(det C) / prod_i det(C_{A_i})^{alpha_i / 2} where C is the Gram
    matrix of the normalized directions and C_{A_i} its principal blocks.  A
    block determinant below 1e-14 makes the factor degenerate: the value is 0
    and, with ``with_flag=True``, the flag returns True.
    """
    cover = _cover_for(t, cover)
    U = unit_directions(np.asarray(t, dtype=float)[None])
    C = U @ np.transpose(U, (0, 2, 1))
    subs = [np.clip(np.linalg.det(C[np.ix_([0], A, A)]), 0.0, None) for A in cover.sets]
    rho, degenerate = _rho_from_dets(gram_dets(U), subs, cover.alphas)
    rho, degenerate = float(rho[0]), bool(degenerate[0])
    return (rho, degenerate) if with_flag else rho


def local_identity_residual(t, cover, p) -> float:
    """Residual of the single-tuple factorization

        |v_1 ^ ... ^ v_j|^p = prod_i |^_{k in A_i} v_k|^{alpha_i p} * rho^p.

    Returns |lhs - rhs|; exact up to round-off for every tuple and weighted
    cover (both sides are zero for degenerate blocks).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    cover = _cover_for(t, cover)
    V = np.asarray(t, dtype=float)
    lhs = wedge_norm(V) ** p
    rho, degenerate = rho_factor(V, cover, with_flag=True)
    if degenerate:
        # a degenerate block forces the full wedge to vanish as well
        return abs(lhs)
    rhs = rho**p
    for A, a in zip(cover.sets, cover.alphas):
        rhs *= wedge_norm(V[list(A)]) ** (a * p)
    return abs(lhs - rhs)
