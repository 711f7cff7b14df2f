"""Exact multilinear algebra: wedge norms, Gram matrices, cover factors.

The wedge norm of vectors v_1..v_j is the j-volume of the parallelepiped they
span, computed as sqrt(det Gram).  The cover factor rho compares the full Gram
determinant of the normalized directions against the weighted product of its
principal blocks; it lies in [0, 1] by a determinant majorization argument and
equals 1 exactly when the blocks are mutually orthogonal.

gram_dets and cover_factors are the batched kernels behind every wedge norm
and cover factor in the package: the tuple sums, finner_check and the mixed
volumes call them on stacks of tuples, wedge_norm and rho_factor on one.
cover_factors forms rho from the determinants with _rho_from_dets, which
finner_check also calls on block determinants read from its tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypersurface import UniformCover, validate_cover

#: determinants of unit-direction Grams below this are treated as degenerate
DEGENERATE_DET = 1e-14

#: Gram determinants this far below the Hadamard bound (product of squared
#: row norms) have lost about half their digits to LU cancellation, which a
#: square root then doubles; such values are recomputed from singular values.
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


def cover_factors(V, sets, alphas):
    """Cover factors rho and degeneracy flags for a stack V of shape (n, j, d).

    rho = sqrt(det C) / prod_i det(C_{A_i})^{alpha_i / 2}, where C is the Gram
    matrix of the normalized directions and C_{A_i} its principal blocks.  A
    tuple with a block determinant below DEGENERATE_DET is degenerate: its
    flag is True and its rho is 0.
    """
    U = unit_directions(V)
    C = U @ np.transpose(U, (0, 2, 1))
    n = C.shape[0]
    subs = [np.clip(np.linalg.det(C[np.ix_(range(n), A, A)]), 0.0, None) for A in sets]
    return _rho_from_dets(gram_dets(U), subs, alphas)


def _rho_from_dets(det_full, subs, alphas):
    """(rho, degenerate) from the full and the block determinants of the
    normalized Gram, one array entry per tuple (see cover_factors)."""
    log_den = np.zeros(len(det_full))
    degenerate = np.zeros(len(det_full), dtype=bool)
    for sub, a in zip(subs, alphas):
        degenerate |= sub < DEGENERATE_DET
        with np.errstate(divide="ignore"):
            log_den += np.where(sub > 0, 0.5 * a * np.log(sub), 0.0)
    rho = np.where(degenerate, 0.0, np.minimum(np.sqrt(det_full) * np.exp(-log_den), 1.0))
    return rho, degenerate


@dataclass(frozen=True)
class VectorTuple:
    """Ordered tuple of j <= d vectors in R^d."""

    d: int
    vectors: tuple

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=float)
        if vecs.ndim != 2 or vecs.shape[1] != self.d:
            raise ValueError(f"vectors must be rows of length d={self.d}")
        if vecs.shape[0] < 1 or vecs.shape[0] > self.d:
            raise ValueError("need 1 <= j <= d vectors")
        if not np.all(np.isfinite(vecs)):
            raise ValueError("vectors must be finite")
        object.__setattr__(self, "vectors", vecs)

    @property
    def j(self):
        return self.vectors.shape[0]


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric PSD matrix of pairwise inner products of unit directions."""

    entries: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.entries, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("Gram matrix must be square")
        if not np.allclose(G, G.T, atol=1e-12):
            raise ValueError("Gram matrix must be symmetric")
        if np.max(np.abs(np.diag(G) - 1.0)) > 1e-12:
            raise ValueError("Gram matrix of unit directions must have unit diagonal")
        if np.linalg.eigvalsh(G)[0] < -1e-10:
            raise ValueError("Gram matrix must be positive semidefinite")
        object.__setattr__(self, "entries", G)

    @classmethod
    def from_tuple(cls, t: VectorTuple):
        U = unit_directions(t.vectors)
        return cls(U @ U.T)

    def det(self):
        # Gram determinants are nonnegative; LAPACK round-off can dip below 0.
        return max(float(np.linalg.det(self.entries)), 0.0)


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

    Accepts a VectorTuple or a (j, d) array; the determinant comes from
    gram_dets.
    """
    V = t.vectors if isinstance(t, VectorTuple) else np.asarray(t, dtype=float)
    if V.ndim != 2:
        raise ValueError("expected a (j, d) array of row vectors")
    j, d = V.shape
    if j > d:
        raise ValueError(f"cannot wedge {j} vectors in R^{d}")
    return np.sqrt(gram_dets(V[None])[0])


def _cover_for(t, cover):
    if not isinstance(cover, UniformCover):
        raise ValueError("cover must be a UniformCover")
    j = t.vectors.shape[0] if isinstance(t, VectorTuple) else np.asarray(t).shape[0]
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
    V = t.vectors if isinstance(t, VectorTuple) else np.asarray(t, dtype=float)
    rho, degenerate = cover_factors(V[None], cover.sets, cover.alphas)
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
    V = t.vectors if isinstance(t, VectorTuple) else np.asarray(t, dtype=float)
    lhs = wedge_norm(V) ** p
    rho, degenerate = rho_factor(V, cover, with_flag=True)
    if degenerate:
        # a degenerate block forces the full wedge to vanish as well
        return abs(lhs)
    rhs = rho**p
    for A, a in zip(cover.sets, cover.alphas):
        rhs *= wedge_norm(V[list(A)]) ** (a * p)
    return abs(lhs - rhs)
