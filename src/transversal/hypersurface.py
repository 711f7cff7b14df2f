"""Discrete generalised d-hypersurfaces, uniform covers, and instance generators.

A generalised d-hypersurface is modelled as a finite list of weighted atoms
(w_i, v_i) with w_i > 0 and v_i in R^d.  Weights need not sum to one; callers
that require a probability measure normalize explicitly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np


class DiscreteHypersurface:
    """Weighted vector atoms (w_i, v_i) in R^d.

    Parameters
    ----------
    d : int
        Ambient dimension.
    atoms : sequence of (weight, vector)
        Positive weights and length-d vectors.  Total mass must be finite.
    label : str
        Free-form tag carried into reports.
    """

    def __init__(self, d, atoms, label=""):
        d = int(d)
        if d < 1:
            raise ValueError("dimension must be >= 1")
        atoms = list(atoms)
        if not atoms:
            raise ValueError("need at least one atom")
        weights = np.asarray([a[0] for a in atoms], dtype=float)
        vectors = np.asarray([np.asarray(a[1], dtype=float) for a in atoms], dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != d:
            raise ValueError(f"atom vectors must have length {d}")
        if not np.all(np.isfinite(weights)) or not np.all(np.isfinite(vectors)):
            raise ValueError("weights and vectors must be finite")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if not math.isfinite(float(weights.sum())):
            raise ValueError("total mass must be finite")
        self.d = d
        self.weights = weights
        self.vectors = vectors
        self.label = str(label)

    @property
    def m(self):
        """Number of atoms."""
        return len(self.weights)

    @property
    def atoms(self):
        return list(zip(self.weights.tolist(), [v for v in self.vectors]))

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def is_probability(self, tol=1e-9):
        return abs(self.total_mass - 1.0) <= tol

    def has_unit_vectors(self, tol=1e-9):
        return bool(np.all(np.abs(np.linalg.norm(self.vectors, axis=1) - 1.0) <= tol))

    def spans(self, tol=1e-12):
        """True when the atom vectors span R^d: sigma_d > tol * sigma_1 (scale-free)."""
        if self.m < self.d:
            return False
        s = np.linalg.svd(self.vectors, compute_uv=False)
        return bool(s[self.d - 1] > tol * s[0])

    def whiten(self):
        """Singular values sigma (descending) and right singular vectors (rows
        of Qt) of the rows sqrt(w_i) v_i: T = sum_i w_i v_i v_i^T is
        Qt^T diag(sigma^2) Qt, and every route that needs T, T^(-1/2), det T
        or eig T reads them here.  They keep the small directions about
        sqrt(cond T) times more accurate than eigenvalues of T itself.  Not
        cached, because the arrays are writable."""
        return np.linalg.svd(np.sqrt(self.weights)[:, None] * self.vectors, full_matrices=False)[1:]

    def map(self, A, label=None):
        """Surface with the same weights and vectors A @ v_i."""
        A = np.asarray(A, dtype=float)
        vecs = self.vectors @ A.T
        return DiscreteHypersurface(
            self.d, zip(self.weights, vecs), self.label if label is None else label
        )

    def to_dict(self):
        return {
            "d": self.d,
            "atoms": [{"w": float(w), "v": [float(x) for x in v]} for w, v in zip(self.weights, self.vectors)],
            "label": self.label,
        }

    def __repr__(self):
        return f"DiscreteHypersurface(d={self.d}, m={self.m}, label={self.label!r})"

    def __eq__(self, other):
        if not isinstance(other, DiscreteHypersurface):
            return NotImplemented
        return (
            self.d == other.d
            and self.label == other.label
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.vectors, other.vectors)
        )


@dataclass(frozen=True)
class UniformCover:
    """Index sets A_1..A_m over the ground set {0, ..., j-1}.

    Two validation modes:

    * weighted (``alphas`` given): sum_i alphas[i] * 1[l in A_i] == 1 for
      every ground index l;
    * counting (``s`` given, no alphas): every ground index lies in exactly
      ``s`` of the sets.

    Indices are 0-based.
    """

    j: int
    sets: tuple
    alphas: tuple = None
    s: int = None

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(tuple(int(i) for i in A) for A in self.sets))
        if self.alphas is not None:
            object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))

    @property
    def m(self):
        return len(self.sets)

    @property
    def block_sizes(self):
        return tuple(len(A) for A in self.sets)

    @classmethod
    def partition(cls, blocks, j=None):
        """Partition cover with unit weights."""
        blocks = tuple(tuple(b) for b in blocks)
        if j is None:
            j = sum(len(b) for b in blocks)
        return cls(j=j, sets=blocks, alphas=(1.0,) * len(blocks), s=1)

    @classmethod
    def singletons(cls, j):
        return cls.partition([(i,) for i in range(j)], j=j)


@dataclass(frozen=True)
class CoverValidation:
    valid: bool
    residuals: tuple
    message: str = ""


def validate_cover(c: UniformCover) -> CoverValidation:
    """Check the exact-cover condition, returning per-index residuals.

    Weighted mode residual: |sum_i alpha_i * chi_{A_i}(l) - 1|; counting mode
    residual: |#{i : l in A_i} - s|.
    """
    if c.j < 1:
        return CoverValidation(False, (), "ground size must be >= 1")
    for A in c.sets:
        if len(A) == 0:
            return CoverValidation(False, (), "empty cover set")
        if any(i < 0 or i >= c.j for i in A):
            return CoverValidation(False, (), "cover set index out of range")
        if len(set(A)) != len(A):
            return CoverValidation(False, (), "repeated index inside a cover set")
    counts = np.zeros(c.j)
    for A in c.sets:
        for i in A:
            counts[i] += 1
    if c.alphas is not None:
        if len(c.alphas) != len(c.sets):
            return CoverValidation(False, (), "alphas/sets length mismatch")
        if any(a <= 0 for a in c.alphas):
            return CoverValidation(False, (), "cover weights must be positive")
        load = np.zeros(c.j)
        for A, a in zip(c.sets, c.alphas):
            for i in A:
                load[i] += a
        residuals = tuple(abs(x - 1.0) for x in load)
        ok = max(residuals) <= 1e-12
        return CoverValidation(ok, residuals, "" if ok else "weighted cover condition violated")
    if c.s is not None:
        residuals = tuple(abs(x - c.s) for x in counts)
        ok = max(residuals) == 0
        return CoverValidation(ok, residuals, "" if ok else f"not an s={c.s} uniform cover")
    return CoverValidation(False, (), "cover needs either alphas or s")


def make_axis_cross(d, weight_per_axis=1.0, signed=False):
    """Atoms at the coordinate directions (and their negatives when signed)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    eye = np.eye(d)
    atoms = []
    for i in range(d):
        atoms.append((weight_per_axis, eye[i]))
        if signed:
            atoms.append((weight_per_axis, -eye[i]))
    name = f"axis-cross(d={d}, w={weight_per_axis}, signed={signed})"
    return DiscreteHypersurface(d, atoms, label=name)


def sample_sphere_uniform(d, n, seed):
    """n atoms of weight 1/n at independent uniform directions on S^{d-1}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, d))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms == 0):  # probability-zero safeguard
        bad = norms == 0
        g[bad] = rng.normal(size=(int(bad.sum()), d))
        norms = np.linalg.norm(g, axis=1)
    g /= norms[:, None]
    return DiscreteHypersurface(
        d, [(1.0 / n, v) for v in g], label=f"sphere-sample(d={d}, n={n}, seed={seed})"
    )


def random_surface(d, m, seed, unit=False, probability=False):
    """Random spanning test surface: Gaussian vectors, weights uniform on [0.2, 1.5]."""
    rng = np.random.default_rng(seed)
    for _ in range(64):
        vecs = rng.normal(size=(m, d))
        if unit or probability:
            vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        w = rng.uniform(0.2, 1.5, size=m)
        if probability:
            w = w / w.sum()
        s = DiscreteHypersurface(d, zip(w, vecs), label=f"random(d={d}, m={m}, seed={seed})")
        if m < d or s.spans(tol=1e-8):
            return s
    raise RuntimeError("failed to draw a spanning surface")


def make_sheared_cube(d, seed=0):
    """Surface whose projection body is a parallelotope: atoms from the
    columns of a unimodular upper-triangular matrix with entries uniform
    on [-1, 1] above the diagonal."""
    rng = np.random.default_rng(seed)
    T = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            T[i, j] = rng.uniform(-1.0, 1.0)
    atoms = []
    for j in range(d):
        col = T[:, j]
        nrm = np.linalg.norm(col)
        atoms.append((nrm, col / nrm))
    return DiscreteHypersurface(d, atoms, label=f"sheared-cube(d={d}, seed={seed})")


def _reject_constant(s):
    raise ValueError(f"non-finite JSON constant {s!r} not allowed in surface files")


def surface_from_dict(data):
    if not isinstance(data, dict) or "d" not in data or "atoms" not in data:
        raise ValueError("surface JSON must have 'd' and 'atoms'")
    if not isinstance(data["atoms"], list):
        raise ValueError("surface JSON 'atoms' must be a list")
    for i, a in enumerate(data["atoms"]):
        if not isinstance(a, dict) or "w" not in a or "v" not in a:
            raise ValueError(f"surface JSON atom {i} must be an object with 'w' and 'v'")
    atoms = [(a["w"], a["v"]) for a in data["atoms"]]
    return DiscreteHypersurface(data["d"], atoms, label=data.get("label", ""))


def load_surface(path):
    """Load a surface from the JSON file at ``path`` (a ``str`` or
    ``os.PathLike``); rejects NaN/Inf and nonpositive weights."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"a surface path must be a str or os.PathLike, not {type(path).__name__}")
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, parse_constant=_reject_constant)
    return surface_from_dict(data)


def save_surface(s, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(s.to_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
