"""Transversality quantities Q_j^p and their factorization/maximizer checks.

Q_j^p of surfaces S_1..S_j is the (jp)-th root of the j-fold sum

    sum over tuples  prod_k w_k  *  |v_1 ^ ... ^ v_j|^p.

Exact enumeration walks the tuple space in fixed-size chunks with batched
Gram determinants (refined through singular values near rank deficiency);
per-chunk partial sums are combined with math.fsum, so the result is
independent of the worker count.

A tuple that repeats an atom has two equal rows, so its Gram determinant is
refined through singular values and the rank floor makes it exactly 0.  When
every slot holds the same surface object, enumeration therefore skips those
tuples, by one of three routes:

* subset     -- slot-symmetric integrands (Q_j^p sums): the j-subsets of the
                atoms, each standing for its j! orderings;
* injective  -- integrands that are not slot-symmetric but vanish on
                repeated atoms (the cover-factor refinement): ordered tuples
                of distinct atoms;
* product    -- any other slot list: all ordered tuples.

The budget still bounds the ordered tuple space prod_k m_k, whatever route
does the work.  Index blocks are generated lazily, CHUNK at a time, so no
full index array is ever held in memory.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geom_core import DEGENERATE_DET, WEDGE_REFINE_REL, unit_directions
from .hypersurface import DiscreteHypersurface, UniformCover, validate_cover
from .reports import make_report, verdict_leq

#: fixed enumeration chunk (worker-count invariant)
CHUNK = 1 << 17
#: default cap on the exact tuple-space size
DEFAULT_BUDGET = 10_000_000


def resolve_workers(workers=None):
    """Worker count: explicit argument, else TRANSVERSAL_WORKERS, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("TRANSVERSAL_WORKERS")
    if env:
        return max(1, int(env))
    return 1


def _as_surface_list(surfaces, j=None):
    if isinstance(surfaces, DiscreteHypersurface):
        if j is None:
            raise ValueError("j is required when a single surface is given")
        surfaces = [surfaces] * j
    surfaces = list(surfaces)
    if not surfaces:
        raise ValueError("need at least one surface")
    if j is not None and len(surfaces) != j:
        raise ValueError(f"expected {j} surfaces, got {len(surfaces)}")
    d = surfaces[0].d
    if any(s.d != d for s in surfaces):
        raise ValueError("surfaces must share the ambient dimension")
    return surfaces


def _index_blocks(sizes, route="product"):
    """Tuple indices, lazily, as (n, j) integer arrays of at most CHUNK rows.

    ``product`` walks all ordered tuples of range(sizes[0]) x ...; ``subset``
    and ``injective`` take every slot from range(sizes[0]) and walk its
    j-subsets or its ordered tuples of distinct entries.  Block boundaries
    depend only on the sizes and the route.
    """
    j = len(sizes)
    if route == "product":
        total = math.prod(sizes)
        for lo in range(0, total, CHUNK):
            idx = np.unravel_index(np.arange(lo, min(lo + CHUNK, total)), sizes)
            yield np.stack(idx, axis=1)
        return
    walk = itertools.combinations if route == "subset" else itertools.permutations
    tuples = walk(range(sizes[0]), j)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(tuples, CHUNK)), dtype=np.intp
        )
        if flat.size == 0:
            return
        yield flat.reshape(-1, j)


def _tuple_blocks(surfaces, *, symmetric=True):
    """Weights (n,), stacked vectors (n, j, d) and the multiplicity of each
    block of the tuple sum over ``surfaces``.

    ``symmetric`` says the summand is invariant under reordering the slots;
    with one surface object in every slot, the sum then runs over j-subsets
    (multiplicity j!), otherwise over injective tuples (multiplicity 1).
    Tuples that repeat an atom are skipped on both routes, which is exact
    because their wedge is 0.
    """
    route = "product"
    if all(s is surfaces[0] for s in surfaces):
        route = "subset" if symmetric else "injective"
    mult = math.factorial(len(surfaces)) if route == "subset" else 1
    for idx in _index_blocks([s.m for s in surfaces], route):
        W = np.ones(idx.shape[0])
        for k, s in enumerate(surfaces):
            W *= s.weights[idx[:, k]]
        V = np.stack([s.vectors[idx[:, k]] for k, s in enumerate(surfaces)], axis=1)
        yield W, V, mult


def _sv_gram_dets(V):
    """Batched Gram determinants via singular values with a rank floor, so
    rank-deficient tuples (e.g. a repeated atom) give an exact 0."""
    sv = np.linalg.svd(V, compute_uv=False)
    floor = sv[:, :1] * (max(V.shape[1], V.shape[2]) * np.finfo(float).eps)
    return np.prod(np.where(sv > floor, sv, 0.0), axis=1) ** 2


def _batched_gram_dets(V):
    """det(V V^T) per stacked tuple.

    LU determinants far below the Hadamard bound have lost half their digits
    to cancellation, which the square root in the wedge norm doubles; those
    entries are recomputed from singular values.
    """
    G = V @ np.transpose(V, (0, 2, 1))
    det = np.clip(np.linalg.det(G), 0.0, None)
    hadamard = np.prod(np.einsum("nkk->nk", G), axis=1)
    suspect = det < WEDGE_REFINE_REL * hadamard
    if np.any(suspect):
        det[suspect] = _sv_gram_dets(V[suspect])
    return det


def _map_blocks(fn, blocks, workers):
    """[fn(*block) for block in blocks] with at most ``workers`` blocks in
    flight, so memory stays at one block per worker; results keep block order."""
    if workers <= 1:
        return [fn(*b) for b in blocks]
    out = []
    with ThreadPoolExecutor(max_workers=workers) as ex:
        while wave := list(itertools.islice(blocks, workers)):
            out.extend(ex.map(lambda b: fn(*b), wave))
    return out


def _q_sum(surfaces, p, workers):
    """Raw j-fold sum (Q_j^p to the power jp), exact enumeration."""

    def chunk_sum(W, V, mult):
        dets = _batched_gram_dets(V)
        return mult * float(np.sum(W * dets ** (p / 2.0)))

    return math.fsum(_map_blocks(chunk_sum, _tuple_blocks(surfaces), workers))


def _check_budget(surfaces, budget):
    total = int(np.prod([s.m for s in surfaces]))
    if total > budget:
        raise ValueError(
            f"tuple space has {total} elements, over the exact-enumeration budget {budget}"
        )
    return total


def q_exact(surfaces, j, p, *, budget=DEFAULT_BUDGET, workers=None) -> float:
    """Exact Q_j^p by tuple enumeration (j-subsets when a single surface
    fills every slot, all ordered tuples otherwise).

    Parameters
    ----------
    surfaces : DiscreteHypersurface or sequence of j surfaces
        A single surface is used in all j slots.
    j : int
        Tuple length, 1 <= j <= d.
    p : float
        Positive exponent.
    budget : int
        Maximum admissible ordered tuple-space size prod_k m_k, whichever
        route does the work.
    workers : int, optional
        Thread count; result is independent of it.
    """
    j = int(j)
    if j < 1:
        raise ValueError("j must be >= 1")
    if p <= 0:
        raise ValueError("p must be positive")
    surfaces = _as_surface_list(surfaces, j)
    if j > surfaces[0].d:
        raise ValueError(f"j={j} exceeds dimension d={surfaces[0].d}")
    _check_budget(surfaces, budget)
    total = _q_sum(surfaces, p, resolve_workers(workers))
    return total ** (1.0 / (j * p))


@dataclass(frozen=True)
class QEstimate:
    value: float
    std_error: float
    n_samples: int
    j: int
    p: float


def q_montecarlo(surfaces, j, p, n_samples, seed, *, workers=None) -> QEstimate:
    """Importance-sampled Q_j^p.

    Tuples are drawn atom-by-atom proportionally to the weights, which makes
    the sample mean unbiased for the raw sum Q^(jp); the root is reported with
    a delta-method standard error.
    """
    j = int(j)
    n_samples = int(n_samples)
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    if p <= 0:
        raise ValueError("p must be positive")
    surfaces = _as_surface_list(surfaces, j)
    if j > surfaces[0].d:
        raise ValueError(f"j={j} exceeds dimension d={surfaces[0].d}")
    rng = np.random.default_rng(seed)
    d = surfaces[0].d
    mass = np.array([s.total_mass for s in surfaces])
    scale = float(np.prod(mass))
    V = np.empty((n_samples, j, d))
    for k, s in enumerate(surfaces):
        ids = rng.choice(s.m, size=n_samples, p=s.weights / mass[k])
        V[:, k, :] = s.vectors[ids]
    f = scale * _batched_gram_dets(V) ** (p / 2.0)
    mean = float(np.mean(f))
    se = float(np.std(f, ddof=1) / math.sqrt(n_samples))
    if mean <= 0.0:
        return QEstimate(0.0, 0.0, n_samples, j, p)
    value = mean ** (1.0 / (j * p))
    val_se = value * se / (j * p * mean)
    return QEstimate(value, val_se, n_samples, j, p)


def finner_check(surfaces, cover, p, *, budget=DEFAULT_BUDGET, workers=None, seed=0):
    """Factorization chain for Q_j^p under a weighted uniform cover.

    Checks, with Q = Q_j^p of the input tuple and Q_i the per-block
    quantities over the sub-tuples A_i:

        Q == classical * refinement         (identity, residual reported)
        Q <= classical * sup_rho^(1/j)      (coarse bound)
        Q <= classical                      (since rho <= 1)

    where classical = prod_i Q_i^(alpha_i * |A_i| / j) and the refinement
    factor is enumerated directly per tuple (not derived from the identity):

        refinement = ( sum prod_k w_k * prod_i (F_i / int F_i)^alpha_i
                       * rho^p )^(1/(jp)),

    with F_i the block wedge norm to the p-th power and rho the Gram cover
    factor of the normalized directions.
    """
    if not isinstance(cover, UniformCover):
        raise ValueError("cover must be a UniformCover")
    check = validate_cover(cover)
    if not check.valid:
        raise ValueError(f"invalid cover: {check.message}")
    if cover.alphas is None:
        raise ValueError("finner_check needs a weighted cover")
    if p <= 0:
        raise ValueError("p must be positive")
    j = cover.j
    surfaces = _as_surface_list(surfaces, j)
    d = surfaces[0].d
    if j > d:
        raise ValueError(f"j={j} exceeds dimension d={d}")
    _check_budget(surfaces, budget)
    workers = resolve_workers(workers)

    lhs = _q_sum(surfaces, p, workers) ** (1.0 / (j * p))

    block_Q = []
    block_raw = []
    for A in cover.sets:
        subs = [surfaces[l] for l in A]
        raw = _q_sum(subs, p, workers)
        block_raw.append(raw)
        block_Q.append(raw ** (1.0 / (len(A) * p)))
    classical = 1.0
    for Q_i, A, a in zip(block_Q, cover.sets, cover.alphas):
        classical *= Q_i ** (a * len(A) / j)

    sets = [list(A) for A in cover.sets]
    alphas = np.array(cover.alphas)
    raw_arr = np.array(block_raw)
    degenerate_blocks = bool(np.any(raw_arr == 0.0))

    def chunk_stats(W, V, mult):
        n = len(W)
        U = V / np.where(
            (norms := np.linalg.norm(V, axis=2))[:, :, None] == 0.0, 1.0, norms[:, :, None]
        )
        fallback = norms == 0.0
        if np.any(fallback):
            U[fallback] = 0.0
            U[fallback, 0] = 1.0
        C = U @ np.transpose(U, (0, 2, 1))
        det_full = np.clip(np.linalg.det(C), 0.0, None)
        suspect = det_full < WEDGE_REFINE_REL  # unit diagonal: Hadamard bound 1
        if np.any(suspect):
            det_full[suspect] = _sv_gram_dets(U[suspect])
        rho_den_log = np.zeros(n)
        degenerate = np.zeros(n, dtype=bool)
        ratio = np.ones(n)
        for A, a, raw in zip(sets, alphas, raw_arr):
            sub_c = np.clip(np.linalg.det(C[np.ix_(range(n), A, A)]), 0.0, None)
            degenerate |= sub_c < DEGENERATE_DET
            with np.errstate(divide="ignore"):
                rho_den_log += np.where(sub_c > 0, 0.5 * a * np.log(sub_c), 0.0)
            F = _batched_gram_dets(V[:, A, :]) ** (p / 2.0)
            ratio *= (F / raw) ** a if raw > 0 else 0.0
        rho = np.where(degenerate, 0.0, np.minimum(np.sqrt(det_full) * np.exp(-rho_den_log), 1.0))
        return mult * float(np.sum(W * ratio * rho**p)), float(np.max(rho))

    if degenerate_blocks:
        refinement, sup_rho = 0.0, 0.0
    else:
        # rho is not slot-symmetric, but it vanishes on repeated atoms, so
        # one surface in every slot takes the injective route
        blocks = _tuple_blocks(surfaces, symmetric=False)
        stats = _map_blocks(chunk_stats, blocks, workers)
        refinement = math.fsum(s[0] for s in stats) ** (1.0 / (j * p))
        # no injective tuples (m < j): every tuple repeats an atom, rho = 0
        sup_rho = max((s[1] for s in stats), default=0.0)

    rhs_refined = classical * refinement
    rhs_coarse = classical * sup_rho ** (1.0 / j)
    residual = abs(lhs - rhs_refined)
    identity_ok = residual <= 1e-9 * max(1.0, lhs)
    coarse_ok = verdict_leq(lhs, rhs_coarse) == "pass"
    classical_ok = verdict_leq(lhs, classical) == "pass"
    verdict = "pass" if (identity_ok and coarse_ok and classical_ok) else "fail"
    return make_report(
        "FINNER_RHO",
        ([s.to_dict() for s in surfaces], cover.sets, cover.alphas, p),
        lhs,
        rhs_refined,
        constant=sup_rho ** (1.0 / j),
        constant_formula="sup_rho^(1/j)",
        verdict=verdict,
        seed=seed,
        details={
            "classical": classical,
            "rhs_coarse": rhs_coarse,
            "refinement": refinement,
            "sup_rho": sup_rho,
            "identity_residual": residual,
            "identity_ok": identity_ok,
            "coarse_ok": coarse_ok,
            "classical_ok": classical_ok,
            "block_Q": block_Q,
            "relation": "eq-then-leq-chain",
        },
    )


def _require_spherical_probability(mu, what):
    if not mu.has_unit_vectors(1e-9):
        raise ValueError(f"{what} needs unit atom directions (|v|=1 within 1e-9)")
    if not mu.is_probability(1e-9):
        raise ValueError(f"{what} needs a probability measure (total mass 1 within 1e-9)")


def i_p(mu: DiscreteHypersurface, p) -> float:
    """Pairwise transversality energy of a spherical probability measure:

        I_p(mu) = sum_{a,b} w_a w_b (1 - <v_a, v_b>^2)^(p/2).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    _require_spherical_probability(mu, "i_p")
    G = mu.vectors @ mu.vectors.T
    vals = np.clip(1.0 - G**2, 0.0, None) ** (p / 2.0)
    return float(mu.weights @ vals @ mu.weights)


def i_p_uniform_closed_form(d, p) -> float:
    """I_p of the uniform measure on S^{d-1}:

        Gamma(d/2) Gamma((p+d-1)/2) / (Gamma((d-1)/2) Gamma((p+d)/2)).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if p <= 0:
        raise ValueError("p must be positive")
    return math.exp(
        math.lgamma(d / 2.0)
        + math.lgamma((p + d - 1) / 2.0)
        - math.lgamma((d - 1) / 2.0)
        - math.lgamma((p + d) / 2.0)
    )


def moment_norm_sq(mu: DiscreteHypersurface, k) -> float:
    """E <X, X'>^{2k} for independent X, X' ~ mu on the sphere."""
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    _require_spherical_probability(mu, "moment_norm_sq")
    G = mu.vectors @ mu.vectors.T
    return float(mu.weights @ (G ** (2 * k)) @ mu.weights)


def uniform_moment_norm_sq(d, k) -> float:
    """E <X, X'>^{2k} for the uniform measure on S^{d-1} (double factorial form)."""
    k = int(k)
    val = 1.0
    for i in range(k):
        val *= (2 * i + 1) / (d + 2 * i)
    return val


def jp_bound_check(surface: DiscreteHypersurface, p, *, seed=0):
    """Upper bound I_p(mu) <= 1 - 1/d for p >= 2, with equality certificate.

    Equality holds exactly for isotropic measures supported on orthogonal
    directions (e.g. the normalized axis cross); the certificate requires
    every pairwise <v_a, v_b>^2 to be 0 or 1 and the second-moment matrix to
    equal I/d, both within 1e-12.
    """
    if p < 2:
        raise ValueError("jp_bound_check requires p >= 2")
    _require_spherical_probability(surface, "jp_bound_check")
    d = surface.d
    lhs = i_p(surface, p)
    rhs = 1.0 - 1.0 / d
    G = surface.vectors @ surface.vectors.T
    gsq = G**2
    zero_one = bool(np.all(np.abs(gsq * (1.0 - gsq)) <= 1e-12))
    M = (surface.weights[:, None] * surface.vectors).T @ surface.vectors
    isotropic = bool(np.max(np.abs(M - np.eye(d) / d)) <= 1e-12)
    certificate = zero_one and isotropic
    verdict = verdict_leq(lhs, rhs, 0.0)
    gap = rhs - lhs
    if certificate and abs(gap) > 1e-10:
        verdict = "fail"
    return make_report(
        "JP_BOUND",
        (surface.to_dict(), p),
        lhs,
        rhs,
        constant=1.0 - 1.0 / d,
        constant_formula="1 - 1/d",
        verdict=verdict,
        seed=seed,
        details={
            "equality_certificate": certificate,
            "orthogonal_support": zero_one,
            "isotropic": isotropic,
            "gap": gap,
            "p": p,
        },
    )
