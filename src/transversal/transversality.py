"""Transversality quantities Q_j^p and their factorization/maximizer checks.

Q_j^p of surfaces S_1..S_j is the (jp)-th root of the j-fold sum

    sum over tuples  prod_k w_k  *  |v_1 ^ ... ^ v_j|^p.

Exact enumeration walks the tuple space in fixed-size chunks with batched
Gram determinants (geom_core.gram_dets, refined through singular values near
rank deficiency); the per-chunk partial sums are combined in order with
math.fsum.  Block boundaries depend only on the sizes and the route, so
results are deterministic.

A tuple that repeats an atom has two equal rows, so its Gram determinant is
refined through singular values and the rank floor makes it exactly 0.  When
every slot holds the same surface object, enumeration therefore skips those
tuples, by one of three routes:

* subset     -- slot-symmetric integrands (Q_j^p sums): the j-subsets of the
                atoms, each standing for its j! orderings;
* injective  -- integrands that are not slot-symmetric but vanish on
                repeated atoms (the refinement pass of finner_check): ordered
                tuples of distinct atoms;
* product    -- any other slot list: all ordered tuples, but a slot-symmetric
                sum walks each run of r consecutive slots that hold one
                surface object by its r-subsets (times r!) instead.

The same rule lets q_montecarlo give draws that repeat an atom a zero
determinant without computing it.  q_exact at p = 2 with one surface in
every slot uses the Cauchy-Binet closed form j! e_j(eig T) instead, and
enumerates only near rank deficiency; _q_sum itself always enumerates,
because the closed forms elsewhere are checked against it.  The refinement
pass of finner_check reads each cover block's determinants from a table over
that block's atom tuples, built once per call, and the block sums Q_i are
summed from the same tables.

The budget bounds the tuples each walk yields (C(m, j) subsets, m!/(m-j)!
injective tuples, prod m_k ordered tuples or prod C(m, r) over the runs, and
prod m_l for a block table over its slots l); _index_blocks alone checks it,
when the walk is created.
The Cauchy-Binet sum walks nothing.  Index blocks are generated lazily,
CHUNK at a time, so no full index array is ever held in memory.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .geom_core import _rho_from_dets, gram_dets, unit_directions
from .hypersurface import DiscreteHypersurface, UniformCover, validate_cover
from .reports import Claim, Estimate, make_report, ok_flags

#: fixed enumeration chunk (block boundaries, hence results, do not vary)
CHUNK = 1 << 17
#: default cap on the exact tuple-space size
DEFAULT_BUDGET = 10_000_000


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


def _index_blocks(sizes, route="product", budget=DEFAULT_BUDGET):
    """Tuple indices, lazily, as (n, j) integer arrays of at most CHUNK rows.

    ``product`` walks all ordered tuples of range(sizes[0]) x ...; ``subset``
    and ``injective`` take every slot from range(sizes[0]) and walk its
    j-subsets or its ordered tuples of distinct entries.  Block boundaries
    depend only on the sizes and the route.  The rows the walk will yield
    are counted against ``budget`` at the call, before the first block.
    """
    j = len(sizes)
    if route == "product":
        total = math.prod(sizes)
    else:
        total = (math.comb if route == "subset" else math.perm)(sizes[0], j)
    if total > budget:
        raise ValueError(f"the {route} walk has {total} tuples, over the budget {budget}")
    if route == "product":
        return (
            np.stack(np.unravel_index(np.arange(lo, min(lo + CHUNK, total)), sizes), axis=1)
            for lo in range(0, total, CHUNK)
        )
    walk = itertools.combinations if route == "subset" else itertools.permutations
    tuples = walk(range(sizes[0]), j)
    chunks = (itertools.islice(tuples, CHUNK) for _ in range(0, total, CHUNK))
    return (np.fromiter(itertools.chain.from_iterable(c), dtype=np.intp).reshape(-1, j) for c in chunks)


def _same_surface(surfaces):
    """True when one surface object fills every slot."""
    return all(s is surfaces[0] for s in surfaces)


def _slot_weights(surfaces, idx):
    """prod_k w_k for each row of the index block idx."""
    W = np.ones(idx.shape[0])
    for k, s in enumerate(surfaces):
        W *= s.weights[idx[:, k]]
    return W


def _tuple_blocks(surfaces, budget=DEFAULT_BUDGET):
    """Weights (n,), stacked vectors (n, j, d) and the multiplicity of each
    block of a slot-symmetric tuple sum over ``surfaces``.

    Each run of r consecutive slots that hold one surface object takes its
    r-subsets (multiplicity r!); tuples that repeat an atom within a run are
    skipped, which is exact because their wedge is 0.  One run is walked
    lazily; several by the product over per-run subset tables, which for
    runs of length 1 is all ordered tuples.
    """
    runs = [list(g) for _, g in itertools.groupby(surfaces, key=id)]
    if len(runs) == 1:
        blocks = _index_blocks([surfaces[0].m] * len(surfaces), "subset", budget)
    else:
        shapes = [(run[0].m, len(run)) for run in runs]
        walk = _index_blocks([math.comb(m, r) for m, r in shapes], budget=budget)
        flat = [itertools.chain.from_iterable(itertools.combinations(range(m), r)) for m, r in shapes]
        tables = [np.fromiter(f, np.intp).reshape(-1, r) for f, (_, r) in zip(flat, shapes)]
        blocks = (np.hstack([T[rows[:, i]] for i, T in enumerate(tables)]) for rows in walk)
    mult = math.prod(math.factorial(len(run)) for run in runs)
    for idx in blocks:
        V = np.stack([s.vectors[idx[:, k]] for k, s in enumerate(surfaces)], axis=1)
        yield _slot_weights(surfaces, idx), V, mult


def _block_table(surfaces, units, A, p, blocks):
    """Per cover block A: the slot sizes, over all ordered atom tuples of
    those slots (flat C order, as np.ravel_multi_index gives) the normalized
    Gram determinants and F = wedge^p, and the block's raw sum of
    prod_k w_k * F (Q_i to the power |A| p).  ``blocks`` is the product walk
    over those slots, created (and so checked against the budget) by the
    caller."""
    slots = [surfaces[l] for l in A]
    sizes = [s.m for s in slots]
    sub = np.empty(math.prod(sizes))
    F = np.empty_like(sub)
    parts = []
    lo = 0
    for idx in blocks:
        U = np.stack([units[l][idx[:, k]] for k, l in enumerate(A)], axis=1)
        V = np.stack([s.vectors[idx[:, k]] for k, s in enumerate(slots)], axis=1)
        hi = lo + idx.shape[0]
        sub[lo:hi] = np.clip(np.linalg.det(U @ np.transpose(U, (0, 2, 1))), 0.0, None)
        F[lo:hi] = gram_dets(V) ** (p / 2.0)
        parts.append(float(np.sum(_slot_weights(slots, idx) * F[lo:hi])))
        lo = hi
    return sizes, sub, F, math.fsum(parts)


def _q_sum(surfaces, p, budget=DEFAULT_BUDGET):
    """Raw j-fold sum (Q_j^p to the power jp), exact enumeration."""

    def chunk_sum(W, V, mult):
        dets = gram_dets(V)
        return mult * float(np.sum(W * dets ** (p / 2.0)))

    return math.fsum(chunk_sum(*b) for b in _tuple_blocks(surfaces, budget))


#: the Cauchy-Binet sum is used only when e_j > CB_REL * e_1 * e_{j-1}: closer
#: to rank deficiency the small eigenvalues lose relative accuracy, and
#: dependent atoms must give the exact 0 that enumeration gives
CB_REL = 1e-3


def _cauchy_binet_sum(s, j):
    """Raw Q_j^2 sum of one surface in all j slots, or None near rank
    deficiency.

    By Cauchy-Binet the sum over ordered tuples of prod w_k det Gram(v_1..v_j)
    is j! e_j(eig T), with T = sum_i w_i v_i v_i^T, whose eigenvalues are the
    squared singular values of ``s.whiten()``.
    """
    e = np.zeros(j + 1)
    e[0] = 1.0
    for lam in s.whiten()[0] ** 2:
        e[1:] += lam * e[:-1]
    if e[j] <= CB_REL * e[1] * e[j - 1]:
        return None
    return math.factorial(j) * float(e[j])


def q_exact(surfaces, j, p, *, budget=DEFAULT_BUDGET) -> float:
    """Exact Q_j^p: by Cauchy-Binet when p = 2 and a single surface fills
    every slot, away from rank deficiency; otherwise by tuple enumeration
    (see _tuple_blocks for the walk).

    Parameters
    ----------
    surfaces : DiscreteHypersurface or sequence of j surfaces
        A single surface is used in all j slots.
    j : int
        Tuple length, 1 <= j <= d.
    p : float
        Positive exponent.
    budget : int
        Maximum number of tuples the enumeration walks: prod C(m, r) over
        the runs of r consecutive slots that hold one surface object (prod_k
        m_k for distinct surfaces).  Cauchy-Binet walks none, unbounded.
    """
    j = int(j)
    if j < 1:
        raise ValueError("j must be >= 1")
    if p <= 0:
        raise ValueError("p must be positive")
    surfaces = _as_surface_list(surfaces, j)
    if j > surfaces[0].d:
        raise ValueError(f"j={j} exceeds dimension d={surfaces[0].d}")
    total = None
    if p == 2 and _same_surface(surfaces):
        total = _cauchy_binet_sum(surfaces[0], j)
    if total is None:
        total = _q_sum(surfaces, p, budget)
    return total ** (1.0 / (j * p))


def q_montecarlo(surfaces, j, p, n_samples, seed) -> Estimate:
    """Importance-sampled Q_j^p.

    Tuples are drawn atom-by-atom proportionally to the weights, which makes
    the sample mean unbiased for the raw sum Q^(jp); the root is reported with
    a delta-method standard error.  When one surface fills every slot, draws
    that repeat an atom have wedge 0 and skip the determinant kernel.
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
    mass = np.array([s.total_mass for s in surfaces])
    scale = float(np.prod(mass))
    ids = np.empty((n_samples, j), dtype=np.intp)
    for k, s in enumerate(surfaces):
        ids[:, k] = rng.choice(s.m, size=n_samples, p=s.weights / mass[k])
    keep = np.ones(n_samples, dtype=bool)
    if _same_surface(surfaces):
        keep = np.all(np.diff(np.sort(ids, axis=1), axis=1) != 0, axis=1)
    V = np.stack([s.vectors[ids[keep, k]] for k, s in enumerate(surfaces)], axis=1)
    det = np.zeros(n_samples)
    det[keep] = gram_dets(V)
    f = scale * det ** (p / 2.0)
    se = float(np.std(f, ddof=1) / math.sqrt(n_samples))
    raw = Estimate(float(np.mean(f)), se, "mc", n_samples)
    if raw.value <= 0.0:
        return Estimate(0.0, 0.0, "mc", n_samples)
    return raw.root(j * p)


def finner_check(surfaces, cover, p, *, budget=DEFAULT_BUDGET, seed=0):
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
    factor of the normalized directions.  F_i and the normalized block Gram
    determinants depend only on the atoms of block A_i, so they are computed
    once per block atom tuple into tables and read per tuple; Q_i is the
    weighted sum of its table's F_i over all ordered block tuples, and Q is
    summed by a separate enumeration, so the identity compares two
    computations.  Each tuple still gets its own full Gram determinant, and
    rho is formed per tuple by geom_core._rho_from_dets, as in rho_factor.

    ``budget`` bounds each walk (see the module docstring); all of them are
    created before the first determinant, so an over-budget call raises
    without computing anything.
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
    # rho is not slot-symmetric, but it vanishes on repeated atoms, so one
    # surface in every slot takes the injective route
    route = "injective" if _same_surface(surfaces) else "product"
    walk = _index_blocks([s.m for s in surfaces], route, budget)
    table_walks = [_index_blocks([surfaces[l].m for l in A], budget=budget) for A in cover.sets]

    lhs = _q_sum(surfaces, p, budget) ** (1.0 / (j * p))

    sets = [list(A) for A in cover.sets]
    alphas = np.array(cover.alphas)
    units = [unit_directions(s.vectors) for s in surfaces]
    tables = [_block_table(surfaces, units, A, p, blocks) for A, blocks in zip(sets, table_walks)]
    block_Q = [raw ** (1.0 / (len(A) * p)) for A, (*_, raw) in zip(sets, tables)]
    classical = 1.0
    for Q_i, A, a in zip(block_Q, sets, cover.alphas):
        classical *= Q_i ** (a * len(A) / j)

    if any(raw == 0.0 for *_, raw in tables):
        refinement, sup_rho = 0.0, 0.0
    else:
        factors = [(F / raw) ** a for (_, _, F, raw), a in zip(tables, alphas)]
        sums, sups = [], []
        for idx in walk:
            U = np.stack([units[k][idx[:, k]] for k in range(j)], axis=1)
            ratio = np.ones(idx.shape[0])
            subs = []
            for A, (sizes, sub, _, _), factor in zip(sets, tables, factors):
                flat = np.ravel_multi_index(idx[:, A].T, sizes)
                subs.append(sub[flat])
                ratio *= factor[flat]
            rho, _ = _rho_from_dets(gram_dets(U), subs, alphas)
            sums.append(float(np.sum(_slot_weights(surfaces, idx) * ratio * rho**p)))
            sups.append(float(np.max(rho)))
        refinement = math.fsum(sums) ** (1.0 / (j * p))
        # no injective tuples (m < j): every tuple repeats an atom, rho = 0
        sup_rho = max(sups, default=0.0)

    rhs_refined = classical * refinement
    rhs_coarse = classical * sup_rho ** (1.0 / j)
    claims = [
        Claim("identity", lhs, rhs_refined, "eq", tol=1e-9 * max(1.0, lhs)),
        Claim("coarse", lhs, rhs_coarse),
        Claim("classical", lhs, classical),
    ]
    return make_report(
        "FINNER_RHO",
        ([s.to_dict() for s in surfaces], cover.sets, cover.alphas, p),
        lhs,
        rhs_refined,
        constant=sup_rho ** (1.0 / j),
        constant_formula="sup_rho^(1/j)",
        claims=claims,
        seed=seed,
        details={
            **ok_flags(claims),
            "classical": classical,
            "rhs_coarse": rhs_coarse,
            "refinement": refinement,
            "sup_rho": sup_rho,
            "identity_residual": abs(lhs - rhs_refined),
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
    sv, Qt = surface.whiten()  # second-moment matrix (Qt^T sv^2) Qt
    isotropic = bool(np.max(np.abs((Qt.T * sv**2) @ Qt - np.eye(d) / d)) <= 1e-12)
    certificate = zero_one and isotropic
    return make_report(
        "JP_BOUND",
        (surface.to_dict(), p),
        lhs,
        rhs,
        constant=1.0 - 1.0 / d,
        constant_formula="1 - 1/d",
        claims=[
            Claim("bound", lhs, rhs),
            Claim("equality", lhs, rhs, "eq", tol=1e-10, asserted=certificate),
        ],
        seed=seed,
        details={
            "equality_certificate": certificate,
            "orthogonal_support": zero_one,
            "isotropic": isotropic,
            "gap": rhs - lhs,
            "p": p,
        },
    )
