"""Reference values the benchmark computes itself, with plain numpy.

None of these call ``transversal``.  Surfaces are passed as a weight vector
``w`` (m,) and a direction matrix ``V`` (m, d).  The ordered-tuple sum of
Q_j^p has j! times the j-subset sum as its value, because tuples that repeat
an atom have wedge 0.  Each ``check_*`` function returns a list of
``(reference name, ok)`` pairs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: relative tolerance of every reference comparison
REL_TOL = 1e-9
#: absolute slack for values the CLI prints with ten decimals
PRINT_ABS = 0.5e-10


def close(value, ref, abs_tol=0.0):
    return abs(value - ref) <= REL_TOL * abs(ref) + abs_tol


def ball_volume(n):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _subsets(m, j):
    return np.array(list(itertools.combinations(range(m), j)), dtype=np.intp).reshape(-1, j)


def q_subset_sum(w, V, j, p):
    """Q_j^p as j! times the sum over j-subsets of prod w * (prod sv)^p."""
    idx = _subsets(len(w), j)
    total = []
    for lo in range(0, len(idx), 65536):
        block = idx[lo : lo + 65536]
        sv = np.linalg.svd(V[block], compute_uv=False)
        total.append(float(np.sum(np.prod(w[block], axis=1) * np.prod(sv, axis=1) ** p)))
    return (math.factorial(j) * math.fsum(total)) ** (1.0 / (j * p))


def q_cauchy_binet(w, V, j):
    """Q_j^2 by Cauchy-Binet: the ordered sum is j! e_j(eig T)."""
    T = (w[:, None] * V).T @ V
    coeffs = np.poly(np.linalg.eigvalsh(T))
    e_j = (-1) ** j * coeffs[j]
    return (math.factorial(j) * e_j) ** (1.0 / (2 * j))


def q_det_sum(w, V):
    """Criterion 1: Q_d^1^d = (d!/2^d) |Pi S|, with |Pi S| as 2^d times the
    plain sum of |det| over d-subsets of the generators w_i v_i."""
    d = V.shape[1]
    G = w[:, None] * V
    dets = np.abs(np.linalg.det(G[_subsets(len(w), d)]))
    return (math.factorial(d) * math.fsum(dets.tolist())) ** (1.0 / d)


def vis2_covariance(w, V):
    """Exact vis_2 = |K^2|^(-1/d) with |K^2| = omega_d / sqrt(det T)."""
    d = V.shape[1]
    T = (w[:, None] * V).T @ V
    return (ball_volume(d) / math.sqrt(float(np.linalg.det(T)))) ** (-1.0 / d)


def mixed_volume_ball(generator_sets, d):
    """V(B^d[d-k], Z_1..Z_k) = 2^k omega_{d-k} / (k! C(d,k)) * sum over
    generator tuples |g_1 ^ ... ^ g_k|."""
    k = len(generator_sets)
    grids = np.meshgrid(*[np.arange(len(G)) for G in generator_sets], indexing="ij")
    W = np.stack([G[g.ravel()] for G, g in zip(generator_sets, grids)], axis=1)
    gram = W @ np.transpose(W, (0, 2, 1))
    wedge = np.sqrt(np.clip(np.linalg.det(gram), 0.0, None))
    scale = 2.0**k * ball_volume(d - k) / (math.factorial(k) * math.comb(d, k))
    return scale * math.fsum(wedge.tolist())


# ---------------------------------------------------------------------------
# plain Monte Carlo standard errors predicted from a pilot sample
# ---------------------------------------------------------------------------

#: pilot draws per predicted standard error
PILOT_SAMPLES = 20_000


def vis_mc_rel_se(w, V, p, n_samples, rng):
    """Relative standard error of vis_p that radial Monte Carlo with
    ``n_samples`` directions gives: CV(||theta||_p^(-d)) / (d sqrt(n))."""
    d = V.shape[1]
    g = rng.normal(size=(PILOT_SAMPLES, d))
    g /= np.linalg.norm(g, axis=1)[:, None]
    f = (np.abs(g @ V.T) ** p @ w) ** (-d / p)
    return float(np.std(f, ddof=1) / np.mean(f)) / (d * math.sqrt(n_samples))


def q_mc_rel_se(w, V, j, p, n_samples, rng):
    """Relative standard error of Q_j^p that sampling atoms in proportion
    to their weights gives: CV(|wedge|^p) / (j p sqrt(n))."""
    ids = rng.choice(len(w), size=(PILOT_SAMPLES, j), p=w / w.sum())
    T = V[ids]
    det = np.clip(np.linalg.det(T @ np.transpose(T, (0, 2, 1))), 0.0, None)
    f = det ** (p / 2.0)
    return float(np.std(f, ddof=1) / np.mean(f)) / (j * p * math.sqrt(n_samples))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_q(w, V, j, p, value, abs_tol=0.0):
    """Every reference that applies to a Q_j^p value."""
    out = [("q_subset_sum", close(value, q_subset_sum(w, V, j, p), abs_tol))]
    if p == 2.0:
        out.append(("q_cauchy_binet", close(value, q_cauchy_binet(w, V, j), abs_tol)))
    if p == 1.0 and j == V.shape[1]:
        out.append(("q_det_sum", close(value, q_det_sum(w, V), abs_tol)))
    return out


def check_vis2(w, V, value, abs_tol=0.0):
    return [("vis2_covariance", close(value, vis2_covariance(w, V), abs_tol))]


def check_mixed_volume(generator_sets, d, value, abs_tol=0.0):
    return [("mixed_volume_ball", close(value, mixed_volume_ball(generator_sets, d), abs_tol))]


def check_bytes(first, second):
    return [("suite_json_rewrite", first == second)]
