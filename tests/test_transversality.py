import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from transversal.hypersurface import (
    DiscreteHypersurface,
    UniformCover,
    make_axis_cross,
    random_surface,
)
from transversal.transversality import (
    finner_check,
    i_p,
    i_p_uniform_closed_form,
    jp_bound_check,
    moment_norm_sq,
    q_exact,
    q_montecarlo,
    resolve_workers,
    uniform_moment_norm_sq,
)

from oracles import i_p_uniform_quadrature, uniform_moment_quadrature, wedge_norm_oracle


def test_q_axis_cross_2d_is_sqrt2():
    s = make_axis_cross(2)
    assert q_exact(s, 2, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-13)


def test_q_exact_matches_bruteforce_oracle():
    rng = np.random.default_rng(21)
    surfaces = [
        DiscreteHypersurface(3, zip(rng.uniform(0.3, 1.2, 4), rng.normal(size=(4, 3))))
        for _ in range(2)
    ]
    p = 1.7
    total = 0.0
    for a, b in itertools.product(range(4), range(4)):
        w = surfaces[0].weights[a] * surfaces[1].weights[b]
        V = np.stack([surfaces[0].vectors[a], surfaces[1].vectors[b]])
        total += w * wedge_norm_oracle(V) ** p
    assert q_exact(surfaces, 2, p) == pytest.approx(total ** (1 / (2 * p)), rel=1e-12)


def test_q_exact_single_vector_slot():
    s = random_surface(3, 5, seed=2)
    expected = float(np.sum(s.weights * np.linalg.norm(s.vectors, axis=1) ** 2.5)) ** (1 / 2.5)
    assert q_exact(s, 1, 2.5) == pytest.approx(expected, rel=1e-12)


def test_q_exact_worker_invariance():
    s = random_surface(4, 6, seed=8)
    a = q_exact(s, 3, 1.3, workers=1)
    b = q_exact(s, 3, 1.3, workers=4)
    assert a == b  # bitwise: fixed chunking, fsum combine


def test_q_exact_validation():
    s = random_surface(3, 4, seed=0)
    with pytest.raises(ValueError):
        q_exact(s, 4, 1.0)  # j > d
    with pytest.raises(ValueError):
        q_exact(s, 2, 0.0)
    with pytest.raises(ValueError):
        q_exact(s, 3, 1.0, budget=10)  # 64 tuples > 10


def test_q_montecarlo_consistent_with_exact():
    s = random_surface(3, 6, seed=5)
    exact = q_exact(s, 2, 1.0)
    est = q_montecarlo(s, 2, 1.0, 60_000, seed=17)
    assert est.n_samples == 60_000
    assert abs(est.value - exact) <= 4.0 * est.std_error + 1e-9
    with pytest.raises(ValueError):
        q_montecarlo(s, 2, 1.0, 50, seed=1)


def test_q_montecarlo_seed_determinism():
    s = random_surface(3, 6, seed=5)
    a = q_montecarlo(s, 2, 1.0, 5_000, seed=3)
    b = q_montecarlo(s, 2, 1.0, 5_000, seed=3)
    assert a == b


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("TRANSVERSAL_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv("TRANSVERSAL_WORKERS", "5")
    assert resolve_workers(None) == 5
    assert resolve_workers(2) == 2


def test_finner_identity_and_chain():
    surfaces = [random_surface(3, 4, seed=30 + k) for k in range(3)]
    cover = UniformCover(3, [(0, 1), (1, 2), (0, 2)], alphas=(0.5, 0.5, 0.5))
    report = finner_check(surfaces, cover, 2.0)
    det = report.details
    assert report.verdict == "pass"
    assert det["identity_ok"] and det["coarse_ok"] and det["classical_ok"]
    assert report.lhs <= det["rhs_coarse"] + 1e-9
    assert det["rhs_coarse"] <= det["classical"] * (1 + 1e-12)
    assert 0.0 < det["sup_rho"] <= 1.0


def test_finner_orthogonal_instance_rho_one():
    # orthogonal atoms: sup rho = 1, so the coarse bound equals the classical one
    s = make_axis_cross(3)
    report = finner_check(s, UniformCover.singletons(3), 1.0)
    assert report.verdict == "pass"
    assert report.details["sup_rho"] == pytest.approx(1.0, abs=1e-12)
    assert report.details["rhs_coarse"] == pytest.approx(report.details["classical"], rel=1e-12)
    # Q_3^1 of the unsigned cross: 3! permutation tuples of unit wedge
    assert report.lhs == pytest.approx(6.0 ** (1.0 / 3.0), rel=1e-12)


def test_finner_requires_weighted_cover():
    s = random_surface(3, 4, seed=1)
    with pytest.raises(ValueError):
        finner_check(s, UniformCover(3, [(0,), (1,), (2,)], s=1), 1.0)


CYCLE4 = UniformCover(4, [(0, 1), (1, 2), (2, 3), (3, 0)], alphas=(0.5,) * 4)


def _distinct_slots(s, j):
    """j slots with the atoms of s, as distinct objects: the ordered-product route."""
    return [s] + [copy.copy(s) for _ in range(j - 1)]


@given(
    d=st.integers(1, 4),
    m=st.integers(1, 7),
    j_frac=st.floats(0.0, 1.0),
    p=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**16),
)
def test_q_subset_route_matches_product_route(d, m, j_frac, p, seed):
    j = 1 + min(int(j_frac * d), d - 1)
    s = random_surface(d, m, seed)
    subset = q_exact([s] * j, j, p)
    product = q_exact(_distinct_slots(s, j), j, p)
    assert subset == pytest.approx(product, rel=1e-12, abs=0.0)


@given(m=st.integers(1, 7), p=st.floats(0.5, 4.0), seed=st.integers(0, 2**16))
def test_finner_injective_route_matches_product_route(m, p, seed):
    s = random_surface(4, m, seed)
    same = finner_check([s] * 4, CYCLE4, p).details
    distinct = finner_check(_distinct_slots(s, 4), CYCLE4, p).details
    for key in ("refinement", "sup_rho", "classical"):
        assert same[key] == pytest.approx(distinct[key], rel=1e-12, abs=0.0), key


@given(
    d=st.integers(1, 4),
    m=st.integers(1, 6),
    j_frac=st.floats(0.0, 1.0),
    p=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**16),
)
def test_q_invariant_under_atom_splitting(d, m, j_frac, p, seed):
    j = 1 + min(int(j_frac * d), d - 1)
    s = random_surface(d, m, seed)
    i = seed % m
    atoms = s.atoms
    w, v = atoms[i]
    split = DiscreteHypersurface(d, atoms[:i] + [(w / 2, v), (w / 2, v)] + atoms[i + 1 :])
    assert q_exact(split, j, p) == pytest.approx(q_exact(s, j, p), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "cover, m",
    [(CYCLE4, 2), (CYCLE4, 3), (UniformCover(3, [(0, 1), (1, 2), (0, 2)], alphas=(0.5,) * 3), 2)],
)
def test_finner_fewer_atoms_than_slots(cover, m):
    # no injective tuples: every tuple repeats an atom, so rho and Q vanish
    s = random_surface(4, m, seed=3)
    report = finner_check([s] * cover.j, cover, 1.5)
    assert report.details["sup_rho"] == 0.0
    assert report.details["refinement"] == 0.0
    assert report.lhs == 0.0


def test_i_p_frozen_values():
    assert i_p_uniform_closed_form(2, 2.0) == pytest.approx(0.5, abs=1e-14)
    assert i_p_uniform_closed_form(2, 4.0) == pytest.approx(0.375, abs=1e-14)
    assert i_p_uniform_closed_form(3, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_i_p_closed_form_matches_quadrature():
    for d in (2, 3, 4):
        for p in (0.5, 1.0, 1.5, 3.0, 6.0):
            assert i_p_uniform_closed_form(d, p) == pytest.approx(
                i_p_uniform_quadrature(d, p), rel=1e-9
            )


def test_i_p_requires_spherical_probability():
    bad_mass = make_axis_cross(2, weight_per_axis=1.0)
    with pytest.raises(ValueError):
        i_p(bad_mass, 1.0)
    bad_norm = DiscreteHypersurface(2, [(0.5, [2.0, 0.0]), (0.5, [0.0, 1.0])])
    with pytest.raises(ValueError):
        i_p(bad_norm, 1.0)


def test_i_p_four_point_cross_is_half_for_all_p():
    eye = np.eye(2)
    mu = DiscreteHypersurface(
        2, [(0.25, eye[0]), (0.25, -eye[0]), (0.25, eye[1]), (0.25, -eye[1])]
    )
    for p in (0.5, 2.0, 3.0, 4.0, 6.0):
        assert i_p(mu, p) == 0.5  # exact in floating point


def test_uniform_moments_frozen_and_quadrature():
    assert [uniform_moment_norm_sq(2, k) for k in (1, 2, 3, 4)] == pytest.approx(
        [1 / 2, 3 / 8, 5 / 16, 35 / 128], abs=1e-15
    )
    assert [uniform_moment_norm_sq(3, k) for k in (1, 2, 3, 4)] == pytest.approx(
        [1 / 3, 1 / 5, 1 / 7, 1 / 9], abs=1e-15
    )
    for d in (2, 3, 5):
        for k in (1, 2, 3):
            assert uniform_moment_norm_sq(d, k) == pytest.approx(
                uniform_moment_quadrature(d, k), rel=1e-9
            )


def test_moment_lower_bound_vs_uniform():
    # even moments are minimized by the uniform measure
    rng = np.random.default_rng(44)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        mu = random_surface(d, 6, int(rng.integers(0, 10_000)), unit=True, probability=True)
        for k in (1, 2, 3):
            assert moment_norm_sq(mu, k) >= uniform_moment_norm_sq(d, k) - 1e-12


def test_moment_axis_cross_matches_isotropy():
    mu = make_axis_cross(2, weight_per_axis=0.25, signed=True)
    assert moment_norm_sq(mu, 1) == pytest.approx(0.5, abs=1e-15)


def test_jp_bound_random_and_equality():
    mu = random_surface(3, 7, seed=3, unit=True, probability=True)
    report = jp_bound_check(mu, 2.5)
    assert report.verdict == "pass"
    assert report.rhs == pytest.approx(2.0 / 3.0)
    cross = make_axis_cross(4, weight_per_axis=1.0 / 8.0, signed=True)
    eq = jp_bound_check(cross, 3.0)
    assert eq.details["equality_certificate"] is True
    assert abs(eq.details["gap"]) <= 1e-12
    assert eq.verdict == "pass"


def test_jp_bound_requires_p_at_least_two():
    mu = make_axis_cross(2, weight_per_axis=0.25, signed=True)
    with pytest.raises(ValueError):
        jp_bound_check(mu, 1.5)
