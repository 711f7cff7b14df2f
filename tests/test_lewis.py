import math

import numpy as np
import pytest

from transversal.hypersurface import DiscreteHypersurface, make_axis_cross, random_surface
from transversal.lewis import (
    det_u_lower_bound,
    isotropy_defect,
    lewis_p2_closed_form,
    lewis_solve,
)
from transversal.transversality import q_exact


def test_p2_matches_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        s = random_surface(d, 7, int(rng.integers(0, 10_000)))
        res = lewis_solve(s, 2.0)
        closed = lewis_p2_closed_form(s)
        assert res.converged
        assert np.max(np.abs(res.u - closed)) <= 1e-8 * max(1.0, float(np.max(np.abs(closed))))


def test_p2_closed_form_is_isotropic_when_t_is_ill_conditioned():
    # cond T = 3.4e6: eigenvalues of d T itself left a defect of 3e-10
    s = random_surface(3, 3, 452631)
    assert isotropy_defect(s, lewis_p2_closed_form(s), 2.0).defect <= 1e-11
    flat = DiscreteHypersurface(3, [(1.0, [1.0, 0.0, 0.0]), (2.0, [1.0, 1.0, 0.0])] * 2)
    with pytest.raises(ValueError):
        lewis_p2_closed_form(flat)


def test_defect_small_for_various_p():
    rng = np.random.default_rng(3)
    for p in (1.0, 1.5, 3.0):
        for _ in range(5):
            d = int(rng.integers(2, 4))
            s = random_surface(d, 6, int(rng.integers(0, 10_000)))
            res = lewis_solve(s, p)
            assert res.converged, f"p={p} failed to converge"
            assert res.iterations <= 500
            assert res.defect <= 1e-9
            assert abs(res.normalization_residual) <= 1e-9
            # returned defect agrees with a fresh evaluation
            again = isotropy_defect(s, res.u, p)
            assert again.defect == pytest.approx(res.defect, abs=1e-12)


def test_solution_is_spd():
    s = random_surface(3, 6, seed=77)
    res = lewis_solve(s, 1.5)
    assert np.allclose(res.u, res.u.T, atol=1e-12)
    assert np.linalg.eigvalsh(res.u)[0] > 0.0


def test_requires_spanning_atoms():
    s = DiscreteHypersurface(3, [(1.0, [1.0, 0.0, 0.0]), (1.0, [0.0, 1.0, 0.0])])
    with pytest.raises(ValueError):
        lewis_solve(s, 2.0)


def test_p_below_two_rejects_zero_vectors():
    s = DiscreteHypersurface(
        2, [(1.0, [0.0, 0.0]), (1.0, [1.0, 0.0]), (1.0, [0.0, 1.0]), (1.0, [1.0, 1.0])]
    )
    with pytest.raises(ValueError):
        lewis_solve(s, 1.5)


def test_p_below_one_rejected():
    s = random_surface(2, 4, seed=0)
    with pytest.raises(ValueError):
        lewis_solve(s, 0.9)


def test_det_bound_corrected_exponent_holds():
    rng = np.random.default_rng(8)
    for p in (1.0, 1.5, 3.0):
        for _ in range(5):
            d = int(rng.integers(2, 4))
            s = random_surface(d, 6, int(rng.integers(0, 10_000)))
            res = lewis_solve(s, p)
            q = q_exact(s, d, p)
            bound = det_u_lower_bound(d, p, q)
            assert float(np.linalg.det(res.u)) >= bound * (1.0 - 1e-8)


def test_det_bound_square_root_exponent_fails_below_p2():
    # For the unsigned axis cross at p = 1: u = I/2, det u = 1/4, Q = sqrt(2).
    # The square-root-exponent reading demands det u >= sqrt(d!/d^d) Q^{-d}
    # = sqrt(1/2)/2 ~ 0.354, which 1/4 violates; the exponent-1/p form
    # gives exactly 1/4 (tight).
    s = make_axis_cross(2)
    res = lewis_solve(s, 1.0)
    assert np.allclose(res.u, np.eye(2) / 2.0, atol=1e-9)
    det_u = float(np.linalg.det(res.u))
    q = q_exact(s, 2, 1.0)
    printed = math.sqrt(math.factorial(2) / 2**2) * q ** (-2.0)
    corrected = det_u_lower_bound(2, 1.0, q)
    assert det_u < printed - 1e-3
    assert det_u == pytest.approx(corrected, rel=1e-9)


def test_det_bound_exponents_coincide_above_p2():
    q = 1.7
    assert det_u_lower_bound(3, 2.0, q) == det_u_lower_bound(3, 4.0, q)


def test_gauge_uniqueness_across_starts():
    # the SPD gauge makes the solver output independent of atom ordering
    s = random_surface(3, 6, seed=55)
    perm = np.random.default_rng(1).permutation(6)
    s_perm = DiscreteHypersurface(3, [(s.weights[i], s.vectors[i]) for i in perm])
    a = lewis_solve(s, 1.5)
    b = lewis_solve(s_perm, 1.5)
    assert np.max(np.abs(a.u - b.u)) <= 1e-7
