import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transversal.constants import ConstantsCatalog, ball_volume
from transversal.hypersurface import (
    DiscreteHypersurface,
    make_axis_cross,
    make_sheared_cube,
    random_surface,
)
from transversal.transversality import DEFAULT_BUDGET, q_exact
from transversal.volumes import (
    EllipsoidBody,
    _quadrature_count,
    covariance,
    kp_norm,
    kp_volume,
    polar_zonotope_volume,
    santalo_check,
    sigma2_plane,
    vis_p,
)
from transversal.zonotope import Zonotope, projection_body

from oracles import sigma2_plane_direct


def test_ellipsoid_body_validation_and_volume():
    with pytest.raises(ValueError):
        EllipsoidBody(np.array([[1.0, 0.2], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        EllipsoidBody(np.diag([1.0, -2.0]))  # not PD
    ball = EllipsoidBody(np.eye(3))
    assert ball.volume() == pytest.approx(4.0 * math.pi / 3.0)
    e = EllipsoidBody(np.diag([4.0, 1.0]))  # semi-axes 1/2 and 1
    assert e.volume() == pytest.approx(math.pi / 2.0)
    assert e.support(np.array([1.0, 0.0])) == pytest.approx(0.5)


def test_ellipsoid_shadow_and_section():
    e = EllipsoidBody(np.diag([4.0, 1.0, 0.25]))  # semi-axes 1/2, 1, 2
    f1 = np.eye(3)[:1]
    assert e.shadow_volume(f1) == pytest.approx(2.0 * 0.5)  # interval [-1/2, 1/2]
    assert e.section_volume(f1) == pytest.approx(2.0 * 0.5)
    f12 = np.eye(3)[:2]
    assert e.shadow_volume(f12) == pytest.approx(math.pi * 0.5 * 1.0)
    assert e.section_volume(f12) == pytest.approx(math.pi * 0.5 * 1.0)


def test_covariance_identity_with_q():
    rng = np.random.default_rng(12)
    for _ in range(8):
        d = int(rng.integers(2, 5))
        s = random_surface(d, 6, int(rng.integers(0, 10_000)))
        T = covariance(s).T
        lhs = math.factorial(d) * float(np.linalg.det(T))
        rhs = q_exact(s, d, 2.0) ** (2 * d)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_covariance_rejects_nonspanning():
    s = DiscreteHypersurface(3, [(1.0, [1.0, 0.0, 0.0]), (1.0, [0.0, 1.0, 0.0])])
    with pytest.raises(ValueError):
        covariance(s)


def _exact_covariance_det(s):
    """det T of T = sum_i w_i v_i v_i^T in exact rational arithmetic on the
    float inputs."""
    w = [Fraction(x) for x in s.weights.tolist()]
    V = [[Fraction(x) for x in v] for v in s.vectors.tolist()]
    T = [[sum(wi * v[a] * v[b] for wi, v in zip(w, V)) for b in range(s.d)] for a in range(s.d)]
    det = Fraction(1)
    for c in range(s.d):
        piv = next(r for r in range(c, s.d) if T[r][c] != 0)
        if piv != c:
            T[c], T[piv] = T[piv], T[c]
            det = -det
        det *= T[c][c]
        for r in range(c + 1, s.d):
            f = T[r][c] / T[c][c]
            T[r] = [x - f * y for x, y in zip(T[r], T[c])]
    return det


@pytest.mark.parametrize(
    "d, m, seed",
    [(3, 3, 452631), (3, 3, 3), (2, 4, 11), (3, 6, 12), (4, 5, 13)],
)
def test_exact_p2_volume_matches_the_rational_determinant(d, m, seed):
    # |K^2| = omega_d (det T)^(-1/2); at seed 452631 cond T = 3.4e6, where an
    # LU determinant of T is off by 2.5e-11 relative
    s = random_surface(d, m, seed)
    expected = ball_volume(d) / math.sqrt(float(_exact_covariance_det(s)))
    est = kp_volume(s, 2.0, "exact")
    assert est.method == "exact" and est.std_error == 0.0
    assert abs(est.value - expected) <= 1e-13 * expected


def test_exact_p2_volume_refuses_a_nonspanning_surface():
    flat = DiscreteHypersurface(3, [(1.0, [1.0, 0, 0]), (1.0, [0, 1.0, 0]), (1.0, [1.0, 1.0, 0])])
    with pytest.raises(ValueError, match="span"):
        kp_volume(flat, 2.0, "exact")


def test_kp_norm_basics():
    s = make_axis_cross(2)
    assert kp_norm(s, 2.0, np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert kp_norm(s, 1.0, np.array([1.0, 1.0])) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        kp_norm(s, 0.5, np.array([1.0, 0.0]))


def test_polar_zonotope_square_gives_cross_polytope():
    z = projection_body(make_axis_cross(2))  # [-1,1]^2
    assert polar_zonotope_volume(z) == pytest.approx(2.0, rel=1e-12)


def test_polar_zonotope_guards():
    with pytest.raises(ValueError):
        polar_zonotope_volume(Zonotope(5, np.eye(5)))  # d > 4
    with pytest.raises(ValueError):
        polar_zonotope_volume(Zonotope(2, np.ones((9, 2))))  # too many generators
    with pytest.raises(ValueError):
        polar_zonotope_volume(Zonotope(2, np.array([[1.0, 0.0]])))  # rank deficient


def test_kp_volume_p2_exact():
    s = random_surface(3, 6, seed=9)
    T = covariance(s).T
    est = kp_volume(s, 2.0)
    assert est.method == "exact" and est.std_error == 0.0
    assert est.value == pytest.approx(ball_volume(3) / math.sqrt(float(np.linalg.det(T))))


def test_kp_volume_p1_exact_vs_mc():
    s = random_surface(3, 5, seed=4)
    exact = kp_volume(s, 1.0)
    assert exact.method == "exact"
    mc = kp_volume(s, 1.0, "radial_mc", n_samples=200_000, seed=11)
    assert abs(mc.value - exact.value) <= 4.0 * mc.std_error


def test_kp_volume_l4_ball_matches_closed_form():
    # atoms e1, e2 with unit weights make the p-norm the plain l_p norm
    s = make_axis_cross(2)
    closed = ConstantsCatalog.lp_ball_volume(2, 4.0)
    assert closed == pytest.approx(3.7081493546027438, abs=1e-12)
    mc = kp_volume(s, 4.0, "radial_mc", n_samples=400_000, seed=2)
    assert abs(mc.value - closed) <= 4.0 * mc.std_error


def test_kp_volume_method_validation():
    s = make_axis_cross(2)
    with pytest.raises(ValueError):
        kp_volume(s, 0.8)
    with pytest.raises(ValueError):
        kp_volume(s, 1.5, "exact")
    with pytest.raises(ValueError):
        kp_volume(s, 1.5, "no-such-method")


def test_vis_p_delta_error():
    s = random_surface(2, 5, seed=6)
    est = vis_p(s, 1.5, "radial_mc", n_samples=50_000, seed=3)
    vol = kp_volume(s, 1.5, "radial_mc", n_samples=50_000, seed=3)
    assert (est.method, est.n_samples) == ("radial_mc", 50_000)
    assert est.value == pytest.approx(vol.value ** (-1.0 / 2.0), rel=1e-12)
    expected_se = est.value * vol.std_error / (2.0 * vol.value)
    assert est.std_error == pytest.approx(expected_se, rel=1e-12)


def test_santalo_equality_on_sheared_cubes():
    for d, seed in ((2, 0), (3, 1), (4, 2)):
        s = make_sheared_cube(d, seed=seed)
        report = santalo_check(s)
        assert report.details["volume_method"] == "exact"
        assert report.details["equality_case"] is True
        assert report.verdict == "pass"
        assert abs(report.details["equality_gap"]) <= 1e-9 * max(1.0, report.rhs)


def test_santalo_strict_on_random_instances():
    report = santalo_check(random_surface(3, 6, seed=8))
    assert report.verdict == "pass"
    assert report.lhs < report.rhs


def test_sigma2_dual_routes_agree():
    rng = np.random.default_rng(77)
    for _ in range(8):
        d = int(rng.integers(2, 5))
        s = random_surface(d, 6, int(rng.integers(0, 1000)))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        k = int(rng.integers(1, d + 1))
        F = q[:, :k].T
        assert sigma2_plane(s, F) == pytest.approx(sigma2_plane_direct(s, F), rel=1e-10)


# -- quadrature route ---------------------------------------------------------------


def _quadrature_instances(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 4))
        yield random_surface(d, int(rng.integers(d, 10)), int(rng.integers(0, 10_000)))


def test_quadrature_matches_exact_routes():
    checked = 0
    for s in _quadrature_instances(48, seed=901):
        for p in (1.0, 2.0):
            if p == 1.0 and s.m > 8:
                continue
            exact = kp_volume(s, p, "exact")
            quad = kp_volume(s, p, "quadrature")
            assert quad.method == "quadrature" and quad.n_samples == 0
            assert quad.std_error > 0.0
            assert quad.value == pytest.approx(exact.value, rel=1e-12, abs=0.0), (s.d, s.m, p)
            checked += 1
    assert checked >= 80


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_quadrature_axis_cross_is_the_lp_ball(d, p):
    quad = kp_volume(make_axis_cross(d), p, "quadrature")
    assert abs(quad.value - ConstantsCatalog.lp_ball_volume(d, p)) <= quad.std_error


def test_quadrature_agrees_with_radial_mc():
    for i, s in enumerate(_quadrature_instances(8, seed=902)):
        p = (1.5, 3.0)[i % 2]
        quad = kp_volume(s, p, "quadrature")
        mc = kp_volume(s, p, "radial_mc", n_samples=200_000, seed=i)
        assert abs(mc.value - quad.value) <= 4.0 * mc.std_error


def test_quadrature_ignores_samples_and_seed():
    s = random_surface(3, 6, seed=5)
    a = kp_volume(s, 1.5, n_samples=100, seed=1)
    b = kp_volume(s, 1.5, "quadrature", n_samples=10**6, seed=2)
    assert a == b and a.method == "quadrature"


def _within_bars(a, b):
    return abs(a.value - b.value) <= a.std_error + b.std_error


@given(
    d=st.integers(2, 3),
    m=st.integers(3, 8),
    p=st.floats(1.0, 4.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30)
def test_quadrature_orthogonal_invariance(d, m, p, seed):
    s = random_surface(d, m, seed)
    R = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))[0]
    assert _within_bars(kp_volume(s, p, "quadrature"), kp_volume(s.map(R), p, "quadrature"))


@given(
    d=st.integers(2, 3),
    m=st.integers(3, 8),
    p=st.floats(1.0, 4.0),
    c=st.floats(0.2, 5.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30)
def test_quadrature_homogeneity(d, m, p, c, seed):
    s = random_surface(d, m, seed)
    a = kp_volume(s, p, "quadrature")
    b = kp_volume(s.map(c * np.eye(d)), p, "quadrature")
    assert abs(b.value - c ** (-d) * a.value) <= b.std_error + c ** (-d) * a.std_error


@given(
    d=st.integers(2, 3),
    m=st.integers(3, 8),
    p=st.floats(1.0, 4.0),
    split=st.floats(0.05, 0.95),
    stretch=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30)
def test_quadrature_atom_splitting(d, m, p, split, stretch, seed):
    # (w, v) -> (split w, v) + ((1 - split) w / stretch^p, stretch v): same norm
    s = random_surface(d, m, seed)
    atoms = list(zip(s.weights, s.vectors))
    w, v = atoms.pop(seed % m)
    atoms += [(split * w, v), ((1.0 - split) * w / stretch**p, stretch * v)]
    t = DiscreteHypersurface(d, atoms)
    assert _within_bars(kp_volume(s, p, "quadrature"), kp_volume(t, p, "quadrature"))


def test_auto_takes_quadrature_within_the_budget_and_mc_above():
    assert kp_volume(random_surface(3, 9, seed=1), 1.5).method == "quadrature"
    assert kp_volume(random_surface(3, 9, seed=1), 1.0).method == "quadrature"  # m > 8
    assert kp_volume(random_surface(2, 40, seed=1), 3.0).method == "quadrature"
    # d = 3, m = 12: (C(12, 2) + 8) * 32 * 13 * 32 * 12 node-atom pairs, over 10^7
    over = random_surface(3, 12, seed=1)
    assert _quadrature_count(3, 12) > DEFAULT_BUDGET >= _quadrature_count(3, 11)
    est = kp_volume(over, 1.5, n_samples=1_000, seed=3)
    assert est.method == "radial_mc" and est.n_samples == 1_000
    assert kp_volume(random_surface(4, 6, seed=1), 1.5, n_samples=1_000).method == "radial_mc"


def test_explicit_quadrature_refuses_d4_and_over_budget():
    with pytest.raises(ValueError, match="d = 2 and 3"):
        kp_volume(random_surface(4, 6, seed=1), 1.5, "quadrature")
    with pytest.raises(ValueError, match="over the budget"):
        kp_volume(random_surface(3, 12, seed=1), 1.5, "quadrature")
    with pytest.raises(ValueError, match="span"):
        flat = DiscreteHypersurface(3, [(1.0, [1.0, 0, 0]), (1.0, [0, 1.0, 0])] * 2)
        kp_volume(flat, 1.5, "quadrature")


def test_santalo_keeps_radial_mc_above_the_polar_limit():
    report = santalo_check(random_surface(2, 9, seed=3), n_samples=20_000)
    assert report.details["volume_method"] == "radial_mc"
