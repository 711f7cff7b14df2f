import math

import numpy as np
import pytest

from transversal.constants import ball_volume
from transversal.hypersurface import (
    DiscreteHypersurface,
    UniformCover,
    make_axis_cross,
    random_surface,
)
from transversal.transversality import q_exact
from transversal.zonotope import (
    Ball,
    Zonotope,
    bezout_check,
    mixed_volume,
    project_zonotope,
    projection_body,
    sigma_plane,
    sigma_plane_direct,
    zonotope_volume,
)

from oracles import cross3, mc_ball_plus_segment_volume, mixed_volume_oracle, zonogon_area


def test_cube_volume():
    for d in (2, 3, 4):
        z = projection_body(make_axis_cross(d))
        assert zonotope_volume(z) == pytest.approx(2.0**d, abs=1e-12)


def test_zonotope_volume_matches_zonogon_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        G = rng.normal(size=(5, 2))
        z = Zonotope(2, G)
        assert zonotope_volume(z) == pytest.approx(zonogon_area(G), rel=1e-10)


def test_rank_deficient_zonotope_has_zero_volume():
    z = Zonotope(3, np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    assert zonotope_volume(z) == 0.0
    assert z.rank() == 1


def test_zonotope_volume_budget():
    z = Zonotope(3, np.ones((40, 3)) + np.arange(120).reshape(40, 3))
    with pytest.raises(ValueError):
        zonotope_volume(z, budget=100)


def test_mixed_volume_of_body_alone_honours_budget():
    z = Zonotope(3, np.ones((40, 3)) + np.arange(120).reshape(40, 3))
    with pytest.raises(ValueError):
        mixed_volume(z, 3, [], budget=100)
    assert mixed_volume(z, 3, []) == zonotope_volume(z)


def test_projection_body_generators():
    s = DiscreteHypersurface(2, [(2.0, [1.0, 0.0]), (0.5, [0.0, 1.0])])
    z = projection_body(s)
    assert np.allclose(z.generators, [[2.0, 0.0], [0.0, 0.5]])


def test_project_zonotope_and_frame_validation():
    z = projection_body(make_axis_cross(3))
    F = np.eye(3)[:2]
    pz = project_zonotope(z, F)
    assert pz.d == 2
    assert zonotope_volume(pz) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        project_zonotope(z, np.array([[1.0, 1.0, 0.0]]))  # not orthonormal


def test_sigma_plane_dual_routes_agree():
    rng = np.random.default_rng(31)
    for _ in range(8):
        s = random_surface(4, 5, int(rng.integers(0, 1000)))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        k = int(rng.integers(1, 4))
        F = q[:, :k].T
        direct = sigma_plane_direct(s, F)
        assert sigma_plane(s, F) == pytest.approx(direct, rel=1e-10)


def test_mixed_volume_ball_segment_exact():
    # V(B^2, [0, e1]) = |e1| * omega_1 / (1! * C(2,1)) = 2/2 = 1, exactly
    assert mixed_volume(Ball(2), 1, [np.array([1.0, 0.0])]) == 1.0


def test_mixed_volume_ball_two_segments_cross_product():
    rng = np.random.default_rng(6)
    for _ in range(5):
        u, v = rng.normal(size=(2, 3))
        expected = float(np.linalg.norm(cross3(u, v))) / 3.0
        got = mixed_volume(Ball(3), 1, [u, v])
        assert got == pytest.approx(expected, rel=1e-12)


def test_mixed_volume_zonotope_entry_doubles():
    g = np.array([0.7, 0.0])
    seg = mixed_volume(Ball(2), 1, [g])
    zon = mixed_volume(Ball(2), 1, [Zonotope(2, g[None, :])])
    assert zon == pytest.approx(2.0 * seg, rel=1e-14)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("body_kind", ["ball", "zonotope"])
def test_mixed_volume_matches_per_tuple_oracle(body_kind, k):
    rng = np.random.default_rng(17 + k)
    d = 4
    g = rng.normal(size=d)
    # entry 0 holds g and entry 1 holds 2g: that tuple has dependent
    # directions, which the rank rule skips
    entries = [
        np.vstack([g, rng.normal(size=(3, d))]),
        np.vstack([2.0 * g, rng.normal(size=(2, d))]),
        rng.normal(size=d),
        rng.normal(size=(2, d)),
    ][:k]
    body_gens = None if body_kind == "ball" else rng.normal(size=(6, d))
    body = Ball(d) if body_gens is None else Zonotope(d, body_gens)
    args = [Zonotope(d, e) if e.ndim == 2 else e for e in entries]
    got = mixed_volume(body, d - k, args)
    assert got > 0.0
    assert got == pytest.approx(mixed_volume_oracle(d, entries, body_gens), rel=1e-12)


def test_mixed_volume_k_equals_zero_is_volume():
    assert mixed_volume(Ball(3), 3, []) == pytest.approx(ball_volume(3))
    z = projection_body(make_axis_cross(2))
    assert mixed_volume(z, 2, []) == pytest.approx(4.0)


def test_mixed_volume_multiplicity_must_match():
    with pytest.raises(ValueError):
        mixed_volume(Ball(3), 1, [np.ones(3), np.ones(3), np.ones(3)])
    with pytest.raises(ValueError):
        mixed_volume(Ball(2), 2, [np.ones(2)])


def test_mixed_volume_degenerate_tuple_contributes_zero():
    u = np.array([1.0, 0.0, 0.0])
    assert mixed_volume(Ball(3), 1, [u, 2.0 * u]) == 0.0
    # the LU determinant of Gram(v, 1.7 v) is round-off of about 1e-16 times
    # the Hadamard bound, which the RANK_TOL rule alone would keep
    v = np.array([0.3, -1.1, 0.7])
    assert mixed_volume(Ball(3), 1, [v, 1.7 * v]) == 0.0
    # as a Zonotope entry, only the tuple (w, 1.7 v) contributes
    w = np.array([0.2, 0.9, -0.4])
    z = Zonotope(3, np.vstack([v, w]))
    assert mixed_volume(Ball(3), 1, [z, 1.7 * v]) == pytest.approx(
        2.0 * mixed_volume(Ball(3), 1, [w, 1.7 * v]), rel=1e-14
    )
    assert mixed_volume(Zonotope(3, np.eye(3)), 1, [Zonotope(3, [v]), 1.7 * v]) == 0.0


def test_mixed_volume_full_dimension_parallelepiped():
    # k = d: V(S_1, ..., S_d) = |det| / d!
    W = np.array([[1.0, 0.0], [1.0, 1.0]])
    got = mixed_volume(Ball(2), 0, [W[0], W[1]])
    assert got == pytest.approx(1.0 / 2.0, rel=1e-14)


def test_mixed_volume_against_mc_minkowski_sum():
    # Steiner cross-check: vol(B^3 + [0,w]) - vol(B^3) = 3 * V(B[2], S_w)
    w = np.array([0.8, 0.3, -0.4])
    exact_mix = mixed_volume(Ball(3), 2, [w])
    vol, se = mc_ball_plus_segment_volume(3, w, 150_000, seed=99)
    assert abs((vol - ball_volume(3)) - 3.0 * exact_mix) <= 4.0 * se


def test_bezout_random_instances_pass():
    rng = np.random.default_rng(70)
    for _ in range(5):
        zs = [Zonotope(3, rng.normal(size=(3, 3))) for _ in range(2)]
        cover = UniformCover(2, [(0,), (1,)], s=1)
        report = bezout_check(Ball(3), zs, cover)
        assert report.verdict == "pass"
        assert report.lhs <= report.rhs * (1 + 1e-9)
        q_form = report.details["q_form"]
        assert q_form["holds"]
        # the derived Q against an independent tuple enumeration
        gens = [DiscreteHypersurface(3, [(1.0, g) for g in z.generators]) for z in zs]
        assert q_form["lhs"] == pytest.approx(q_exact(gens, 2, 1.0), rel=1e-12)


def test_bezout_overlapping_counting_cover():
    rng = np.random.default_rng(71)
    zs = [Zonotope(3, rng.normal(size=(3, 3))) for _ in range(2)]
    cover = UniformCover(2, [(0,), (1,), (0, 1)], s=2)
    report = bezout_check(Ball(3), zs, cover)
    assert report.details["r"] == 3 and report.details["s"] == 2
    assert report.verdict == "pass"


def test_bezout_requires_counting_cover():
    zs = [Zonotope(3, np.eye(3)) for _ in range(2)]
    with pytest.raises(ValueError):
        bezout_check(Ball(3), zs, UniformCover(2, [(0,), (1,)], alphas=(1.0, 1.0)))


def test_ball_and_zonotope_reprs():
    assert Ball(3).volume() == pytest.approx(4.0 * math.pi / 3.0)
    z = Zonotope(2, np.eye(2))
    assert z.m == 2 and z.d == 2
    assert z.support(np.array([1.0, 1.0])) == pytest.approx(2.0)
