import math

import pytest

from transversal.constants import ball_volume

from oracles import ConstantsCatalog, ball_volume_loggamma


def test_ball_volume_frozen_values():
    assert ball_volume(0) == 1.0
    assert ball_volume(1) == 2.0
    assert ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-15)
    assert ball_volume(4) == pytest.approx(math.pi**2 / 2.0, abs=1e-15)


def test_ball_volume_two_routes_agree():
    for m in range(0, 12):
        assert ball_volume(m) == pytest.approx(ball_volume_loggamma(m), rel=1e-14)


def test_catalog_self_check_is_tight():
    assert ConstantsCatalog.self_check() <= 1e-12


def test_b_d_and_c_d_frozen():
    # full split into singletons
    assert ConstantsCatalog.b_d(2, [1, 1]) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert ConstantsCatalog.c_d(2, [1, 1]) == pytest.approx(
        (1.0 / (2.0 * math.sqrt(2.0))) * math.sqrt(2.0), abs=1e-15
    )
    assert ConstantsCatalog.reverse_lw(3, [1, 1, 1]) == pytest.approx(3.0**1.5, abs=1e-12)


def test_c_dp_sharp_frozen():
    # Gamma(3/2)^2 / (sqrt(pi) Gamma(5/2)) = 1/3
    assert ConstantsCatalog.c_dp_sharp(3, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_lp_ball_volume_frozen():
    assert ConstantsCatalog.lp_ball_volume(2, 4.0) == pytest.approx(
        3.7081493546027438, abs=1e-12
    )
    for d in (2, 3, 4):
        assert ConstantsCatalog.lp_ball_volume(d, 2.0) == pytest.approx(
            ball_volume(d), rel=1e-14
        )
    assert ConstantsCatalog.lp_ball_volume(2, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert ConstantsCatalog.lp_ball_volume(3, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_c0_relates_to_lp_ball_volume():
    for d in (2, 3, 4):
        for p in (1.0, 1.5, 2.0, 3.0):
            expected = ConstantsCatalog.lp_ball_volume(d, p) ** (-1.0 / d) / d ** (1.0 / p)
            assert ConstantsCatalog.c0(d, p) == pytest.approx(expected, rel=1e-12)


def test_q_bezout_positive_and_stable():
    val = ConstantsCatalog.q_bezout(3, 2, [1, 1], 1)
    assert val > 0.0
    assert val == pytest.approx(ConstantsCatalog.q_bezout_alt(3, 2, [1, 1], 1), rel=1e-13)


def test_ellipsoid_constants_partition_weights():
    # partition: C and c collapse to ratios of ball volumes
    C = ConstantsCatalog.big_c_ell(4, [2, 2], [1.0, 1.0])
    assert C == pytest.approx(ball_volume(4) / ball_volume(2) ** 2, rel=1e-14)
    c = ConstantsCatalog.c_ell(4, [2, 2], [1.0, 1.0])
    expected = (ball_volume(4) / 4.0**2) * (2.0**1 / ball_volume(2)) ** 2
    assert c == pytest.approx(expected, rel=1e-14)
