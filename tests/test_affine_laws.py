"""The scaling and linear-map laws of the paper's quantities, checked far
from unit scale and on ill-conditioned maps.

For a linear map A: Q_j^p(As) = |det A|^{1/d} Q_j^p(s) when j = d,
|K^p(As)| = |K^p(s)| / |det A|, and the Lewis 2-position of As is isotropic.
A scalar map c I turns each quantity into a fixed power of c.  On a map with
cond A = c the mapped atoms carry about c * eps of round-off, so the
linear-map laws allow 100 c eps beyond each route's own error bar.
"""

import numpy as np
import pytest

from transversal.hypersurface import DiscreteHypersurface, random_surface
from transversal.lewis import isotropy_defect, lewis_p2_closed_form
from transversal.transversality import q_exact
from transversal.volumes import kp_volume
from transversal.zonotope import Ball, mixed_volume, projection_body, zonotope_volume

SCALES = (1e-13, 1e-8, 1e8, 1e13)


def _rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_kernels_follow_their_power_of_a_scalar_map():
    s = random_surface(3, 5, seed=0)
    d = s.d
    flat = DiscreteHypersurface(3, [(1.0, [1.0, 0.0, 0.0]), (0.5, [0.3, 1.0, 0.0])] * 2)
    kernels = [
        (lambda t: kp_volume(t, 1.0, "exact").value, -d),
        (lambda t: kp_volume(t, 2.0, "exact").value, -d),
        (lambda t: kp_volume(t, 1.5, "quadrature").value, -d),
        (lambda t: q_exact(t, d, 1.0), 1),
        (lambda t: q_exact(t, d, 2.0), 1),
        (lambda t: zonotope_volume(projection_body(t)), d),
        (lambda t: mixed_volume(Ball(d), d - 2, [projection_body(t)] * 2), 2),
        (lewis_p2_closed_form, -1),
    ]
    base = [f(s) for f, _ in kernels]
    for c in SCALES:
        cs = s.map(c * np.eye(d))
        assert cs.spans() and not flat.map(c * np.eye(d)).spans()
        for (f, power), b in zip(kernels, base):
            assert _rel(f(cs), np.asarray(b) * c**power) <= 1e-9, (c, power)


def _ill_conditioned_map(d, c, rng):
    Q1 = np.linalg.qr(rng.normal(size=(d, d)))[0]
    Q2 = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return Q1 @ np.diag(np.geomspace(1.0, c, d)) @ Q2


@pytest.mark.parametrize("d", [2, 3])
def test_kp_volume_and_p2_position_follow_ill_conditioned_maps(d):
    rng = np.random.default_rng(30 + d)
    eps = np.finfo(float).eps
    for _ in range(3):
        s = random_surface(d, int(rng.integers(d + 1, 7)), int(rng.integers(0, 10**6)))
        base = {p: kp_volume(s, p) for p in (1.5, 3.0)}
        for c in (1e2, 1e4, 1e6, 1e8):
            A = _ill_conditioned_map(d, c, rng)
            det = abs(np.linalg.det(A))
            t = s.map(A)
            for p, b in base.items():
                v = kp_volume(t, p)
                bars = 4.0 * (v.std_error * det + b.std_error)
                assert abs(v.value * det - b.value) <= bars + 100.0 * c * eps * b.value, (c, p)
            defect = isotropy_defect(t, lewis_p2_closed_form(t), 2.0).defect
            assert defect <= 1e-9 + 100.0 * c * eps, c
