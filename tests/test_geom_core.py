import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transversal.geom_core import (
    local_identity_residual,
    rho_factor,
    unit_directions,
    wedge_norm,
)
from transversal.hypersurface import UniformCover

from oracles import rho_oracle, wedge_norm_oracle


def test_wedge_norm_orthonormal_rows_is_one():
    assert wedge_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)
    assert wedge_norm(np.eye(4)[:2]) == pytest.approx(1.0, abs=1e-14)


def test_wedge_norm_parallelogram():
    assert wedge_norm(np.array([[2.0, 0.0], [1.0, 1.0]])) == pytest.approx(2.0, abs=1e-12)


def test_wedge_norm_single_vector_is_length():
    assert wedge_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0, abs=1e-12)


def test_wedge_norm_rejects_too_many_vectors():
    with pytest.raises(ValueError):
        wedge_norm(np.ones((3, 2)))


def test_wedge_norm_matches_cofactor_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        j = int(rng.integers(1, d + 1))
        V = rng.normal(size=(j, d))
        assert wedge_norm(V) == pytest.approx(wedge_norm_oracle(V), rel=1e-10, abs=1e-12)


def test_unit_directions_zero_vector_falls_back_to_e1():
    U = unit_directions(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert np.allclose(U[0], [1.0, 0.0])
    assert np.allclose(U[1], [0.6, 0.8])


def test_rho_45_degree_pair():
    t = np.array([[1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)]])
    cover = UniformCover.singletons(2)
    # rho = sqrt(det Gram) = |sin 45 deg|
    assert rho_factor(t, cover) == pytest.approx(0.7071067811865476, abs=1e-13)


def test_rho_orthogonal_blocks_is_one():
    t = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 0.5]])
    cover = UniformCover(3, [(0, 1), (1, 2), (0, 2)], alphas=(0.5, 0.5, 0.5))
    assert rho_factor(t, cover) == pytest.approx(1.0, abs=1e-13)


def test_rho_scale_invariance():
    rng = np.random.default_rng(11)
    V = rng.normal(size=(3, 4))
    cover = UniformCover(3, [(0, 1), (2,)], alphas=(1.0, 1.0))
    scaled = V * np.array([[3.0], [0.25], [7.0]])
    assert rho_factor(scaled, cover) == pytest.approx(rho_factor(V, cover), rel=1e-12)


def test_rho_degenerate_block_flags_and_zeroes():
    t = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    cover = UniformCover(3, [(0, 1), (2,)], alphas=(1.0, 1.0))
    rho, flag = rho_factor(t, cover, with_flag=True)
    assert rho == 0.0
    assert flag is True
    # both sides of the local identity vanish together
    assert local_identity_residual(t, cover, 2.0) == 0.0


def test_rho_requires_weighted_cover():
    t = np.eye(2)
    with pytest.raises(ValueError):
        rho_factor(t, UniformCover(2, [(0,), (1,)], s=1))
    with pytest.raises(ValueError):
        rho_factor(t, UniformCover(3, [(0, 1), (2,)], alphas=(1.0, 1.0)))  # wrong ground


def _random_weighted_cover(j, rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return UniformCover.singletons(j)
    if kind == 1:
        return UniformCover(j, [tuple(range(j))], alphas=(1.0,))
    if kind == 2 and j >= 3:
        sets = [tuple(k for k in range(j) if k != i) for i in range(j)]
        return UniformCover(j, sets, alphas=(1.0 / (j - 1),) * j)
    beta = float(rng.uniform(0.2, 0.8))
    sets = [(i,) for i in range(j)] + [tuple(range(j))]
    return UniformCover(j, sets, alphas=(beta,) * j + (1.0 - beta,))


def test_rho_matches_cofactor_oracle():
    rng = np.random.default_rng(31)
    for trial in range(300):
        d = int(rng.integers(2, 5))
        j = int(rng.integers(2, d + 1))
        V = rng.normal(size=(j, d))
        if trial % 4 == 1:
            V[1] = -1.7 * V[0]  # dependent pair
        elif trial % 4 == 2 and j >= 3:
            V[2] = 0.4 * V[0] - 2.0 * V[1]  # dependent triple, independent pairs
        cover = _random_weighted_cover(j, rng)
        expect = rho_oracle(V, cover.sets, cover.alphas)
        assert rho_factor(V, cover) == pytest.approx(expect, abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_rho_in_unit_interval_and_identity(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    j = int(rng.integers(2, d + 1))
    V = rng.normal(size=(j, d))
    cover = _random_weighted_cover(j, rng)
    rho = rho_factor(V, cover)
    assert 0.0 <= rho <= 1.0
    for p in (0.5, 1.0, 2.0, 3.0):
        assert local_identity_residual(V, cover, p) <= 1e-10


def test_local_identity_rejects_nonpositive_p():
    with pytest.raises(ValueError):
        local_identity_residual(np.eye(2), UniformCover.singletons(2), 0.0)
