import json
import math
import os

import numpy as np
import pytest

from transversal.hypersurface import (
    DiscreteHypersurface,
    UniformCover,
    load_surface,
    make_axis_cross,
    make_sheared_cube,
    random_surface,
    sample_sphere_uniform,
    save_surface,
    surface_from_dict,
    validate_cover,
)


def test_constructor_validation():
    with pytest.raises(ValueError):
        DiscreteHypersurface(2, [])
    with pytest.raises(ValueError):
        DiscreteHypersurface(2, [(0.0, [1.0, 0.0])])  # nonpositive weight
    with pytest.raises(ValueError):
        DiscreteHypersurface(2, [(-1.0, [1.0, 0.0])])
    with pytest.raises(ValueError):
        DiscreteHypersurface(2, [(1.0, [1.0, 0.0, 0.0])])  # wrong length
    with pytest.raises(ValueError):
        DiscreteHypersurface(2, [(1.0, [math.nan, 0.0])])
    with pytest.raises(ValueError):
        DiscreteHypersurface(2, [(math.inf, [1.0, 0.0])])


def test_basic_properties():
    s = make_axis_cross(3, weight_per_axis=0.5)
    assert s.m == 3
    assert s.total_mass == pytest.approx(1.5)
    assert s.has_unit_vectors()
    assert not s.is_probability()
    assert s.spans()
    assert not DiscreteHypersurface(2, [(1.0, [1.0, 0.0])]).spans()


def test_map_applies_linear_image():
    s = make_axis_cross(2)
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    t = s.map(A)
    assert np.allclose(t.vectors, s.vectors @ A.T)
    assert np.array_equal(t.weights, s.weights)


def test_axis_cross_signed_counts():
    s = make_axis_cross(3, weight_per_axis=0.25, signed=True)
    assert s.m == 6
    assert s.is_probability(1e-12) is False  # mass 1.5
    t = make_axis_cross(2, weight_per_axis=0.25, signed=True)
    assert t.is_probability(1e-12)


def test_sample_sphere_uniform_properties():
    s = sample_sphere_uniform(3, 40, seed=7)
    assert s.m == 40
    assert s.has_unit_vectors(1e-12)
    assert s.is_probability(1e-12)
    # seeded determinism
    t = sample_sphere_uniform(3, 40, seed=7)
    assert np.array_equal(s.vectors, t.vectors)


def test_random_surface_options():
    s = random_surface(3, 6, seed=1)
    assert s.spans(1e-8)
    u = random_surface(3, 6, seed=1, unit=True, probability=True)
    assert u.has_unit_vectors(1e-12) and u.is_probability(1e-12)


def test_sheared_cube_unit_atoms():
    s = make_sheared_cube(4, seed=3)
    assert s.m == 4
    assert s.has_unit_vectors(1e-12)
    assert s.spans()


def test_cover_partition_and_singletons():
    c = UniformCover.partition([(0, 1), (2,)])
    assert c.j == 3 and c.m == 2 and c.block_sizes == (2, 1)
    assert validate_cover(c).valid
    assert validate_cover(UniformCover.singletons(4)).valid


def test_cover_weighted_validation():
    ok = UniformCover(3, [(0, 1), (1, 2), (0, 2)], alphas=(0.5, 0.5, 0.5))
    res = validate_cover(ok)
    assert res.valid and max(res.residuals) <= 1e-12
    bad = UniformCover(3, [(0, 1), (1, 2)], alphas=(0.5, 0.5))
    assert not validate_cover(bad).valid
    assert not validate_cover(UniformCover(3, [(0, 1), (2,)], alphas=(1.0, -1.0))).valid


def test_cover_counting_validation():
    two = UniformCover(2, [(0,), (1,), (0, 1)], s=2)
    assert validate_cover(two).valid
    assert not validate_cover(UniformCover(2, [(0,), (0, 1)], s=1)).valid


def test_cover_rejects_malformed_sets():
    assert not validate_cover(UniformCover(2, [(), (0, 1)], s=1)).valid
    assert not validate_cover(UniformCover(2, [(0, 2)], s=1)).valid  # out of range
    assert not validate_cover(UniformCover(2, [(0, 0), (1,)], s=1)).valid  # repeat
    assert not validate_cover(UniformCover(2, [(0,), (1,)])).valid  # no mode


def test_json_round_trip(tmp_path):
    s = random_surface(3, 5, seed=9)
    path = tmp_path / "s.json"
    save_surface(s, path)
    t = load_surface(path)
    assert t == s


def test_json_rejects_non_finite(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 2, "atoms": [{"w": NaN, "v": [1.0, 0.0]}], "label": ""}')
    with pytest.raises(ValueError):
        load_surface(path)
    path.write_text('{"d": 2, "atoms": [{"w": 1.0, "v": [Infinity, 0.0]}], "label": ""}')
    with pytest.raises(ValueError):
        load_surface(path)


def test_surface_from_dict_requires_fields():
    with pytest.raises(ValueError):
        surface_from_dict({"atoms": []})
    s = surface_from_dict({"d": 2, "atoms": [{"w": 1.0, "v": [0.0, 1.0]}]})
    assert s.d == 2 and s.label == ""


def test_save_round_trip_is_exact(tmp_path):
    # binary64 values survive the JSON round trip bit-for-bit
    s = random_surface(4, 7, seed=123)
    path = tmp_path / "exact.json"
    save_surface(s, path)
    t = load_surface(path)
    assert np.array_equal(s.weights, t.weights)
    assert np.array_equal(s.vectors, t.vectors)
    data = json.loads(path.read_text())
    assert data["d"] == 4


@pytest.mark.parametrize("path", [None, 2.5, b"surface.json", ["s.json"]])
def test_load_surface_takes_only_a_path(path):
    with pytest.raises(ValueError, match="str or os.PathLike"):
        load_surface(path)


def test_load_surface_leaves_a_file_descriptor_alone():
    # an integer used to reach open(), which read the descriptor and closed it
    r, w = os.pipe()
    os.write(w, b'{"d": 1, "atoms": [{"w": 1.0, "v": [1.0]}]}')
    os.close(w)
    try:
        with pytest.raises(ValueError):
            load_surface(r)
        os.fstat(r)  # still open
    finally:
        os.close(r)
