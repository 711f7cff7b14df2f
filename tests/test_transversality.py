import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from transversal import transversality
from transversal.cli import main
from transversal.geom_core import gram_dets
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
    uniform_moment_norm_sq,
)
from transversal.zonotope import Ball, Zonotope, mixed_volume, projection_body, zonotope_volume

from oracles import (
    i_p_uniform_quadrature,
    refinement_oracle,
    rho_oracle,
    uniform_moment_quadrature,
    wedge_norm_oracle,
)


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


def test_q_exact_validation():
    s = random_surface(3, 4, seed=0)
    with pytest.raises(ValueError):
        q_exact(s, 4, 1.0)  # j > d
    with pytest.raises(ValueError):
        q_exact(s, 2, 0.0)
    with pytest.raises(ValueError):
        q_exact(s, 3, 1.0, budget=3)  # C(4, 3) = 4 subsets > 3
    assert q_exact(s, 3, 1.0, budget=4) == q_exact(s, 3, 1.0)


def test_budget_counts_ordered_tuples_of_distinct_slots():
    s = random_surface(3, 4, seed=0)
    slots = _distinct_slots(s, 3)  # product route: 4^3 = 64 ordered tuples
    with pytest.raises(ValueError):
        q_exact(slots, 3, 1.0, budget=63)
    assert q_exact(slots, 3, 1.0, budget=64) == q_exact(slots, 3, 1.0)


def test_cauchy_binet_walks_nothing_and_its_fallback_is_budgeted():
    s = random_surface(4, 9, seed=4)
    assert q_exact(s, 3, 2.0, budget=0) == q_exact(s, 3, 2.0)
    flat = DiscreteHypersurface(3, [(1.0, [1.0, 0.0, 0.0]), (1.0, [0.0, 1.0, 0.0]), (2.0, [1.0, 1.0, 0.0])])
    with pytest.raises(ValueError):  # rank deficient: falls back to C(3, 3) = 1 subset
        q_exact(flat, 3, 2.0, budget=0)
    assert q_exact(flat, 3, 2.0, budget=1) == 0.0


def _no_determinants(V):
    raise AssertionError("a determinant was computed before the budget check")


@pytest.mark.parametrize(
    "m, over",
    [(5, 59),  # the refinement pass walks 5 * 4 * 3 = 60 ordered distinct tuples
     (3, 8)],  # each triangle block table holds 3^2 = 9 entries, the pass walks 6
)
def test_finner_budget_is_checked_before_any_determinant(m, over, monkeypatch):
    s = random_surface(3, m, seed=m)
    triangle = UniformCover(3, [(0, 1), (1, 2), (0, 2)], alphas=(0.5,) * 3)
    with pytest.raises(ValueError):
        finner_check([s] * 3, triangle, 1.0, budget=over)
    at_budget = finner_check([s] * 3, triangle, 1.0, budget=over + 1)
    assert at_budget.to_dict() == finner_check([s] * 3, triangle, 1.0).to_dict()
    monkeypatch.setattr(transversality, "gram_dets", _no_determinants)
    with pytest.raises(ValueError):
        finner_check([s] * 3, triangle, 1.0, budget=over)


def test_q_cli_at_p2_runs_far_past_the_ordered_tuple_count(capsys):
    argv = ["q", "--surface", "random", "--d", "3", "--m", "10000", "--p", "2"]
    assert main(argv) == 0
    assert "Q = " in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "cover",
    [
        UniformCover(3, [(0, 1), (1, 2), (2, 0)], alphas=(0.5,) * 3),
        UniformCover(4, [(0, 1), (1, 2), (2, 3), (3, 0)], alphas=(0.5,) * 4),
        UniformCover.partition([(0, 1, 2), (3,)], j=4),
    ],
    ids=["triangle", "4-cycle", "012-3"],
)
@pytest.mark.parametrize("same_object", [True, False], ids=["same", "copies"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_finner_block_q_is_q_exact_on_the_block_slots(cover, same_object, p):
    # the block sums come from the refinement tables (all ordered tuples);
    # q_exact takes the subset or Cauchy-Binet route when one object fills
    # the block, the product route over distinct copies
    if same_object:
        surfaces = [random_surface(4, 5, seed=21)] * cover.j
    else:
        surfaces = [random_surface(4, 5, seed=21) for _ in range(cover.j)]
    report = finner_check(surfaces, cover, p)
    assert report.verdict == "pass"
    for Q_i, A in zip(report.details["block_Q"], cover.sets):
        expected = q_exact([surfaces[l] for l in A], len(A), p)
        assert Q_i == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_finner_sup_rho_matches_cofactor_oracle():
    triangle = UniformCover(3, [(0, 1), (1, 2), (0, 2)], alphas=(0.5,) * 3)
    rng = np.random.default_rng(41)
    v = rng.normal(size=3)
    # atoms v and -2v make the injective tuples through both of them dependent
    dependent = DiscreteHypersurface(
        3, zip(rng.uniform(0.5, 1.5, 5), np.vstack([v, -2.0 * v, rng.normal(size=(3, 3))]))
    )
    surfaces = [random_surface(d, 5, seed=seed) for d in (3, 4) for seed in (1, 2)]
    for s in surfaces + [dependent]:
        expect = max(
            rho_oracle(s.vectors[list(t)], triangle.sets, triangle.alphas)
            for t in itertools.permutations(range(s.m), 3)
        )
        got = finner_check(s, triangle, 1.0).details["sup_rho"]
        assert got == pytest.approx(expect, abs=1e-12)


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


def test_multi_block_enumeration_matches_one_block(monkeypatch):
    s = random_surface(3, 6, seed=8)
    triangle = UniformCover(3, [(0, 1), (1, 2), (0, 2)], alphas=(0.5,) * 3)
    rng = np.random.default_rng(9)
    zs = [Zonotope(3, rng.normal(size=(n, 3))) for n in (4, 5)]
    Z = projection_body(random_surface(3, 8, seed=3))

    def values():
        return {
            "q_subset": q_exact(s, 3, 1.3),
            "q_product": q_exact(_distinct_slots(s, 3), 3, 1.3),
            "refinement": finner_check([s] * 3, triangle, 1.5).details["refinement"],
            "zonotope_volume": zonotope_volume(Z),
            "mixed_volume": mixed_volume(Ball(3), 1, zs),
        }

    one_block = values()
    monkeypatch.setattr(transversality, "CHUNK", 7)
    assert len(list(transversality._index_blocks([6] * 3, "subset"))) == 3  # C(6,3) = 20
    many_blocks = values()
    for key, value in one_block.items():
        assert many_blocks[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


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


TRIANGLE = UniformCover(3, [(0, 1), (1, 2), (0, 2)], alphas=(0.5,) * 3)
#: block sizes 3, 3 and 2 over four slots
TRIPLES4 = UniformCover(4, [(0, 1, 2), (1, 2, 3), (0, 3)], alphas=(0.5,) * 3)


def _v_minus_2v_surface(d, m, seed):
    """m atoms in R^d, the first two v and -2v."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d)
    vectors = np.vstack([v, -2.0 * v, rng.normal(size=(m - 2, d))])
    return DiscreteHypersurface(d, zip(rng.uniform(0.5, 1.5, m), vectors))


@pytest.mark.parametrize(
    "cover, d, m",
    [
        (UniformCover.singletons(3), 3, 4),
        (TRIANGLE, 3, 5),
        (TRIANGLE, 4, 4),
        (CYCLE4, 4, 4),
        (TRIPLES4, 4, 4),
        (UniformCover.partition([(0, 1, 2), (3,)]), 5, 4),
    ],
)
@pytest.mark.parametrize("route", ["same", "distinct"])
@pytest.mark.parametrize("dependent", [False, True])
def test_finner_refinement_matches_per_tuple_oracle(cover, d, m, route, dependent):
    j = cover.j
    s = _v_minus_2v_surface(d, m, seed=d + m) if dependent else random_surface(d, m, seed=m)
    surfaces = [s] * j if route == "same" else _distinct_slots(s, j)
    p = 1.5
    details = finner_check(surfaces, cover, p).details
    refinement, sup_rho = refinement_oracle(surfaces, cover.sets, cover.alphas, p)
    assert details["refinement"] == pytest.approx(refinement, rel=1e-12, abs=0.0)
    assert details["sup_rho"] == pytest.approx(sup_rho, abs=1e-12)


@given(
    d=st.integers(1, 5),
    m=st.integers(1, 8),
    j_frac=st.floats(0.0, 1.0),
    rank_frac=st.floats(0.0, 1.0),
    directions=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_q_exact_p2_matches_enumeration(d, m, j_frac, rank_frac, directions, seed):
    # atoms in an r-dimensional subspace along k distinct directions, each
    # direction repeated with random signed lengths
    j = 1 + min(int(j_frac * d), d - 1)
    r = 1 + min(int(rank_frac * d), d - 1)
    k = min(directions, m)
    rng = np.random.default_rng(seed)
    D = rng.normal(size=(k, r)) @ rng.normal(size=(r, d))
    lengths = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.5, 2.0, size=m)
    s = DiscreteHypersurface(d, zip(rng.uniform(0.2, 2.0, m), D[np.arange(m) % k] * lengths[:, None]))
    got = q_exact(s, j, 2.0)
    enumerated = transversality._q_sum([s] * j, 2.0) ** (1.0 / (2 * j))
    if min(r, k) < j:
        assert got == 0.0 and enumerated == 0.0
    else:
        assert got == pytest.approx(enumerated, rel=1e-13, abs=0.0)


def test_q_exact_p2_route_choice():
    s = random_surface(4, 9, seed=4)
    assert transversality._cauchy_binet_sum(s, 3) is not None
    flat = DiscreteHypersurface(3, [(1.0, [1.0, 0.0, 0.0]), (1.0, [0.0, 1.0, 0.0]), (2.0, [1.0, 1.0, 0.0])])
    assert transversality._cauchy_binet_sum(flat, 3) is None
    assert q_exact(flat, 3, 2.0) == 0.0


def _q_montecarlo_full_stack(s, j, p, n_samples, seed):
    """(value, std_error) of q_montecarlo with every draw sent to gram_dets."""
    rng = np.random.default_rng(seed)
    V = np.empty((n_samples, j, s.d))
    for k in range(j):
        V[:, k, :] = s.vectors[rng.choice(s.m, size=n_samples, p=s.weights / s.total_mass)]
    f = float(np.prod(np.full(j, s.total_mass))) * gram_dets(V) ** (p / 2.0)
    mean = float(np.mean(f))
    se = float(np.std(f, ddof=1) / math.sqrt(n_samples))
    if mean <= 0.0:
        return 0.0, 0.0
    value = mean ** (1.0 / (j * p))
    return value, value * se / (j * p * mean)


@pytest.mark.parametrize(
    "d, m, p, n_samples",
    [(3, 2, 1.0, 500), (4, 3, 1.5, 500), (3, 3, 1.0, 5_000), (4, 4, 2.0, 5_000),
     (3, 60, 1.5, 20_000), (4, 40, 1.0, 20_000)],
)
def test_q_montecarlo_repeat_skip_matches_full_stack(d, m, p, n_samples):
    s = random_surface(d, m, seed=m)
    for seed in (0, 1, 2):
        est = q_montecarlo(s, d, p, n_samples, seed)
        assert (est.value, est.std_error) == _q_montecarlo_full_stack(s, d, p, n_samples, seed)
        if m < d:  # every draw repeats an atom
            assert est.value == 0.0 and est.std_error == 0.0


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
