import math

import numpy as np
import pytest

from stochwave.covariance import SpectralMeasure
from stochwave.greens import GreenMultiplier
from stochwave.lattice import Grid, LatticeField, l2_norm
from stochwave.noise import sample_path
from stochwave.solver import Nonlinearity, SolveConfig, deterministic_part, picard_iterate
from stochwave.stochint import IntegrandProcess, isometry_bound, stochastic_convolution
from stochwave.weighted import (
    Weight,
    annuli_norms,
    equivalence_constants,
    locality_constant,
    weighted_isometry_bound,
    weighted_moment_track,
    weighted_wave_solve,
)


def _streams(seed, replicas):
    # one Philox stream a replica, spawned from the test's seed
    return [np.random.Generator(np.random.Philox(s))
            for s in np.random.SeedSequence(seed).spawn(replicas)]


@pytest.fixture
def grid():
    return Grid(1, 256, 16.0)


@pytest.fixture
def weight():
    return Weight(2.0)


def test_weight_validation():
    with pytest.raises(ValueError):
        Weight(-1.0)
    with pytest.raises(ValueError):
        Weight(2.0, radius=0.0)
    with pytest.raises(ValueError):
        Weight(1.0).check_dimension(2)  # exponent must exceed d


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_weight_refuses_an_exponent_or_radius_that_is_not_finite_and_positive(value):
    with pytest.raises(ValueError, match="weight exponent"):
        Weight(value)
    with pytest.raises(ValueError, match="annulus radius"):
        Weight(2.0, radius=value)


def test_sandwich_exact(grid, weight):
    theta = weight.theta_on(grid)
    r = np.sqrt(grid.coord_norm_sq)
    base = np.ones(grid.shape)
    far = r > 1.0
    base[far] = r[far] ** (-weight.exponent)
    assert np.all(theta >= weight.sandwich_lower * base * (1 - 1e-12))
    assert np.all(theta <= weight.sandwich_upper * base * (1 + 1e-12))


def test_annuli_norms_indicator(grid, weight):
    idx = weight.annulus_index(grid)
    vals = (idx == 2).astype(float)
    shells = annuli_norms(LatticeField(grid, vals), weight)
    assert shells[2] > 0
    assert np.all(shells[np.arange(shells.size) != 2] == 0.0)
    assert np.all(annuli_norms(LatticeField.zeros(grid), weight) == 0.0)


def test_shell_equivalence_random_fields(grid, weight):
    c_low, c_high = equivalence_constants(grid, weight)
    assert 0.0 < c_low <= c_high <= 1.0 + 1e-12
    theta = weight.theta_on(grid)
    rng = np.random.default_rng(1)
    for _ in range(50):
        f = LatticeField(grid, rng.standard_normal(grid.shape))
        wsq = grid.cell_volume * float(np.sum(f.values**2 * theta))
        shells = annuli_norms(f, weight)
        scale = np.array([float(max(n, 1)) ** (-weight.exponent) for n in range(shells.size)])
        total = float(np.sum(scale * shells))
        assert c_low * total <= wsq * (1 + 1e-12)
        assert wsq <= c_high * total * (1 + 1e-12)


def test_shell_locality_of_convolution(grid):
    # with the exact wave kernel, values on shell H_n depend only on the
    # integrand within the propagation distance: masking Z outside the
    # widened shell neighborhood D_n leaves v on H_n unchanged
    w = Weight(2.0, radius=1.0)
    measure = SpectralMeasure.white(1)
    horizon, steps = 0.5, 4
    dt = horizon / steps
    g = GreenMultiplier(1, horizon)
    rng = np.random.default_rng(2)
    z_vals = rng.standard_normal(grid.shape)
    z = IntegrandProcess.constant(grid, z_vals, steps, dt)
    path = sample_path(grid, measure, horizon, dt, rng)
    full = stochastic_convolution(g, z, path, horizon)

    idx = w.annulus_index(grid)
    n_probe = 2
    width = int(np.ceil((horizon + grid.spacing) / w.radius)) + 1
    keep = np.abs(idx - n_probe) <= width
    masked = IntegrandProcess.constant(grid, z_vals * keep, steps, dt)
    local = stochastic_convolution(g, masked, path, horizon)
    on_shell = idx == n_probe
    scale = np.max(np.abs(full.values))
    assert np.max(np.abs(full.values[on_shell] - local.values[on_shell])) <= 1e-12 * scale


def test_weighted_bound_is_the_isometry_bound_in_the_theta_norm(grid, weight):
    g = GreenMultiplier(1, 1.0)
    measure = SpectralMeasure.riesz(1, 0.5)
    z = IntegrandProcess.constant(grid, (np.sqrt(grid.coord_norm_sq) <= 1.0).astype(float), 4, 0.25)
    res = weighted_isometry_bound(g, z, measure, weight, 2, _streams(7, 2))
    assert res.bound == isometry_bound(g, z, measure, weight.theta_on(grid))


def test_weighted_bound_zero_integrand(grid, weight):
    g = GreenMultiplier(1, 1.0)
    z = IntegrandProcess.constant(grid, np.zeros(grid.shape), 4, 0.25)
    res = weighted_isometry_bound(g, z, SpectralMeasure.white(1), weight, 10, _streams(3, 10))
    assert res.bound == 0.0 and res.mc_estimate == 0.0


@pytest.mark.parametrize("replicas, generators, match", [
    (0, None, "replicas"), (-1, None, "replicas"), (4, 6, "rng"), (4, 3, "rng"),
    (4, None, "rng"),
])
def test_weighted_bound_refuses_bad_replica_counts(grid, weight, replicas, generators, match):
    g = GreenMultiplier(1, 1.0)
    z = IntegrandProcess.constant(grid, np.ones(grid.shape), 4, 0.25)
    rng = (np.random.default_rng(3) if generators is None
           else [np.random.default_rng(r) for r in range(generators)])
    with pytest.raises(ValueError, match=match):
        weighted_isometry_bound(g, z, SpectralMeasure.white(1), weight, replicas, rng)


@pytest.mark.parametrize("replicas", [1, 0, -1])
def test_weighted_bound_needs_two_replicas_for_a_standard_error(grid, weight, replicas):
    g = GreenMultiplier(1, 1.0)
    z = IntegrandProcess.constant(grid, np.ones(grid.shape), 4, 0.25)
    with pytest.raises(ValueError, match="must be >= 2"):
        weighted_isometry_bound(g, z, SpectralMeasure.white(1), weight, replicas,
                                np.random.default_rng(3))


def test_weighted_bound_rejects_k2(grid, weight):
    g = GreenMultiplier(2, 1.0)
    z = IntegrandProcess.constant(grid, np.ones(grid.shape), 2, 0.5)
    with pytest.raises(ValueError, match="compact support"):
        weighted_isometry_bound(g, z, SpectralMeasure.white(1), weight, 10,
                                np.random.default_rng(4))


def test_weighted_bound_ball_integrand(grid, weight):
    g = GreenMultiplier(1, 1.0)
    ball = (np.abs(grid.axis_coords) <= 1.0).astype(float)
    z = IntegrandProcess.constant(grid, ball, 8, 0.125)
    res = weighted_isometry_bound(g, z, SpectralMeasure.white(1), weight, 600, _streams(5, 600))
    assert res.mc_estimate <= res.bound + 3.0 * res.std_error
    # strict gap for the origin-centered integrand
    assert res.mc_estimate < res.bound


def test_weighted_bound_far_integrand_needs_locality_constant(grid, weight):
    # far from the origin the weight is convex, so spreading mass raises
    # the weighted moment above the constant-free quadrature bound; the
    # locality-scaled bound still holds
    g = GreenMultiplier(1, 1.0)
    far = np.exp(-((grid.axis_coords - 5.0) ** 2) * 4.0)
    z = IntegrandProcess.constant(grid, far, 8, 0.125)
    res = weighted_isometry_bound(g, z, SpectralMeasure.white(1), weight, 600, _streams(6, 600))
    assert res.mc_estimate <= res.locality * res.bound + 3.0 * res.std_error
    assert res.locality > 1.0


def test_weighted_solver_requires_k1(grid, weight):
    cfg = SolveConfig(grid, SpectralMeasure.white(1), 2, 1.0, 1 / 64,
                      Nonlinearity.affine(0.0, 1.0), LatticeField.zeros(grid))
    path = sample_path(grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(7))
    with pytest.raises(ValueError, match="k = 1"):
        weighted_wave_solve(cfg, path, weight)


def test_weighted_solver_zero_alpha(grid, weight):
    cfg = SolveConfig(grid, SpectralMeasure.white(1), 1, 1.0, 1 / 64,
                      Nonlinearity.affine(0.0, 0.0),
                      LatticeField(grid, np.exp(-grid.coord_norm_sq)),
                      snapshot_stride=1)
    path = sample_path(grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(8))
    report = weighted_wave_solve(cfg, path, weight)
    fin = report.snapshot_at(64)
    expected = deterministic_part(cfg, 1.0)
    assert np.max(np.abs(fin.values - expected.values)) < 1e-12


def test_weighted_solution_matches_plain_solver_on_ball(grid, weight):
    # ball-supported data and masked noise: identical dynamics, so the
    # weighted sweep and the plain Picard fixed point must agree
    x = grid.axis_coords
    bump = np.zeros(grid.shape)
    inside = np.abs(x) < 1.0
    bump[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    mask = (np.abs(x) <= 1.0).astype(float)
    cfg = SolveConfig(grid, SpectralMeasure.white(1), 1, 1.0, 1 / 32,
                      Nonlinearity.sine(), LatticeField(grid, bump),
                      noise_mask=mask, snapshot_stride=1, picard_tol=1e-13)
    path = sample_path(grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(9))
    plain = picard_iterate(cfg, path)
    weighted_rep = weighted_wave_solve(cfg, path, weight)
    gap = max(
        l2_norm(plain.snapshot_at(j) - weighted_rep.snapshot_at(j))
        for j in plain.snapshots
    )
    assert gap <= 1e-8


def test_weighted_solver_constant_alpha_envelope(grid, weight):
    cfg = SolveConfig(grid, SpectralMeasure.white(1), 1, 1.0, 1 / 32,
                      Nonlinearity.affine(0.0, 1.0),
                      LatticeField(grid, np.exp(-grid.coord_norm_sq)),
                      snapshot_stride=10**9)
    reports = []
    for r in range(30):
        path = sample_path(grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(500 + r))
        reports.append(weighted_wave_solve(cfg, path, weight))
    summary = weighted_moment_track(np.stack([r.moments for r in reports]), cfg, weight)
    assert np.all(summary.mean <= summary.envelope + 3.0 * summary.std_error + 1e-12)


def test_locality_constant_grows_with_horizon(grid, weight):
    s1 = locality_constant(grid, weight, 0.5)
    s2 = locality_constant(grid, weight, 3.0)
    assert 1.0 < s1 <= s2


def _shell_constants_by_masks(grid, w, horizon):
    """(c, C, S) from one boolean mask per occupied shell: the reference."""
    theta, idx = w.theta_on(grid).ravel(), w.annulus_index(grid).ravel()
    shells = [n for n in range(int(idx.max()) + 1) if np.any(idx == n)]
    t_min = {n: theta[idx == n].min() for n in shells}
    t_max = {n: theta[idx == n].max() for n in shells}
    scale = {n: float(max(n, 1)) ** w.exponent for n in shells}
    width = int(math.ceil(horizon / w.radius)) + 1
    s = max(sum(t_max[j] for j in shells if abs(j - m) <= width) / t_min[m] for m in shells)
    return (min(t_min[n] * scale[n] for n in shells),
            max(t_max[n] * scale[n] for n in shells), s)


@pytest.mark.parametrize("grid, w, horizon", [
    (Grid(1, 256, 16.0), Weight(2.0), 0.5),
    (Grid(1, 256, 16.0), Weight(2.0), 3.0),
    (Grid(2, 32, 8.0), Weight(3.0, radius=0.7), 1.0),
    (Grid(1, 8, 16.0), Weight(2.0, radius=0.5), 1.0),  # spacing 2: most shells empty
])
def test_shell_constants_match_the_per_shell_masks(grid, w, horizon):
    c, big_c, s = _shell_constants_by_masks(grid, w, horizon)
    # extrema and their products are exact; S sums in another order
    assert equivalence_constants(grid, w) == (c, big_c)
    assert locality_constant(grid, w, horizon) == pytest.approx(s, rel=1e-14)
