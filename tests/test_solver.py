import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochwave import noise, solver
from stochwave.covariance import SpectralMeasure
from stochwave.greens import spectral_energy_field
from stochwave.lattice import Grid, LatticeField, h_neg_k_norm, l2_norm
from stochwave.noise import NoisePath, sample_path, sample_slice_batch
from stochwave.solver import (
    Nonlinearity,
    SolveConfig,
    _causal_sweep,
    _free_spectra,
    _green_rows,
    _horizon_table,
    _picard_update,
    deterministic_moments,
    deterministic_part,
    deterministic_velocity,
    energy_trajectory,
    explicit_sweep,
    moment_track,
    picard_iterate,
    picard_replicas,
    sweep_replicas,
)
from stochwave.stochint import IntegrandProcess, stochastic_convolution


def _basic_config(n=64, length=16.0, k=1, dt=1.0 / 64.0, alpha=None, **kw):
    grid = Grid(1, n, length)
    x = grid.axis_coords
    v0 = LatticeField(grid, np.exp(-(x**2)))
    return SolveConfig(
        grid=grid,
        measure=SpectralMeasure.white(1),
        k=k,
        horizon=1.0,
        dt=dt,
        nonlinearity=alpha or Nonlinearity.sine(),
        v0=v0,
        **kw,
    )


# -- nonlinearities -----------------------------------------------------------


def test_one_minus_exp_refuses_values_outside_its_box():
    alpha = Nonlinearity.one_minus_exp()
    edge = np.array([-3.0, 0.0, 3.0])
    assert np.array_equal(alpha(edge), 1.0 - np.exp(-edge))
    for u in (np.array([0.0, -3.5]), np.array([[1.0], [4.0]]), np.array([np.nan])):
        with pytest.raises(ValueError, match=r"max\|u\| = .* box \|u\| <= 3"):
            alpha(u)


def test_growth_constant():
    assert Nonlinearity.affine(0.0, 1.0).growth == pytest.approx(1.0)
    assert Nonlinearity.sine().growth == pytest.approx(1.0)


def test_zero_lipschitz_constant_is_declared_as_zero():
    zero = Nonlinearity.affine(0.0, 0.0)
    assert zero.lipschitz == 0.0 and zero.vanishes_at_zero and zero.growth == 0.0
    assert np.array_equal(zero(np.array([-2.0, 0.0, 3.0])), np.zeros(3))
    constant = Nonlinearity.affine(0.0, 2.5)
    assert constant.lipschitz == 0.0 and not constant.vanishes_at_zero
    assert constant.growth == 2.5


def test_negative_lipschitz_constant_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        Nonlinearity("bad", np.sin, -1.0)


# -- deterministic part -------------------------------------------------------


def test_deterministic_part_zero_data():
    cfg = _basic_config()
    cfg.v0 = LatticeField(cfg.grid, np.zeros(cfg.grid.shape))
    for t in (0.0, 0.5, 1.0):
        assert np.all(deterministic_part(cfg, t).values == 0.0)


def test_deterministic_part_at_time_zero():
    grid = Grid(1, 64, 16.0)
    rng = np.random.default_rng(3)
    v0 = LatticeField(grid, rng.standard_normal(grid.shape))
    v0dot = LatticeField(grid, rng.standard_normal(grid.shape))
    cfg = SolveConfig(grid, SpectralMeasure.white(1), 1, 1.0, 1 / 64, Nonlinearity.sine(),
                      v0, v0dot)
    out = deterministic_part(cfg, 0.0)
    assert np.max(np.abs(out.values - v0.values)) < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_velocity_data_propagation_bounded_by_sobolev_norm(k):
    # ||G(t) * v0_dot|| <= sqrt(1 + T^2) ||v0_dot||_{H^-k}, 20 draws
    grid = Grid(1, 64, 16.0)
    rng = np.random.default_rng(4)
    horizon = 1.0
    c_t = np.sqrt(1.0 + horizon**2)
    for _ in range(20):
        v0dot = LatticeField(grid, rng.standard_normal(grid.shape))
        cfg = SolveConfig(grid, SpectralMeasure.white(1), k, horizon, 1 / 64,
                          Nonlinearity.sine(), LatticeField(grid, np.zeros(grid.shape)),
                          v0dot)
        t = rng.uniform(0.0, horizon)
        value = l2_norm(deterministic_part(cfg, t))
        assert value <= c_t * h_neg_k_norm(v0dot, k) * (1.0 + 1e-12)


def test_deterministic_velocity_is_derivative():
    cfg = _basic_config()
    cfg.v0_dot = LatticeField(cfg.grid, 0.2 * np.exp(-((cfg.grid.axis_coords - 1) ** 2)))
    t, eps = 0.5, 1e-6
    fd = (deterministic_part(cfg, t + eps).values - deterministic_part(cfg, t - eps).values) / (2 * eps)
    assert np.max(np.abs(fd - deterministic_velocity(cfg, t).values)) < 1e-6


# -- solvers ------------------------------------------------------------------


def test_zero_nonlinearity_converges_immediately():
    cfg = _basic_config(alpha=Nonlinearity.affine(0.0, 0.0), snapshot_stride=1)
    path = sample_path(cfg.grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(5))
    report = picard_iterate(cfg, path)
    assert report.iterations == 1 and report.converged
    for j, fld in report.snapshots.items():
        expected = deterministic_part(cfg, j * cfg.dt)
        assert np.max(np.abs(fld.values - expected.values)) < 1e-12


def test_linear_alpha_zero_data_stays_zero():
    cfg = _basic_config(alpha=Nonlinearity.identity(), snapshot_stride=1)
    cfg.v0 = LatticeField(cfg.grid, np.zeros(cfg.grid.shape))
    path = sample_path(cfg.grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(6))
    report = explicit_sweep(cfg, path)
    assert np.all(report.moments == 0.0)


def test_sweep_equals_picard_fixed_point():
    cfg = _basic_config(snapshot_stride=1, picard_tol=1e-13)
    path = sample_path(cfg.grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(7))
    sweep = explicit_sweep(cfg, path)
    pic = picard_iterate(cfg, path)
    gap = max(l2_norm(sweep.snapshot_at(j) - pic.snapshot_at(j)) for j in sweep.snapshots)
    assert gap <= 1e-10


def test_uniqueness_two_initial_guesses():
    cfg = _basic_config(snapshot_stride=1, picard_tol=1e-13)
    path = sample_path(cfg.grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(8))
    a = picard_iterate(cfg, path, initial="u0")
    b = picard_iterate(cfg, path, initial="zero")
    gap = max(l2_norm(a.snapshot_at(j) - b.snapshot_at(j)) for j in a.snapshots)
    assert gap <= 1e-10


@pytest.mark.parametrize("alpha", ["sine", "identity", "one_minus_exp"])
@pytest.mark.parametrize("kind", ["white", "riesz"])
def test_picard_from_zero_is_the_u0_solve_one_update_later(alpha, kind):
    # alpha(0) = 0, so the first update from the zero trajectory forces nothing and returns
    # the free evolution u0 bit for bit: the zero-guess solve is the u0 solve shifted by one
    # update, and the two-guess gap of the picard experiment is 0 by construction
    measure = SpectralMeasure.white(1) if kind == "white" else SpectralMeasure.riesz(1, 0.5)
    cfg = _basic_config(snapshot_stride=1, picard_tol=1e-13,
                        alpha=getattr(Nonlinearity, alpha)())
    cfg.measure = measure
    for seed in (11, 12):
        path = sample_path(cfg.grid, measure, 1.0, cfg.dt, np.random.default_rng(seed))
        u0 = picard_iterate(cfg, path, initial="u0")
        zero = picard_iterate(cfg, path, initial="zero")
        assert u0.converged and zero.converged
        assert zero.iterations == u0.iterations + 1
        assert np.array_equal(np.array(zero.m_table[1:]), np.array(u0.m_table))
        assert np.array_equal(zero.m_table[0], deterministic_moments(cfg))
        assert all(np.array_equal(zero.snapshot_at(j).values, u0.snapshot_at(j).values)
                   for j in u0.snapshots)


def test_picard_non_convergence_reported():
    # a zero tolerance never stops the loop, so the whole budget of n + 2 iterations runs
    cfg = _basic_config(dt=0.25, picard_tol=0.0)
    path = sample_path(cfg.grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(9))
    report = picard_iterate(cfg, path)
    assert not report.converged and report.iterations == cfg.steps + 2 == 6
    assert len(report.m_table) == 6


def test_pathwise_determinism():
    cfg = _basic_config()
    p1 = sample_path(cfg.grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(10))
    p2 = sample_path(cfg.grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(10))
    r1 = explicit_sweep(cfg, p1)
    r2 = explicit_sweep(cfg, p2)
    assert np.array_equal(r1.moments, r2.moments)


def test_refinement_is_cauchy_in_dt():
    # couple resolutions through one fine path; coarser runs use the
    # block-summed slices, exactly in law a path at step factor * dt
    cfg_fine = _basic_config(dt=1.0 / 128.0, snapshot_stride=1)
    fine = sample_path(cfg_fine.grid, cfg_fine.measure, 1.0, cfg_fine.dt,
                       np.random.default_rng(11))
    sols = {}
    for level, factor in ((0, 1), (1, 2), (2, 4), (3, 8)):
        blocks = fine.fields.reshape((len(fine) // factor, factor) + fine.grid.shape)
        path = NoisePath(fine.grid, fine.dt * factor, blocks.sum(axis=1))
        cfg = _basic_config(dt=path.dt, snapshot_stride=1)
        sols[level] = explicit_sweep(cfg, path)
    gaps = []
    for level in (3, 2, 1):
        coarse, finer = sols[level], sols[level - 1]
        steps = len(coarse.moments) - 1
        gap = max(
            l2_norm(coarse.snapshot_at(j) - finer.snapshot_at(2 * j))
            for j in range(steps + 1)
        )
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]


def test_energy_conservation():
    for k in (1, 2):
        grid = Grid(1, 128, 16.0)
        x = grid.axis_coords
        cfg = SolveConfig(grid, SpectralMeasure.white(1), k, 1.0, 1.0 / 256.0,
                          Nonlinearity.affine(0.0, 0.0),
                          LatticeField(grid, np.exp(-(x**2))),
                          LatticeField(grid, 0.3 * np.exp(-((x - 1.0) ** 2) / 2.0)))
        energy = energy_trajectory(cfg)
        assert (energy.max() - energy.min()) / energy.mean() <= 1e-10


@pytest.mark.parametrize("d, n, k, steps", [(1, 128, 1, 4096), (1, 128, 2, 4096),
                                             (2, 32, 2, 2048)])
def test_long_horizon_energy_drift(d, n, k, steps):
    # the free evolution reads each step time from the table, so rounding does not accumulate
    grid = Grid(d, n, 16.0)
    r_sq = grid.coord_norm_sq
    cfg = SolveConfig(grid, SpectralMeasure.white(d), k, steps / 256.0, 1.0 / 256.0,
                      Nonlinearity.affine(0.0, 0.0), LatticeField(grid, np.exp(-r_sq)),
                      LatticeField(grid, 0.3 * np.exp(-r_sq / 2.0)))
    energy = energy_trajectory(cfg)
    assert energy.shape == (steps + 1,)
    assert (energy.max() - energy.min()) / energy.mean() <= 1e-14


def test_finite_speed_with_masked_noise():
    grid = Grid(1, 512, 16.0)
    x = grid.axis_coords
    bump = np.zeros(grid.shape)
    inside = np.abs(x) < 1.0
    bump[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    h = grid.spacing
    cfg = SolveConfig(grid, SpectralMeasure.white(1), 1, 1.0, h, Nonlinearity.sine(),
                      LatticeField(grid, bump),
                      noise_mask=(np.abs(x) <= 1.0).astype(float), snapshot_stride=1)
    path = sample_path(grid, cfg.measure, 1.0, h, np.random.default_rng(12))
    report = explicit_sweep(cfg, path)
    for j, fld in report.snapshots.items():
        outside = np.abs(x) > 1.0 + j * cfg.dt + 2.0 * h
        if np.any(outside):
            assert np.max(np.abs(fld.values[outside])) <= 1e-10


# -- propagator against the direct history sum --------------------------------


def _oracle_config(steps, **kw):
    grid = Grid(1, 64, 16.0)
    x = grid.axis_coords
    return SolveConfig(grid, SpectralMeasure.white(1), 1, 1.0, 1.0 / steps, Nonlinearity.sine(),
                       LatticeField(grid, np.exp(-(x**2))),
                       LatticeField(grid, 0.3 * np.exp(-((x - 1.0) ** 2) / 2.0)),
                       noise_mask=(np.abs(x) <= 4.0).astype(float), snapshot_stride=1, **kw)


def _mild_map_gap(cfg, path, inputs, output, j):
    """Relative gap between output and u0(t_j) + sum_{i<j} G(t_j - t_i) * (alpha(inputs_i) W_i)."""
    mask = 1.0 if cfg.noise_mask is None else cfg.noise_mask
    fields = np.stack([cfg.nonlinearity(u) * mask for u in inputs[:-1]])
    Z = IntegrandProcess(cfg.grid, cfg.dt, fields)
    t = j * cfg.dt
    expected = (deterministic_part(cfg, t).values
                + stochastic_convolution(cfg.green, Z, path, t).values)
    return np.max(np.abs(output - expected)) / np.max(np.abs(expected))


def test_sweep_is_the_fixed_point_of_the_direct_sum():
    cfg = _oracle_config(4096)
    n = cfg.steps
    path = sample_path(cfg.grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(13))
    report = explicit_sweep(cfg, path)
    u = [report.snapshot_at(j).values for j in range(n + 1)]
    for j in (1, n // 2, n):
        assert _mild_map_gap(cfg, path, u, u[j], j) <= 1e-12


def test_picard_update_matches_the_direct_sum():
    cfg = _oracle_config(256)
    n = cfg.steps
    path = sample_path(cfg.grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(14))
    table = _horizon_table(cfg)
    update = _picard_update(cfg, table, solver._noise_fields(cfg, path),
                            solver._initial_guess(cfg, table, "u0"))
    guess = [deterministic_part(cfg, j * cfg.dt).values for j in range(n + 1)]
    for j in (1, n // 2, n):
        assert _mild_map_gap(cfg, path, guess, update[j], j) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 2]), k=st.sampled_from([1, 2]), n_pts=st.sampled_from([8, 16]),
       steps=st.integers(1, 12), dt=st.floats(1e-3, 0.3), seed=st.integers(0, 2**32 - 1))
def test_rotated_frame_matches_closed_form_and_direct_sum(d, k, n_pts, steps, dt, seed):
    grid = Grid(d, n_pts, 8.0)
    rng = np.random.default_rng(seed)
    cfg = SolveConfig(grid, SpectralMeasure.white(d), k, steps * dt, dt, Nonlinearity.sine(),
                      LatticeField(grid, rng.standard_normal(grid.shape)),
                      LatticeField(grid, rng.standard_normal(grid.shape)))
    free = _free_spectra(cfg, _horizon_table(cfg))
    assert free.shape == (steps + 1,) + grid.half_shape
    # energy_trajectory builds the velocity -w sin(t w) a + cos(t w) b itself
    energy = energy_trajectory(cfg)
    for j, u_spec in enumerate(free):
        t = j * dt
        u_ref, v_ref = deterministic_part(cfg, t), deterministic_velocity(cfg, t)
        assert np.max(np.abs(grid.inverse(u_spec) - u_ref.values)) <= \
            1e-11 * np.max(np.abs(u_ref.values))
        e_ref = spectral_energy_field(grid, u_ref.spectrum, v_ref.spectrum, k)
        assert abs(energy[j] - e_ref) <= 1e-10 * e_ref
    path = sample_path(grid, cfg.measure, cfg.horizon, dt, rng)
    u = list(_causal_sweep(cfg, path.fields))
    assert len(u) == steps + 1
    assert _mild_map_gap(cfg, path, u, u[-1], steps) <= 1e-11


def _sweep_then_update(d, k, steps, replicas, mask, seed):
    """explicit_sweep's trajectory and one Picard update of it, replica axis after time."""
    grid = Grid(d, 16, 8.0)
    r_sq = grid.coord_norm_sq
    # white noise is admissible for k = 1 in d = 1 only
    measure = SpectralMeasure.white(d) if d == 1 or k == 2 else SpectralMeasure.riesz(d, 1.0)
    cfg = SolveConfig(grid, measure, k, 0.5, 0.5 / steps, Nonlinearity.sine(),
                      LatticeField(grid, np.exp(-r_sq)),
                      LatticeField(grid, 0.5 * np.exp(-2.0 * r_sq)),
                      noise_mask=(r_sq <= 4.0).astype(float) if mask else None,
                      snapshot_stride=1)
    rng = np.random.default_rng(seed)
    paths = [sample_path(grid, cfg.measure, cfg.horizon, cfg.dt, rng)
             for _ in range(replicas or 1)]
    reports = [explicit_sweep(cfg, path) for path in paths]
    trajectory = np.stack([np.stack([r.snapshot_at(j).values for j in range(steps + 1)])
                           for r in reports], axis=1)
    w_fields = np.stack([p.fields for p in paths], axis=1) * (cfg.noise_mask if mask else 1.0)
    if replicas is None:
        trajectory, w_fields = trajectory[:, 0], w_fields[:, 0]
    new = _picard_update(cfg, _horizon_table(cfg), w_fields, trajectory)
    assert new.shape == trajectory.shape
    return trajectory, new


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 2]), k=st.sampled_from([1, 2]), steps=st.integers(1, 24),
       replicas=st.sampled_from([None, 1, 3]), mask=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_picard_update_fixes_the_sweep_trajectory(d, k, steps, replicas, mask, seed):
    # the sweep solves the discrete mild equation, so one update returns its trajectory
    trajectory, new = _sweep_then_update(d, k, steps, replicas, mask, seed)
    assert np.max(np.abs(new - trajectory)) <= 1e-13 * np.max(np.abs(trajectory))


@pytest.mark.parametrize("d, k, replicas", [(1, 1, None), (1, 2, 3), (2, 2, 3)])
def test_sweep_and_picard_update_share_their_arithmetic(d, k, replicas):
    # the update's cumulative sums make the sweep's additions in the sweep's order, so the
    # fixed point is reproduced bit for bit; a forcing term added at its own step time
    # changes the displacement only by rounding, and only this equality can see it
    trajectory, new = _sweep_then_update(d, k, 12, replicas, True, 900 + d + k)
    assert np.array_equal(new, trajectory)


def _blocks_of(monkeypatch, count, entries):
    """Make every block of ``entries``-entry items (replicas or sweep rows) hold ``count``."""
    monkeypatch.setattr(noise, "_BLOCK_ENTRIES", count * entries)


def _rows_per_block(monkeypatch, grid, rows):
    """Make the causal sweep build ``rows`` Green-pair rows per block on ``grid``."""
    _blocks_of(monkeypatch, rows, math.prod(grid.half_shape))


@pytest.mark.parametrize("rows, steps", [(16, 0), (16, 15), (16, 16), (16, 67), (1, 5)])
def test_sweep_rows_equal_the_propagator_tables(monkeypatch, rows, steps):
    # the sweep builds its rows a block of step times at a time, equal bit for bit
    # to the whole-horizon rows the Picard path and the free evolution read
    grid = Grid(2, 8, 8.0)
    cfg = SolveConfig(grid, SpectralMeasure.white(2), 2, steps * 0.01, 0.01,
                      Nonlinearity.sine(), LatticeField(grid, np.exp(-grid.coord_norm_sq)))
    assert cfg.steps == steps
    cos, sin, _ = _horizon_table(cfg)
    assert cos.shape == sin.shape == (steps + 1,) + grid.half_shape
    _rows_per_block(monkeypatch, grid, rows)
    built = []

    def recorded(*args):
        built.append(_green_rows(*args))
        return built[-1]

    monkeypatch.setattr(solver, "_green_rows", recorded)
    assert len(list(_causal_sweep(cfg, np.zeros((steps,) + grid.shape)))) == steps + 1
    full, rest = divmod(steps + 1, rows)
    assert [len(c) for c, _ in built] == [rows] * full + [rest] * (rest > 0)
    assert np.array_equal(np.concatenate([c for c, _ in built]), cos)
    assert np.array_equal(np.concatenate([s for _, s in built]), sin)


def test_sweep_across_row_blocks_shares_the_picard_update_arithmetic(monkeypatch):
    _rows_per_block(monkeypatch, Grid(1, 16, 8.0), 16)
    trajectory, new = _sweep_then_update(1, 2, 37, 3, True, 950)
    assert np.array_equal(new, trajectory)


def _sweep_peak(grid, steps):
    """Peak traced allocation of a one-replica sweep_replicas over ``steps`` steps."""
    cfg = SolveConfig(grid, SpectralMeasure.white(2), 2, 1.0, 1.0 / steps,
                      Nonlinearity.sine(), LatticeField(grid, np.exp(-grid.coord_norm_sq)))
    sweep_replicas(cfg, [np.random.default_rng(0)])  # fills the grid's caches
    tracemalloc.start()
    try:
        sweep_replicas(cfg, [np.random.default_rng(1)])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_the_step_count(monkeypatch):
    # the sweep holds one block of table rows, so its peak allocation does not
    # depend on n; whole-horizon tables would take 3 (n + 1) half grids
    grid = Grid(2, 32, 8.0)
    short, long = _sweep_peak(grid, 256), _sweep_peak(grid, 2048)
    assert long <= 1.05 * short
    # with 16 rows a block, the peak is a small multiple of one field
    _rows_per_block(monkeypatch, grid, 16)
    field_bytes = 8 * grid.points_per_axis**grid.dimension
    assert _sweep_peak(grid, 64) <= 120 * field_bytes
    assert _sweep_peak(grid, 1024) <= 120 * field_bytes


# -- the memoized Green-pair table --------------------------------------------


def _clear_tables():
    solver._green_rows.cache_clear()
    solver._forcing_scale.cache_clear()


def _every_entry_point(cfg, seed):
    """What the picard experiment's six solves return on ``cfg``, as arrays."""
    path = sample_path(cfg.grid, cfg.measure, cfg.horizon, cfg.dt, np.random.default_rng(seed))
    sweep = explicit_sweep(cfg, path)
    pic, pic0 = picard_iterate(cfg, path), picard_iterate(cfg, path, initial="zero")
    rngs = [np.random.default_rng(seed + 1 + r) for r in range(3)]
    moments, kept = sweep_replicas(cfg, rngs, keep=(0, cfg.steps))
    rngs = [np.random.default_rng(seed + 1 + r) for r in range(3)]
    return [sweep.moments, sweep.snapshot_at(cfg.steps).values, pic.moments,
            pic.snapshot_at(cfg.steps).values, *pic.m_table, pic0.moments,
            picard_replicas(cfg, rngs, 4), moments, kept, deterministic_moments(cfg)]


def test_one_configuration_builds_its_green_pair_table_once():
    cfg = _basic_config(n=32, dt=1.0 / 32.0)
    _clear_tables()
    _every_entry_point(cfg, 900)
    # six solves, one sweep block each for the two sweeps; one build, five reads
    assert solver._green_rows.cache_info()[:2] == (5, 1)
    assert solver._forcing_scale.cache_info().misses == 1


def test_the_cached_table_is_read_only():
    cfg = _basic_config(n=32, dt=1.0 / 32.0)
    table = _horizon_table(cfg)
    assert table[0] is _horizon_table(cfg)[0]
    for arr in table:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_cold_and_warm_tables_give_the_same_bits():
    cfg = _basic_config(n=32, dt=1.0 / 32.0)
    _clear_tables()
    cold = _every_entry_point(cfg, 910)
    warm = _every_entry_point(cfg, 910)
    assert solver._green_rows.cache_info().misses == 1
    assert len(cold) == len(warm)
    assert all(np.array_equal(a, b) for a, b in zip(cold, warm))


@pytest.mark.parametrize("field", ["dt", "grid", "k"])
def test_a_config_changed_in_place_reads_its_own_table(field):
    cfg = _basic_config(n=32, dt=1.0 / 32.0)
    old = _horizon_table(cfg)
    if field == "dt":
        cfg.dt = 1.0 / 16.0
    elif field == "grid":
        cfg.grid = Grid(1, 32, 12.0)
        cfg.v0 = LatticeField(cfg.grid, np.exp(-cfg.grid.axis_coords**2))
    else:
        cfg.k = 2
    warm = [*_horizon_table(cfg), *_every_entry_point(cfg, 920)]
    _clear_tables()
    cold = [*_horizon_table(cfg), *_every_entry_point(cfg, 920)]
    assert not np.array_equal(warm[1], old[1])
    assert len(cold) == len(warm)
    assert all(np.array_equal(a, b) for a, b in zip(cold, warm))


# -- replica-batched sweep ----------------------------------------------------


def _replica_config(d=1, k=1, mask=False, v0_dot=False, weighted=False, measure=None):
    grid = Grid(d, 32 if d == 1 else 16, 8.0)
    r_sq = grid.coord_norm_sq
    return SolveConfig(
        grid=grid, measure=measure or SpectralMeasure.white(d), k=k, horizon=0.5, dt=1.0 / 32.0,
        nonlinearity=Nonlinearity.affine(0.5, 1.0) if weighted else Nonlinearity.sine(),
        v0=LatticeField(grid, np.exp(-r_sq)),
        v0_dot=LatticeField(grid, 0.3 * np.exp(-2.0 * r_sq)) if v0_dot else None,
        noise_mask=(r_sq <= 2.0).astype(float) if mask else None,
    )


@pytest.mark.parametrize("d, k, mask, v0_dot, weighted", [
    (1, 1, False, False, False),
    (1, 1, True, False, False),
    (1, 1, False, True, False),
    (1, 1, False, False, True),
    (1, 1, True, True, True),
    (2, 2, True, True, False),
])
def test_sweep_replicas_matches_per_replica_sweeps(monkeypatch, d, k, mask, v0_dot, weighted):
    # bit-identical to explicit_sweep on each replica's own sample_path, in blocks of 4
    cfg = _replica_config(d, k, mask, v0_dot, weighted)
    n = cfg.steps
    theta = (1.0 + cfg.grid.coord_norm_sq) ** -1.0 if weighted else None
    keep = (0, 1, n // 2, n)
    _blocks_of(monkeypatch, 4, math.prod(cfg.grid.half_shape))
    moments, kept = sweep_replicas(cfg, [np.random.default_rng(300 + r) for r in range(9)],
                                   theta=theta, keep=keep)
    assert moments.shape == (9, n + 1) and kept.shape == (9, len(keep)) + cfg.grid.shape
    cfg.snapshot_stride = 1
    for r in range(9):
        path = sample_path(cfg.grid, cfg.measure, cfg.horizon, cfg.dt,
                           np.random.default_rng(300 + r))
        ref = explicit_sweep(cfg, path, theta=theta)
        assert np.array_equal(moments[r], ref.moments)
        for i, j in enumerate(keep):
            assert np.array_equal(kept[r, i], ref.snapshot_at(j).values)


def _by_block_size(monkeypatch, entries, solve):
    """``solve()`` at the default blocks (20 replicas in one) and at blocks of 1 and 7."""
    results = [solve()]
    for count in (1, 7):
        _blocks_of(monkeypatch, count, entries)
        results.append(solve())
    return results


def test_sweep_replicas_is_independent_of_chunk_size(monkeypatch):
    cfg = _replica_config(mask=True, v0_dot=True)
    n = cfg.steps
    assert noise.replica_blocks(20, math.prod(cfg.grid.half_shape)) == [(0, 20, None)]
    results = _by_block_size(monkeypatch, math.prod(cfg.grid.half_shape), lambda: sweep_replicas(
        cfg, [np.random.default_rng(400 + r) for r in range(20)], keep=(n - 1, n)))
    for moments, kept in results[1:]:
        assert np.array_equal(moments, results[0][0])
        assert np.array_equal(kept, results[0][1])
    for keep in ((n + 1,), (n, n)):
        with pytest.raises(ValueError, match="kept steps"):
            sweep_replicas(cfg, [np.random.default_rng(0)], keep=keep)


# -- replica-batched Picard ---------------------------------------------------


@pytest.mark.parametrize("d, k, mask, v0_dot", [
    (d, k, mask, v0_dot)
    for d, k in ((1, 1), (2, 2)) for mask in (False, True) for v0_dot in (False, True)
])
def test_picard_replicas_match_per_path_solves(monkeypatch, d, k, mask, v0_dot):
    # row [r, i] is bit-identical to m_table[i] of picard_iterate on replica r's own path,
    # in blocks of 3
    cfg = _replica_config(d, k, mask, v0_dot)
    iterations = 4
    _blocks_of(monkeypatch, 3, (cfg.steps + 1) * math.prod(cfg.grid.half_shape))
    m = picard_replicas(cfg, [np.random.default_rng(600 + r) for r in range(5)], iterations)
    assert m.shape == (5, iterations, cfg.steps + 1)
    cfg.picard_tol = 0.0
    for r in range(5):
        path = sample_path(cfg.grid, cfg.measure, cfg.horizon, cfg.dt,
                           np.random.default_rng(600 + r))
        ref = picard_iterate(cfg, path)
        assert ref.iterations == cfg.steps + 2 > iterations and not ref.converged
        assert np.array_equal(m[r], np.array(ref.m_table[:iterations]))


def test_picard_replicas_is_independent_of_chunk_size(monkeypatch):
    cfg = _replica_config(mask=True, v0_dot=True)
    entries = (cfg.steps + 1) * math.prod(cfg.grid.half_shape)
    assert noise.replica_blocks(20, entries) == [(0, 20, None)]
    results = _by_block_size(monkeypatch, entries, lambda: picard_replicas(
        cfg, [np.random.default_rng(700 + r) for r in range(20)], 3))
    for m in results[1:]:
        assert np.array_equal(m, results[0])


def _noise_chunk_steps(monkeypatch):
    """Record the step count of every noise fill the solver makes."""
    steps = []

    def recorded(*args, **kwargs):
        steps.append(kwargs["steps"])
        return sample_slice_batch(*args, **kwargs)

    monkeypatch.setattr(solver, "sample_slice_batch", recorded)
    return steps


@pytest.mark.parametrize("kind", ["white", "riesz"])
def test_replica_noise_is_independent_of_the_step_chunk_size(monkeypatch, kind):
    # sweep and Picard replicas draw their noise in chunks of consecutive steps sized by
    # _BLOCK_ENTRIES; chunks of 1, 2 and 3 of the 16 steps (the last of 3 ragged) move no bit
    measure = SpectralMeasure.white(1) if kind == "white" else SpectralMeasure.riesz(1, 0.5)
    cfg = _replica_config(mask=True, v0_dot=True, measure=measure)
    n, replicas, field = cfg.steps, 5, math.prod(cfg.grid.shape)
    assert n == 16

    def gens():
        return [np.random.default_rng(1100 + r) for r in range(replicas)]

    steps = _noise_chunk_steps(monkeypatch)
    sweep = sweep_replicas(cfg, gens(), keep=(0, 7, n))
    picard = picard_replicas(cfg, gens(), 3)
    assert steps == [n, n]  # one chunk of the whole horizon each at the default size
    # a sweep block holds all 5 replicas, so chunks are _BLOCK_ENTRIES // (5 * field) steps;
    # a Picard block holds one replica here, so its chunks are _BLOCK_ENTRIES // field steps
    for size in (1, 2, 3):
        steps.clear()
        _blocks_of(monkeypatch, size * replicas, field)
        moments, kept = sweep_replicas(cfg, gens(), keep=(0, 7, n))
        assert steps == [size] * (n // size) + [n % size] * (n % size > 0)
        assert np.array_equal(moments, sweep[0]) and np.array_equal(kept, sweep[1])
        steps.clear()
        _blocks_of(monkeypatch, size, field)
        assert np.array_equal(picard_replicas(cfg, gens(), 3), picard)
        assert steps == ([size] * (n // size) + [n % size] * (n % size > 0)) * replicas


def _picard_replicas_peak(cfg, replicas):
    """Peak traced allocation of picard_replicas over ``replicas`` replicas."""
    picard_replicas(cfg, [np.random.default_rng(0)], 2)  # fills the grid's caches
    tracemalloc.start()
    try:
        picard_replicas(cfg, [np.random.default_rng(900 + r) for r in range(replicas)], 2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_picard_replicas_memory_does_not_grow_with_the_replica_count():
    # a replica holds its (n + 1)-row trajectory, so blocks here hold 26 replicas
    cfg = _replica_config(d=2, k=2)
    assert noise.replica_blocks(104, (cfg.steps + 1) * math.prod(cfg.grid.half_shape)) == \
        [(lo, lo + 26, None) for lo in range(0, 104, 26)]
    assert _picard_replicas_peak(cfg, 104) <= 1.05 * _picard_replicas_peak(cfg, 26)


def test_replica_batches_refuse_zero_replicas():
    # the count check is noise.replica_blocks's, made before anything is allocated
    cfg = _replica_config()
    with pytest.raises(ValueError, match="replicas must be at least 1, got 0"):
        sweep_replicas(cfg, [])
    with pytest.raises(ValueError, match="replicas must be at least 1, got 0"):
        picard_replicas(cfg, [], 3)


@pytest.mark.parametrize("steps", [4, 32])
def test_picard_iteration_is_one_batched_transform_pair(monkeypatch, steps):
    cfg = _replica_config(mask=True, v0_dot=True)
    cfg.dt, cfg.picard_tol = cfg.horizon / steps, 0.0
    path = sample_path(cfg.grid, cfg.measure, cfg.horizon, cfg.dt, np.random.default_rng(800))
    calls = {"forward": 0, "inverse": 0}

    def counted(name):
        original = getattr(Grid, name)

        def wrapper(self, arr, **kwargs):  # forward takes the forcing scale as multiplier=
            calls[name] += 1
            return original(self, arr, **kwargs)
        return wrapper

    monkeypatch.setattr(Grid, "forward", counted("forward"))
    monkeypatch.setattr(Grid, "inverse", counted("inverse"))
    table = _horizon_table(cfg)
    w_fields = solver._noise_fields(cfg, path)

    def counted_solve(iterations):
        before = dict(calls)
        solver._picard_loop(cfg, table, w_fields, solver._initial_guess(cfg, table, "u0"),
                            iterations, 0.0)
        return {k: calls[k] - before[k] for k in calls}

    counted_solve(1)  # fills the cached spectra of v0 and v0_dot
    one, three = counted_solve(1), counted_solve(3)
    assert {k: three[k] - one[k] for k in calls} == {"forward": 2, "inverse": 2}
    # the update itself, with a replica axis after time
    prev = np.random.default_rng(801).standard_normal((steps + 1, 3) + cfg.grid.shape)
    w_fields = np.random.default_rng(802).standard_normal((steps, 3) + cfg.grid.shape)
    before = dict(calls)
    new = _picard_update(cfg, _horizon_table(cfg), w_fields, prev)
    assert {k: calls[k] - before[k] for k in calls} == {"forward": 1, "inverse": 1}
    assert new.shape == prev.shape


# -- validation ---------------------------------------------------------------


@pytest.mark.parametrize("alpha", [Nonlinearity.affine(0.0, 1.0),
                                   Nonlinearity("cos", np.cos, 1.0)])
def test_validate_rejects_nonvanishing_alpha(alpha):
    # vanishing at zero is read off alpha(0), never declared
    cfg = _basic_config(alpha=alpha)
    with pytest.raises(ValueError, match="weighted"):
        cfg.validate()


def test_validate_rejects_inadmissible_measure():
    grid = Grid(2, 16, 8.0)
    cfg = SolveConfig(grid, SpectralMeasure.white(2), 1, 1.0, 1 / 16,
                      Nonlinearity.sine(), LatticeField(grid, np.zeros(grid.shape)))
    with pytest.raises(ValueError, match="admissibility"):
        cfg.validate()


def test_validate_step_count():
    grid = Grid(1, 64, 16.0)
    cfg = SolveConfig(grid, SpectralMeasure.white(1), 1, 1.0, 0.3,
                      Nonlinearity.sine(), LatticeField(grid, np.zeros(grid.shape)))
    with pytest.raises(ValueError, match="integer"):
        cfg.validate()


@pytest.mark.parametrize("misfit, match", [
    ("grid", "noise path grid"), ("dt", "noise path dt"), ("slices", "path provides 7 slices, 8"),
])
@pytest.mark.parametrize("consumer", ["explicit_sweep", "picard_iterate", "stochastic_convolution"])
def test_every_path_consumer_refuses_a_path_that_does_not_fit(misfit, match, consumer):
    # one path-fit rule (NoisePath.first): the grid, dt to 1e-12 relative, the slice count
    cfg = _basic_config(n=16, dt=0.125)
    grid, dt = cfg.grid, cfg.dt
    fields = sample_path(grid, cfg.measure, cfg.horizon, dt, np.random.default_rng(0)).fields
    z = IntegrandProcess.constant(grid, np.ones(grid.shape), cfg.steps, dt)
    solve = {"explicit_sweep": lambda path: explicit_sweep(cfg, path),
             "picard_iterate": lambda path: picard_iterate(cfg, path),
             "stochastic_convolution": lambda path: stochastic_convolution(cfg.green, z, path,
                                                                          cfg.horizon)}[consumer]
    solve(NoisePath(grid, dt * (1.0 + 1e-13), fields))  # within the tolerance
    bad = {"grid": NoisePath(Grid(1, 16, 2.0 * grid.box_length), dt, fields),
           "dt": NoisePath(grid, dt * (1.0 + 1e-9), fields),
           "slices": NoisePath(grid, dt, fields[:-1])}[misfit]
    with pytest.raises(ValueError, match=match):
        solve(bad)


# -- moments ------------------------------------------------------------------


@pytest.mark.parametrize("d, k", [(1, 1), (2, 2)])
def test_deterministic_moments_match_the_closed_form(d, k):
    cfg = _replica_config(d=d, k=k, v0_dot=True)
    theta = 1.0 + cfg.grid.coord_norm_sq
    for weight in (None, theta):
        expected = np.array([cfg.grid.cell_volume * np.sum(
            deterministic_part(cfg, j * cfg.dt).values ** 2 * (1.0 if weight is None else weight))
            for j in range(cfg.steps + 1)])
        got = deterministic_moments(cfg, weight)
        assert got.shape == expected.shape
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


def test_moment_track_zero_alpha_exact():
    cfg = _basic_config(alpha=Nonlinearity.affine(0.0, 0.0), dt=1.0 / 32.0)
    reports = []
    for r in range(30):
        path = sample_path(cfg.grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(100 + r))
        reports.append(explicit_sweep(cfg, path))
    summary = moment_track(np.stack([r.moments for r in reports]), cfg)
    u0_sq = np.array([l2_norm(deterministic_part(cfg, t)) ** 2 for t in summary.times])
    assert np.allclose(summary.mean, u0_sq, rtol=1e-12)
    # replicas are identical; only mean-rounding noise remains
    assert np.all(summary.std_error <= 1e-14 * summary.mean.max())
    assert np.all(summary.mean <= summary.envelope + 3.0 * summary.std_error + 1e-12)


def test_moment_track_needs_replicas():
    cfg = _basic_config()
    with pytest.raises(ValueError, match="30"):
        moment_track([], cfg)


def test_moment_track_rejects_lipschitz_above_one():
    # the envelope 2||u0||**2 exp(2KCt) is only valid for K <= 1
    cfg = _basic_config(alpha=Nonlinearity.affine(2.0, 0.0))
    with pytest.raises(ValueError, match="Lipschitz"):
        moment_track(np.ones((30, cfg.steps + 1)), cfg)


def test_gronwall_constant_checks_admissibility_once(monkeypatch):
    from stochwave import greens, solver

    cfg = _basic_config(dt=1.0 / 16.0)
    expected = max(greens.j_functional(cfg.green, cfg.measure, j * cfg.dt, cfg.grid)
                   for j in range(1, cfg.steps + 1))
    calls = []
    verdict = greens.admissible
    monkeypatch.setattr(greens, "admissible",
                        lambda measure, k: calls.append(k) or verdict(measure, k))
    assert solver.gronwall_constant(cfg) == expected
    assert calls == [cfg.k]
    cfg.grid, cfg.measure = Grid(2, 8, 8.0), SpectralMeasure.white(2)  # d = 2 needs k >= 2
    with pytest.raises(ValueError, match="admissibility"):
        solver.gronwall_constant(cfg)


def test_white_noise_solve_paths_run_no_quadrature(monkeypatch):
    # admissibility is read from the tail exponent, so no gate needs QUADPACK
    from scipy import integrate

    from stochwave import greens, weighted
    from stochwave.covariance import admissibility_integral
    from stochwave.stochint import IntegrandProcess

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature on a solve path")

    monkeypatch.setattr(integrate, "quad", no_quadrature)
    with pytest.raises(AssertionError, match="quadrature"):
        # the patch is live: a radial table's finite value is a quadrature
        admissibility_integral(SpectralMeasure.radial_table(1, [0.1, 1.0, 10.0], [1.0, 0.5, 0.1],
                                                            tail_exponent=-3.0), 1)
    cfg = _basic_config(dt=1.0 / 16.0)
    cfg.validate()
    path = sample_path(cfg.grid, cfg.measure, cfg.horizon, cfg.dt, np.random.default_rng(3))
    assert explicit_sweep(cfg, path).moments.shape == (cfg.steps + 1,)
    assert solver.gronwall_constant(cfg) > 0.0
    assert greens.j_functional(cfg.green, cfg.measure, 0.5, cfg.grid) > 0.0
    z = IntegrandProcess.constant(cfg.grid, np.exp(-cfg.grid.coord_norm_sq), 4, 0.25)
    streams = [np.random.Generator(np.random.Philox(s))
               for s in np.random.SeedSequence(4).spawn(4)]
    res = weighted.weighted_isometry_bound(cfg.green, z, cfg.measure, weighted.Weight(2.0), 4,
                                           streams)
    assert res.bound > 0.0 and res.std_error > 0.0


def test_moment_envelope_linear_alpha():
    cfg = _basic_config(alpha=Nonlinearity.identity(), dt=1.0 / 32.0, n=64)
    reports = []
    for r in range(60):
        path = sample_path(cfg.grid, cfg.measure, 1.0, cfg.dt, np.random.default_rng(200 + r))
        reports.append(explicit_sweep(cfg, path))
    summary = moment_track(np.stack([r.moments for r in reports]), cfg)
    assert np.all(summary.mean <= summary.envelope + 3.0 * summary.std_error + 1e-12)
