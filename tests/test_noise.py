import math

import numpy as np
import pytest

from stochwave.covariance import SpectralMeasure
from stochwave.lattice import Grid
from stochwave.noise import (
    NoisePath,
    _spectral_scale,
    mean_se,
    replica_blocks,
    sample_path,
    sample_slice,
    sample_slice_batch,
)


@pytest.fixture
def grid():
    return Grid(1, 32, 8.0)


def test_rejects_bad_dt(grid):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_slice(grid, SpectralMeasure.white(1), 0.0, rng)
    with pytest.raises(ValueError):
        sample_slice(grid, SpectralMeasure.white(1), -0.1, rng)


def test_path_step_count(grid):
    m = SpectralMeasure.white(1)
    rng = np.random.default_rng(1)
    assert len(sample_path(grid, m, 0.0, 0.25, rng)) == 0
    assert len(sample_path(grid, m, 1.0, 0.25, rng)) == 4
    with pytest.raises(ValueError, match="integer"):
        sample_path(grid, m, 1.0, 0.3, rng)


def test_path_deterministic_in_seed(grid):
    m = SpectralMeasure.riesz(1, 0.5)
    p1 = sample_path(grid, m, 1.0, 0.25, np.random.default_rng(42))
    p2 = sample_path(grid, m, 1.0, 0.25, np.random.default_rng(42))
    assert np.array_equal(p1.fields, p2.fields)


def test_slice_field_is_real_and_hermitian(grid):
    m = SpectralMeasure.riesz(1, 0.5)
    s = sample_slice(grid, m, 0.1, np.random.default_rng(3))
    spectrum = grid.full_forward(s)
    mirrored = np.roll(np.flip(spectrum), 1)  # at -eta: index j -> -j mod N
    assert np.allclose(spectrum, np.conj(mirrored), atol=1e-10 * np.abs(spectrum).max())
    assert s.dtype == np.float64 and s.shape == grid.shape


def test_white_noise_cells_iid():
    # cell variance dt/h**d; off-diagonal correlations at the MC floor
    grid = Grid(1, 16, 4.0)
    m = SpectralMeasure.white(1)
    dt, reps = 0.2, 10_000
    fields = sample_slice_batch(grid, m, dt, [np.random.default_rng(4)] * reps)
    target = dt / grid.spacing
    var = fields.var(axis=0)
    assert np.all(np.abs(var - target) < 3.0 * target * np.sqrt(2.0 / reps) + 0.02 * target)
    corr = np.corrcoef(fields.T)
    off = corr[~np.eye(16, dtype=bool)]
    assert np.max(np.abs(off)) < 4.0 / np.sqrt(reps)


def test_variance_scales_linearly_in_dt():
    # slice at dt vs sum of two independent slices at dt/2, in law
    grid = Grid(1, 16, 4.0)
    m = SpectralMeasure.riesz(1, 0.5)
    reps = 10_000
    rng = np.random.default_rng(5)
    full = sample_slice_batch(grid, m, 0.2, [rng] * reps)
    half = sample_slice_batch(grid, m, 0.1, [rng] * reps) + sample_slice_batch(grid, m, 0.1, [rng] * reps)
    v1, v2 = full.var(axis=0), half.var(axis=0)
    se = v1 * np.sqrt(2.0 / reps)
    assert np.all(np.abs(v1 - v2) < 4.0 * se + 3.0 * v2 * np.sqrt(2.0 / reps))


def test_slices_independent_across_time(grid):
    m = SpectralMeasure.white(1)
    reps = 4000
    rng = np.random.default_rng(6)
    probe = np.exp(-grid.axis_coords**2)
    pairs = np.empty((reps, 2))
    for r in range(reps):
        path = sample_path(grid, m, 0.5, 0.25, rng)
        pairs[r, 0] = grid.cell_volume * np.sum(probe * path.fields[0])
        pairs[r, 1] = grid.cell_volume * np.sum(probe * path.fields[1])
    corr = np.corrcoef(pairs.T)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(reps)


def test_homogeneity_and_covariance_against_spectrum():
    # empirical lag covariance must match the exact discrete covariance
    # dt * sum_j D_j cos(eta_j z) within Monte Carlo error, and that
    # discrete covariance must track the continuum |z|^(-alpha) kernel
    grid = Grid(1, 256, 32.0)
    alpha, dt, reps = 0.5, 0.25, 8000
    m = SpectralMeasure.riesz(1, alpha)
    weights = m.lattice_weights(grid)
    eta = grid.axis_freqs
    fields = sample_slice_batch(grid, m, dt, [np.random.default_rng(7)] * reps)
    for lag in (1.0, 2.0, 3.0, 4.0, 6.0):
        shift = int(round(lag / grid.spacing))
        per_rep = np.mean(fields * np.roll(fields, shift, axis=1), axis=1)
        emp, se = per_rep.mean(), per_rep.std(ddof=1) / np.sqrt(reps)
        exact = dt * float(np.sum(weights * np.cos(eta * lag)))
        assert abs(emp - exact) < 3.5 * se
        # band-limited periodized model vs the continuum power law
        assert exact / dt == pytest.approx(lag**-alpha, rel=0.05)


def test_slice_batch_with_per_replica_generators(grid):
    # a batch fed by per-replica streams equals the per-replica slices,
    # for the scalar (white) filter and for the transform pair (riesz)
    for m in (SpectralMeasure.white(1), SpectralMeasure.riesz(1, 0.5)):
        gens = [np.random.default_rng(100 + r) for r in range(5)]
        batch = sample_slice_batch(grid, m, 0.1, gens)
        singles = [sample_slice(grid, m, 0.1, np.random.default_rng(100 + r)) for r in range(5)]
        assert np.allclose(batch, np.stack(singles), atol=0)


def test_replica_blocks_split_counts_and_generators():
    # max(1, min(256, 2**16 // entries)) items a block, the last block partial
    for entries, size in ((1, 256), (256, 256), (257, 255), (2**16, 1), (2**17, 1)):
        blocks = replica_blocks(600, entries)
        full, rest = divmod(600, size)
        assert [hi - lo for lo, hi, _ in blocks] == [size] * full + [rest] * (rest > 0)
        assert [lo for lo, _, _ in blocks] == list(range(0, 600, size))
        assert all(gens is None for _, _, gens in blocks)
    gens = [np.random.default_rng(r) for r in range(7)]
    blocks = replica_blocks(7, 2**14, gens)  # 4 replicas a block
    assert [(lo, hi) for lo, hi, _ in blocks] == [(0, 4), (4, 7)]
    assert all(b[2] == gens[b[0]:b[1]] for b in blocks)
    with pytest.raises(ValueError, match="rng"):  # one stream shared by the blocks
        replica_blocks(7, 2**14, np.random.default_rng(0))


@pytest.mark.parametrize("replicas, generators, match", [
    (0, None, "replicas must be at least 1, got 0"),
    (-1, None, "replicas must be at least 1, got -1"),
    (-1, 0, "replicas must be at least 1, got -1"),
    (4, 3, "rng holds 3 generators, replicas is 4"),
    (4, 5, "rng holds 5 generators, replicas is 4"),
])
def test_replica_blocks_refuse_bad_counts(replicas, generators, match):
    rng = None if generators is None else [np.random.default_rng(r) for r in range(generators)]
    with pytest.raises(ValueError, match=match):
        replica_blocks(replicas, 1, rng)


@pytest.mark.parametrize("replicas", [2, 30, 1000])
def test_mean_se_equals_the_replica_reductions_it_replaces(replicas):
    # skewed squared-norm-like samples; 1,000 crosses numpy's pairwise-sum blocks
    rng = np.random.default_rng(replicas)
    norms = 3.7 * rng.standard_normal(replicas) ** 2
    trajectories = 3.7 * rng.standard_normal((replicas, 33)) ** 2
    mean, se = mean_se(norms)
    # the Monte Carlo estimators (stochint.convolution_moment_mc, weighted.weighted_isometry_bound)
    assert float(mean) == float(np.mean(norms))
    assert float(se) == float(np.std(norms, ddof=1) / math.sqrt(replicas))
    # the refinement experiment, which reduces a list of floats
    listed = [float(v) for v in norms]
    vals = np.array(listed)
    assert (float(mean_se(listed)[0]), float(mean_se(listed)[1])) == \
        (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicas)))
    # the moment tracks, one trajectory a replica on the leading axis
    mean, se = mean_se(trajectories)
    assert np.array_equal(mean, trajectories.mean(axis=0))
    assert np.array_equal(se, trajectories.std(axis=0, ddof=1) / math.sqrt(len(trajectories)))


@pytest.mark.parametrize("samples", [[], [2.5], np.ones((1, 4)), np.ones((0, 4))])
def test_mean_se_refuses_fewer_than_two_samples(samples):
    with pytest.raises(ValueError, match="at least 2 samples"):
        mean_se(samples)


def _round_trip(grid, measure, dt, white):
    """The filtered slice through the half-spectrum transform pair."""
    return grid.inverse(_spectral_scale(grid, measure, dt) * grid.forward(white))


@pytest.mark.parametrize("d, n", [(1, 32), (2, 16), (3, 8)])
@pytest.mark.parametrize("per_replica", [False, True])
def test_white_slice_equals_the_transform_round_trip(d, n, per_replica):
    # a constant filter is one scalar: the pair it skips is the identity up to rounding
    grid = Grid(d, n, 6.0)
    m = SpectralMeasure.white(d)
    count, dt = 4, 0.1
    if per_replica:
        rng = [np.random.default_rng(200 + r) for r in range(count)]
        white = np.stack([np.random.default_rng(200 + r).standard_normal(grid.shape)
                          for r in range(count)])
    else:
        rng = [np.random.default_rng(200)] * count
        white = np.random.default_rng(200).standard_normal((count,) + grid.shape)
    batch = sample_slice_batch(grid, m, dt, rng)
    reference = _round_trip(grid, m, dt, white)
    assert np.max(np.abs(batch - reference)) <= 1e-14 * np.max(np.abs(reference))
    scale = _spectral_scale(grid, m, dt)
    assert np.array_equal(batch, white * scale.flat[0])
    assert scale.flat[0] == pytest.approx(np.sqrt(dt / grid.cell_volume), rel=1e-14)


@pytest.mark.parametrize("kind", ["white", "riesz"])
def test_only_a_varying_filter_runs_the_transform_pair(monkeypatch, kind):
    grid = Grid(2, 16, 6.0)
    m = SpectralMeasure.white(2) if kind == "white" else SpectralMeasure.riesz(2, 1.0)
    calls = []
    for name in ("forward", "inverse"):
        original = getattr(Grid, name)

        def counted(self, arr, out=None, _name=name, _original=original):
            calls.append(_name)
            return _original(self, arr, out=out)

        monkeypatch.setattr(Grid, name, counted)
    gens = [np.random.default_rng(300 + r) for r in range(3)]
    sample_slice_batch(grid, m, 0.1, gens)
    assert calls == ([] if kind == "white" else ["forward", "inverse"])


@pytest.mark.parametrize("kind", ["white", "riesz"])
def test_the_half_grid_filter_is_restricted_once_per_grid(monkeypatch, kind):
    # the evenness check of Grid.half runs on the first batch only, and the
    # memoized weights give the same slices as a fresh restriction
    grid = Grid(2, 16, 6.0)
    m = SpectralMeasure.white(2) if kind == "white" else SpectralMeasure.riesz(2, 1.0)
    fresh = grid.half(SpectralMeasure(2, m.kind, alpha=m.alpha).lattice_weights(grid))
    weights = m.lattice_weights(grid)
    restrictions = []
    original = Grid.half

    def counted(self, multiplier):
        restrictions.append(multiplier is weights)  # the transforms restrict their own scales
        return original(self, multiplier)

    monkeypatch.setattr(Grid, "half", counted)
    batches = [sample_slice_batch(grid, m, 0.1, [np.random.default_rng(400)] * 2) for _ in range(3)]
    assert sum(restrictions) == 1
    assert all(np.array_equal(b, batches[0]) for b in batches)
    assert np.array_equal(_spectral_scale(grid, m, 0.1), np.sqrt(0.1 * grid.points_per_axis**2 * fresh))


@pytest.mark.parametrize("kind", ["white", "riesz"])
@pytest.mark.parametrize("per_replica", [False, True])
def test_slices_drawn_into_caller_buffers_equal_the_allocating_draw(kind, per_replica):
    # the rows and the spectrum work space are leading views of larger,
    # junk-filled buffers, as the Monte Carlo kernel's reused ones are
    grid = Grid(2, 16, 6.0)
    m = SpectralMeasure.white(2) if kind == "white" else SpectralMeasure.riesz(2, 1.0)

    def rng():
        return ([np.random.default_rng(500 + r) for r in range(3)] if per_replica
                else [np.random.default_rng(500)] * 3)

    ref = sample_slice_batch(grid, m, 0.1, rng())
    rows = np.full((5,) + grid.shape, np.nan)[:3]
    work = np.full((5,) + grid.half_shape, np.nan, dtype=complex)[:3]
    assert sample_slice_batch(grid, m, 0.1, rng(), out=rows, work=work) is rows
    assert np.array_equal(rows, ref)
    # the work space is optional
    assert np.array_equal(sample_slice_batch(grid, m, 0.1, rng(), out=np.empty_like(ref)), ref)


def test_slice_batch_refuses_rows_of_the_wrong_shape_or_dtype():
    grid = Grid(2, 16, 6.0)
    m = SpectralMeasure.riesz(2, 1.0)
    for out in (np.empty((2,) + grid.shape), np.empty((3,) + grid.shape, dtype=np.float32),
                np.empty((3,) + grid.half_shape)):
        with pytest.raises(ValueError, match="out must be"):
            sample_slice_batch(grid, m, 0.1, [np.random.default_rng(0)] * 3, out=out)
    with pytest.raises(ValueError, match="out must be"):
        sample_slice_batch(grid, m, 0.1, [np.random.default_rng(0)] * 3, out=np.empty((3,) + grid.shape),
                           work=np.empty((3,) + grid.shape, dtype=complex))
