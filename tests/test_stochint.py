import math

import numpy as np
import pytest

import stochwave.noise as noise
from stochwave.covariance import SpectralMeasure
from stochwave.greens import GreenMultiplier, j_functional
from stochwave.lattice import Grid, LatticeField, l2_norm
from stochwave.noise import NoisePath, sample_path
from stochwave.stochint import (
    IntegrandProcess,
    Mollifier,
    convolution_moment_mc,
    convolution_norms_mc,
    isometry_alternative,
    isometry_bound,
    isometry_functional,
    ladder_distance,
    stochastic_convolution,
    truncation_distance,
)


@pytest.fixture
def setup():
    grid = Grid(1, 32, 8.0)
    measure = SpectralMeasure.white(1)
    g = GreenMultiplier(1, 1.0)
    steps, dt = 4, 0.25
    z = IntegrandProcess.constant(grid, np.exp(-grid.axis_coords**2), steps, dt)
    return grid, measure, g, z, dt


@pytest.mark.parametrize("shape", [(16,), (8, 8), (16, 16, 1)])
def test_integrand_rejects_fields_off_the_grid_shape(shape):
    # a (16,) row would broadcast silently over the d = 2 grid
    grid = Grid(2, 16, 6.0)
    with pytest.raises(ValueError, match="grid shape"):
        IntegrandProcess.constant(grid, np.ones(shape), 3, 0.25)
    with pytest.raises(ValueError, match="steps"):
        IntegrandProcess(grid, 0.25, np.ones((3,) + shape))


@pytest.mark.parametrize("constant", [True, False])
def test_spectra_sq_is_one_batched_forward(monkeypatch, constant):
    grid = Grid(2, 16, 6.0)
    z = (IntegrandProcess.constant(grid, np.exp(-grid.coord_norm_sq), 5, 0.2) if constant
         else _varying_integrand(grid, 5, 0.2))
    calls = []
    forward = Grid.full_forward

    def counted(self, values):
        calls.append(np.shape(values))
        return forward(self, values)

    monkeypatch.setattr(Grid, "full_forward", counted)
    spectra = z.spectra_sq()
    assert z.is_constant == constant
    assert calls == [(1 if constant else 5,) + grid.shape]  # a constant Z transforms one field
    assert spectra.shape == (5,) + grid.shape
    for i in range(5):
        assert np.array_equal(spectra[i], np.abs(forward(grid, z.fields[i])) ** 2)


class _IdentityKernel:
    """Green stand-in whose multiplier is identically one."""

    k = 1
    horizon = 10.0

    def lattice_spectrum(self, grid, t):
        return np.ones(grid.shape)


def test_convolution_zero_integrand(setup):
    grid, measure, g, _, dt = setup
    z0 = IntegrandProcess.constant(grid, np.zeros(grid.shape), 4, dt)
    path = sample_path(grid, measure, 1.0, dt, np.random.default_rng(0))
    out = stochastic_convolution(g, z0, path, 1.0)
    assert np.max(np.abs(out.values)) < 1e-14


def test_convolution_identity_kernel_reduces_to_plain_sum(setup):
    grid, measure, _, z, dt = setup
    path = sample_path(grid, measure, 1.0, dt, np.random.default_rng(1))
    out = stochastic_convolution(_IdentityKernel(), z, path, 1.0)
    direct = sum(z.fields[i] * path.fields[i] for i in range(4))
    assert np.max(np.abs(out.values - direct)) < 1e-10 * np.max(np.abs(direct))


def test_convolution_off_grid_time_rejected(setup):
    grid, measure, g, z, dt = setup
    path = sample_path(grid, measure, 1.0, dt, np.random.default_rng(3))
    with pytest.raises(ValueError, match="step grid"):
        stochastic_convolution(g, z, path, 0.37)


def test_future_slices_do_not_affect_past_values(setup):
    # adaptedness made literal: permuting slices after step m leaves
    # v(t_m) bitwise unchanged
    grid, measure, g, z, dt = setup
    path = sample_path(grid, measure, 1.0, dt, np.random.default_rng(4))
    before = stochastic_convolution(g, z, path, 0.5).values
    permuted = NoisePath(grid, dt, path.fields[[0, 1, 3, 2]])
    after = stochastic_convolution(g, z, permuted, 0.5).values
    assert np.array_equal(before, after)


def test_isometry_explicit_summation_oracle():
    # independent code path: nested loops over (step, xi, eta) with
    # wrapped index arithmetic
    grid = Grid(1, 16, 4.0)
    measure = SpectralMeasure.riesz(1, 0.5)
    g = GreenMultiplier(1, 1.0)
    steps, dt = 2, 0.25
    rng = np.random.default_rng(5)
    fields = rng.standard_normal((steps,) + grid.shape)
    z = IntegrandProcess(grid, dt, fields)
    fast = isometry_functional(g, z, measure)

    n = grid.points_per_axis
    weights = measure.lattice_weights(grid)
    total = 0.0
    for i in range(steps):
        mult = g.lattice_spectrum(grid, 0.5 - i * dt)
        spec_sq = np.abs(grid.full_forward(fields[i])) ** 2
        for jx in range(n):
            inner = 0.0
            for je in range(n):
                inner += weights[je] * mult[(jx - je) % n] ** 2
            total += dt * spec_sq[jx] * inner / grid.box_length
    assert fast == pytest.approx(total, rel=1e-12)


def test_single_step_closed_form_and_mc():
    # one slice, constant integrand: E||v||^2 = dt sum_j D_j |M(eta_j)|^2
    # times ||Z||^2-weighting collapses to the explicit spectral sum
    grid = Grid(1, 32, 8.0)
    measure = SpectralMeasure.white(1)
    g = GreenMultiplier(1, 1.0)
    dt = 0.5
    z = IntegrandProcess.constant(grid, np.ones(grid.shape), 1, dt)
    expected = isometry_functional(g, z, measure)

    mult = g.lattice_spectrum(grid, dt)
    weights = measure.lattice_weights(grid)
    ones_spec_sq = np.abs(grid.full_forward(z.fields[0])) ** 2
    closed = dt * float(np.sum(
        ones_spec_sq * np.fft.ifft(np.fft.fft(weights) * np.fft.fft(mult**2)).real
    )) / grid.box_length
    assert expected == pytest.approx(closed, rel=1e-12)

    mc, se = convolution_moment_mc(g, z, measure, 4000, _streams(6, 4000))
    assert abs(mc - expected) <= 3.0 * se


@pytest.mark.parametrize("kind,alpha,k", [("white", None, 1), ("riesz", 0.5, 1), ("riesz", 0.5, 2)])
def test_isometry_mc_agreement_small(kind, alpha, k):
    grid = Grid(1, 32, 8.0)
    measure = SpectralMeasure.white(1) if kind == "white" else SpectralMeasure.riesz(1, alpha)
    g = GreenMultiplier(k, 1.0)
    z = IntegrandProcess.constant(grid, np.exp(-grid.axis_coords**2), 4, 0.25)
    ival = isometry_functional(g, z, measure)
    mc, se = convolution_moment_mc(g, z, measure, 2000, _streams(7, 2000))
    assert abs(mc - ival) <= 3.0 * se


def _streams(seed, replicas):
    # one Philox stream a replica, spawned from the test's seed
    return [np.random.Generator(np.random.Philox(s))
            for s in np.random.SeedSequence(seed).spawn(replicas)]


def _up_to(z, t):
    # the integrand's steps before t, so that its horizon is t
    return z if t is None else IntegrandProcess(z.grid, z.dt, z.fields[:round(t / z.dt)])


def _varying_integrand(grid, steps, dt):
    r_sq = grid.coord_norm_sq
    fields = np.stack([np.exp(-r_sq / (1.0 + i)) * (1.0 + 0.3 * i) for i in range(steps)])
    return IntegrandProcess(grid, dt, fields)


def _plancherel(grid):
    vol = grid.box_length**grid.dimension
    return lambda acc: grid.half_sum(np.abs(acc) ** 2) / vol


def _block_rows(monkeypatch, grid, rows):
    # Monte Carlo blocks of ``rows`` replicas on this grid
    monkeypatch.setattr(noise, "_BLOCK_ENTRIES", rows * math.prod(grid.half_shape))


def _norms_by_block_size(monkeypatch, g, z, measure, seed):
    # norms of 20 replicas at the default block (all 20 in one) and at 1 and 7 rows a block
    grid = z.grid
    runs, blocks = [], []
    for rows in (None, 1, 7):
        if rows is not None:
            _block_rows(monkeypatch, grid, rows)
        sizes = []
        plancherel = _plancherel(grid)

        def norm_sq(acc):
            sizes.append(len(acc))
            return plancherel(acc)

        runs.append(convolution_norms_mc(g, z, measure, 20,
                                         [np.random.default_rng(seed + r) for r in range(20)],
                                         norm_sq))
        blocks.append(sizes)
    assert blocks == [[20], [1] * 20, [7, 7, 6]]
    return runs


def test_convolution_norms_mc_is_independent_of_chunk_size(monkeypatch):
    grid = Grid(2, 16, 6.0)
    runs = _norms_by_block_size(monkeypatch, GreenMultiplier(1, 1.0),
                                _varying_integrand(grid, 5, 0.2), SpectralMeasure.riesz(2, 0.5), 300)
    assert np.all(runs[0] > 0)
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])


def test_white_convolution_norms_mc_is_independent_of_chunk_size(monkeypatch):
    # white slices are scaled draws with no transform; the block still must not matter
    grid = Grid(2, 16, 6.0)
    runs = _norms_by_block_size(monkeypatch, GreenMultiplier(2, 1.0),
                                _varying_integrand(grid, 5, 0.2), SpectralMeasure.white(2), 500)
    assert np.all(runs[0] > 0)
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])


def test_mc_blocks_are_sized_by_half_grid_entries():
    # blocks bound memory only: each replica draws from its own stream, so
    # the block size moves no value (the *_independent_of_chunk_size tests)
    for d, n, rows in ((1, 32, 256), (1, 256, 256), (1, 512, 255), (2, 16, 256),
                       (2, 64, 31), (3, 32, 3), (3, 64, 1)):
        grid = Grid(d, n, 6.0)
        sizes = []

        def norm_sq(acc):
            sizes.append(len(acc))
            return np.zeros(len(acc))

        z = IntegrandProcess.constant(grid, np.zeros(grid.shape), 0, 0.1)
        convolution_norms_mc(GreenMultiplier(1, 1.0), z, SpectralMeasure.white(d), 300,
                             _streams(0, 300), norm_sq)
        full, rest = divmod(300, rows)
        assert sizes == [rows] * full + [rest] * (rest > 0)


def test_mc_peak_memory_does_not_grow_with_replicas():
    import tracemalloc

    grid = Grid(2, 32, 6.0)
    z = IntegrandProcess.constant(grid, np.exp(-grid.coord_norm_sq), 4, 0.25)
    g, measure = GreenMultiplier(1, 1.0), SpectralMeasure.riesz(2, 0.5)
    block = noise._BLOCK_ENTRIES // math.prod(grid.half_shape)
    assert block == 120

    def peak(replicas):
        rng = _streams(1, replicas)
        tracemalloc.start()
        try:
            convolution_norms_mc(g, z, measure, replicas, rng, _plancherel(grid))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_block, many = peak(block), peak(1024)
    assert many <= 1.05 * one_block


@pytest.mark.parametrize("kind", ["white", "riesz"])
def test_mc_peak_memory_is_its_buffers_plus_one_block(kind):
    # the kernel owns one real and two complex block buffers and its
    # multiplier table; the Plancherel norm adds two real half-grid
    # squares, one complex block, and a real-to-complex product casts
    # through one numpy ufunc buffer of getbufsize() complex entries
    import tracemalloc

    grid = Grid(2, 32, 6.0)
    steps = 4
    z = _varying_integrand(grid, steps, 0.25)
    measure = SpectralMeasure.white(2) if kind == "white" else SpectralMeasure.riesz(2, 0.5)
    g = GreenMultiplier(1, 1.0)
    rows = noise._BLOCK_ENTRIES // math.prod(grid.half_shape)
    replicas = 3 * rows - 1
    real_block = rows * math.prod(grid.shape) * 8
    complex_block = rows * math.prod(grid.half_shape) * 16
    mults = steps * math.prod(grid.half_shape) * 8
    bound = real_block + 3 * complex_block + mults + np.getbufsize() * 16
    gens = [np.random.default_rng(r) for r in range(replicas)]
    convolution_norms_mc(g, z, measure, replicas, gens, _plancherel(grid))  # warm caches
    gens = [np.random.default_rng(r) for r in range(replicas)]
    tracemalloc.start()
    try:
        convolution_norms_mc(g, z, measure, replicas, gens, _plancherel(grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert real_block + 2 * complex_block < peak <= bound


@pytest.mark.parametrize("replicas, generators, match", [
    (0, None, "replicas"), (-1, None, "replicas"), (0, 0, "replicas"),
    (4, 6, "rng"), (4, 3, "rng"), (4, None, "rng"),
])
def test_convolution_mc_refuses_bad_replica_counts(setup, replicas, generators, match):
    grid, measure, g, z, dt = setup
    rng = (np.random.default_rng(2) if generators is None
           else [np.random.default_rng(r) for r in range(generators)])
    with pytest.raises(ValueError, match=match):
        convolution_norms_mc(g, z, measure, replicas, rng, _plancherel(grid))
    with pytest.raises(ValueError, match=match):
        convolution_moment_mc(g, z, measure, replicas, rng)


@pytest.mark.parametrize("replicas", [1, 0, -1])
def test_convolution_moment_mc_needs_two_replicas_for_a_standard_error(setup, replicas):
    grid, measure, g, z, dt = setup
    with pytest.raises(ValueError, match="must be >= 2"):
        convolution_moment_mc(g, z, measure, replicas, np.random.default_rng(2))


@pytest.mark.parametrize("d, n", [(1, 32), (2, 16)])
@pytest.mark.parametrize("t", [1.0, 0.6])
def test_convolution_norms_mc_replica_equals_its_own_path(monkeypatch, d, n, t):
    # replica r consumes its own stream slice by slice, so its norm on
    # the integrand's steps before t is the direct history sum at t over
    # sample_path drawn from the same stream
    grid = Grid(d, n, 6.0)
    measure = SpectralMeasure.riesz(d, 0.5)
    g = GreenMultiplier(1, 1.0)
    dt, reps = 0.2, 6
    z = _varying_integrand(grid, 5, dt)
    _block_rows(monkeypatch, grid, 4)
    norms = convolution_norms_mc(g, _up_to(z, t), measure, reps,
                                 [np.random.default_rng(400 + r) for r in range(reps)],
                                 _plancherel(grid))
    for r in range(reps):
        path = sample_path(grid, measure, t, dt, np.random.default_rng(400 + r))
        direct = l2_norm(stochastic_convolution(g, z, path, t)) ** 2
        assert abs(norms[r] - direct) <= 1e-12 * direct


def test_isometry_alternative_agreement_time_varying():
    # non-constant integrand exercises the general modulation path
    grid = Grid(1, 16, 4.0)
    measure = SpectralMeasure.riesz(1, 0.5)
    g = GreenMultiplier(1, 1.0)
    rng = np.random.default_rng(8)
    z = IntegrandProcess(grid, 0.25, rng.standard_normal((3,) + grid.shape))
    a = isometry_functional(g, z, measure)
    b = isometry_alternative(g, z, measure)
    assert b == pytest.approx(a, rel=1e-8)
    z0 = IntegrandProcess.constant(grid, np.zeros(grid.shape), 3, 0.25)
    assert isometry_alternative(g, z0, measure) == 0.0


def _zero_core_table(d):
    # zero density for |eta| <= 2.5, so isometry_alternative skips those
    # dual frequencies and its last block is partial
    return SpectralMeasure.radial_table(d, [1.5, 2.5, 4.0], [0.0, 0.0, 1.0], tail_exponent=-3.0)


@pytest.mark.parametrize("d, n, k, measure", [
    (2, 16, 1, SpectralMeasure.riesz(2, 1.0)),
    (2, 16, 2, _zero_core_table(2)),
    (3, 8, 2, SpectralMeasure.riesz(3, 1.5)),
    (3, 8, 1, _zero_core_table(3)),
])
@pytest.mark.parametrize("constant", [True, False])
@pytest.mark.parametrize("t", [None, 0.5])
def test_isometry_alternative_agrees_in_higher_dimensions(d, n, k, measure, constant, t):
    from stochwave.stochint import _MODULATION_BLOCK

    grid = Grid(d, n, 6.0)
    g = GreenMultiplier(k, 1.0)
    steps, dt = 4, 0.25
    rng = np.random.default_rng(9 + d)
    if constant:
        z = IntegrandProcess.constant(grid, np.exp(-grid.coord_norm_sq / 2.0), steps, dt)
    else:
        z = IntegrandProcess(grid, dt, rng.standard_normal((steps,) + grid.shape))
    z = _up_to(z, t)
    # the oracle sweeps the half dual grid: 131 active eta at d = 2, N = 16
    # and 281 at d = 3, N = 8 for the zero-core table
    active = np.count_nonzero(grid.half(measure.lattice_weights(grid)))
    assert active > _MODULATION_BLOCK
    if measure.kind == "radial-table":
        assert active < math.prod(grid.half_shape) and active % _MODULATION_BLOCK != 0
    a = isometry_functional(g, z, measure)
    b = isometry_alternative(g, z, measure)
    assert a > 0.0
    assert b == pytest.approx(a, rel=1e-8)


def _alternative_reference(g, Z, measure):
    # the modulation oracle's arithmetic, in its order, with every
    # transform and product allocating its result
    from stochwave.stochint import _MODULATION_BLOCK

    grid, dt = Z.grid, Z.dt
    weights = measure.half_lattice_weights(grid)
    mult_sq = (np.abs(g.lattice_spectrum(grid, Z.lags())) ** 2).reshape(len(Z), -1)
    fields = Z.fields
    if Z.is_constant:
        fields, mult_sq = fields[:1], mult_sq.sum(axis=0, keepdims=True)
    phase = np.exp(1j * np.multiply.outer(grid.axis_freqs, grid.axis_coords))
    last = grid.dimension - 1
    active = weights != 0
    inner = np.zeros(grid.half_shape)
    for prefix in map(tuple, np.argwhere(active.any(axis=-1))):
        lead = fields
        if prefix:
            chi = 1.0
            for ax, j in enumerate(prefix):
                chi = chi * grid._axis_array(phase[j], ax)
            lead = grid.full_forward(chi * fields, axes=tuple(range(last)))
        cols = np.flatnonzero(active[prefix])
        for lo in range(0, cols.size, _MODULATION_BLOCK):
            block = cols[lo:lo + _MODULATION_BLOCK]
            chi = phase[block].reshape((block.size,) + (1,) * last + (-1,))
            for f, msq in zip(lead, mult_sq):
                spec = grid.full_forward(chi * f, axes=(last,)).reshape(block.size, -1)
                inner[prefix][block] += (spec.real**2 + spec.imag**2) @ msq
    return float(dt * grid.half_sum(weights * inner) / grid.box_length**grid.dimension)


@pytest.mark.parametrize("d, n, measure", [
    (1, 32, SpectralMeasure.riesz(1, 0.5)),
    (2, 16, SpectralMeasure.riesz(2, 1.0)),
    (2, 16, _zero_core_table(2)),
    (3, 8, _zero_core_table(3)),
])
@pytest.mark.parametrize("constant", [True, False])
@pytest.mark.parametrize("t", [None, 0.5])
def test_isometry_alternative_equals_its_allocating_reference(d, n, measure, constant, t):
    # the oracle transforms in buffers it reuses; stale data left in one
    # would show here, since the reference allocates every transform
    grid = Grid(d, n, 6.0)
    g = GreenMultiplier(2, 1.0)
    z = _up_to(IntegrandProcess.constant(grid, np.exp(-grid.coord_norm_sq), 4, 0.25) if constant
               else _varying_integrand(grid, 4, 0.25), t)
    value = isometry_alternative(g, z, measure)
    assert value > 0.0
    assert value == _alternative_reference(g, z, measure)


@pytest.mark.parametrize("measure", [SpectralMeasure.riesz(2, 1.0), _zero_core_table(2)])
@pytest.mark.parametrize("constant", [True, False])
def test_isometry_alternative_transforms_each_half_grid_eta_once(monkeypatch, measure, constant):
    # row-column structure: one axis-0 transform of chi_{j0} Z per active
    # prefix j0 (every field in one call), then axis-1 batches of
    # chi_{j1} times that spectrum; each input is matched to the phase
    # that made it, so every active half-grid eta is seen exactly once per field
    from stochwave.stochint import _MODULATION_BLOCK

    grid = Grid(2, 16, 6.0)
    steps = 4
    z = (IntegrandProcess.constant(grid, np.exp(-grid.coord_norm_sq), steps, 0.25) if constant
         else _varying_integrand(grid, steps, 0.25))
    fields = z.fields[:1] if constant else z.fields
    active = grid.half(measure.lattice_weights(grid)) != 0
    phase = np.exp(1j * np.multiply.outer(grid.axis_freqs, grid.axis_coords))
    forward = Grid.full_forward
    prefixes, lead, seen, batches = [], [], [], []

    def nearest(values, candidates):
        # flat index of the candidate equal to values, to rounding
        err = np.max(np.abs(candidates - values), axis=tuple(range(-values.ndim, 0)))
        best = int(np.argmin(err))
        assert err.flat[best] <= 1e-12 * np.max(np.abs(values))
        return best

    def counted(self, values, axes=None, out=None):
        values = np.array(values)  # the transform may run in place, over its input
        out = forward(self, values, axes, out)
        if axes == (0,):
            assert values.shape == fields.shape
            prefixes.append(nearest(values, phase[:, None, :, None] * fields))
            lead[:] = [out.copy()]
        else:
            assert axes == (1,) and 1 <= len(values) <= _MODULATION_BLOCK
            batches.append(len(values))
            for row in values:
                f, j1 = divmod(nearest(row, phase[None, :, None, :] * lead[0][:, None]), 16)
                seen.append((prefixes[-1], j1, f))
        return out

    monkeypatch.setattr(Grid, "full_forward", counted)
    isometry_alternative(GreenMultiplier(1, 1.0), z, measure)
    assert prefixes == list(np.flatnonzero(active.any(axis=1)))
    per_prefix = -(-np.count_nonzero(active, axis=1) // _MODULATION_BLOCK)
    assert len(batches) == len(fields) * int(np.sum(per_prefix))
    assert sorted(seen) == sorted((j0, j1, f) for j0, j1 in np.argwhere(active)
                                  for f in range(len(fields)))


class _OddKernel:
    """Green stand-in whose |multiplier|**2 is not even along the first axis."""

    k = 1
    horizon = 10.0

    def lattice_spectrum(self, grid, t):
        eta = grid._axis_array(grid.axis_freqs, 0)
        return np.broadcast_to(2.0 + np.sin(eta), np.shape(t) + grid.shape)


@pytest.mark.parametrize("odd", ["weights-interior", "weights-first-column", "kernel"])
def test_isometry_alternative_refuses_odd_input(odd):
    # the half-grid pairing of eta with -eta needs even weights and |F[G]|**2
    grid = Grid(2, 16, 6.0)
    measure = SpectralMeasure.riesz(2, 1.0)
    g = _OddKernel() if odd == "kernel" else GreenMultiplier(1, 1.0)
    z = IntegrandProcess.constant(grid, np.exp(-grid.coord_norm_sq), 4, 0.25)
    if odd != "kernel":
        weights = measure.lattice_weights(grid).copy()
        weights[(1, 2) if odd == "weights-interior" else (3, 0)] *= 2.0
        measure.lattice_weights = lambda grid: weights
    with pytest.raises(ValueError, match="not even"):
        isometry_alternative(g, z, measure)


def test_bound_chain(setup):
    grid, measure, g, z, dt = setup
    ival = isometry_functional(g, z, measure)
    itil = isometry_bound(g, z, measure)
    assert ival <= itil * (1.0 + 1e-12)
    assert itil == pytest.approx(ival, rel=1e-12)  # white noise: equality

    riesz = SpectralMeasure.riesz(1, 0.5)
    local = IntegrandProcess.constant(
        grid, np.exp(-((grid.axis_coords - 2.0) ** 2) * 4.0), 4, dt)
    assert isometry_functional(g, local, riesz) < isometry_bound(g, local, riesz)


@pytest.mark.parametrize("t", [None, 0.6])
def test_isometry_bound_is_the_per_step_sum(t):
    # one reduction over the spatial axes against the per-step loop it replaced
    grid = Grid(2, 16, 6.0)
    measure = SpectralMeasure.riesz(2, 0.5)
    g = GreenMultiplier(1, 1.0)
    z = _up_to(_varying_integrand(grid, 5, 0.2), t)
    jmax = [j_functional(g, measure, z.horizon - i * z.dt, grid) for i in range(len(z))]
    loop = sum(z.dt * l2_norm(LatticeField(grid, z.fields[i])) ** 2 * jmax[i] for i in range(len(z)))
    assert isometry_bound(g, z, measure) == pytest.approx(loop, rel=1e-13)


def test_zero_integrand_functionals(setup):
    grid, measure, g, _, dt = setup
    z0 = IntegrandProcess.constant(grid, np.zeros(grid.shape), 4, dt)
    assert isometry_functional(g, z0, measure) == 0.0
    assert isometry_bound(g, z0, measure) == 0.0


def test_mollifier_basics():
    for d in (1, 2, 3):
        moll = Mollifier(3, d)
        assert moll.transform(0.0) == pytest.approx(1.0, abs=1e-14)
        vals = moll.transform(np.linspace(0.0, 80.0, 500))
        assert np.max(np.abs(vals)) <= 1.0 + 1e-9
        assert np.max(np.abs(1.0 - vals) ** 2) <= 4.0 + 1e-9
    # base bump is supported strictly inside the unit ball
    assert np.all(Mollifier.bump(np.array([1.0, 1.5])) == 0.0)


def test_mollifier_unit_mass_quadrature():
    # integral of psi_n over the line is one for every scale
    moll = Mollifier(5, 1)
    xs = np.linspace(-1.0, 1.0, 20_001)
    base = moll.bump(xs)
    base /= np.trapezoid(base, xs)
    mass = np.trapezoid(5.0 * np.interp(5.0 * np.linspace(-0.2, 0.2, 20_001), xs, base),
                        np.linspace(-0.2, 0.2, 20_001))
    assert mass == pytest.approx(1.0, rel=1e-8)


def test_ladder_monotone_decreasing():
    grid = Grid(1, 256, 48.0)
    measure = SpectralMeasure.white(1)
    g = GreenMultiplier(1, 1.0)
    z = IntegrandProcess.constant(grid, np.exp(-grid.coord_norm_sq / 2.0), 2, 0.5)
    ladder = [ladder_distance(g, n, z, measure) for n in (1, 2, 4, 8, 16)]
    assert all(a > b for a, b in zip(ladder, ladder[1:]))
    assert ladder[-1] < 0.05 * ladder[0]


def test_truncation_ladder():
    grid = Grid(1, 256, 48.0)
    measure = SpectralMeasure.white(1)
    g = GreenMultiplier(1, 1.0)
    z = IntegrandProcess.constant(grid, np.exp(-grid.coord_norm_sq / 2.0), 2, 0.5)
    ladder = [truncation_distance(g, z, measure, float(n)) for n in (1, 2, 4, 8, 16)]
    assert all(a > b for a, b in zip(ladder, ladder[1:]))
    assert ladder[-1] < 0.05 * ladder[0]


def test_truncation_of_constant_equals_materialized():
    grid = Grid(1, 256, 48.0)
    measure = SpectralMeasure.riesz(1, 0.5)
    g = GreenMultiplier(1, 1.0)
    z = IntegrandProcess.constant(grid, np.exp(-grid.coord_norm_sq / 2.0), 4, 0.25)
    stacked = IntegrandProcess(grid, 0.25, np.stack(list(z.fields)))
    for half_width in (1.0, 4.0):
        assert truncation_distance(g, z, measure, half_width) == \
            truncation_distance(g, stacked, measure, half_width)


def test_martingale_diagnostic():
    # pairings of the running integral (kernel frozen at the slice's own
    # time) form a martingale: increments must be uncorrelated.  This is
    # false for the solution-type kernel t - s, which re-weights past
    # slices as t moves.
    grid = Grid(1, 32, 8.0)
    measure = SpectralMeasure.white(1)
    g = GreenMultiplier(1, 2.0)
    steps, dt, reps = 4, 0.25, 2000
    zfield = np.exp(-grid.axis_coords**2)
    probe = np.cos(grid.axis_coords)
    rng = np.random.default_rng(9)
    increments = np.empty((reps, steps))
    for r in range(reps):
        path = sample_path(grid, measure, 1.0, dt, rng)
        for j in range(steps):
            mult = g.lattice_spectrum(grid, (j + 1) * dt)
            inc = grid.inverse(grid.half(mult) * grid.forward(zfield * path.fields[j]))
            increments[r, j] = grid.cell_volume * float(np.sum(probe * inc))
    for j in range(steps - 1):
        corr = np.corrcoef(increments[:, j], increments[:, j + 1])[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(reps)
