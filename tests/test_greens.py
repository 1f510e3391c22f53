import numpy as np
import pytest

from stochwave.covariance import SpectralMeasure, admissibility_integral
from stochwave.greens import (
    GreenMultiplier,
    cosine_multiplier,
    j_field,
    j_functional,
    sine_multiplier,
)
from stochwave.lattice import Grid


def _green_at(t, xi, k):
    """Continuum F[G(t)] at the frequency point xi."""
    return float(sine_multiplier(t, float(np.linalg.norm(xi)), k))


def _green_dt_at(t, xi, k):
    """Continuum F[(d/dt) G(t)] at the frequency point xi."""
    return float(cosine_multiplier(t, float(np.linalg.norm(xi)), k))


def test_multiplier_limit_values():
    assert _green_at(0.8, np.zeros(1), 3) == pytest.approx(0.8, abs=1e-15)
    assert _green_at(0.0, np.array([1.3]), 3) == 0.0
    assert _green_at(1.0, np.array([np.pi]), 1) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("k", [1.5, 1.0, True, 0, -1, "1"])
def test_multiplier_refuses_an_operator_index_that_is_not_a_positive_integer(k):
    # 1.5 would sample a fractional-index multiplier, True one of index 1
    with pytest.raises(ValueError, match="operator index k"):
        GreenMultiplier(k, 1.0)


@pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
def test_multiplier_refuses_a_horizon_that_is_not_finite_and_positive(horizon):
    with pytest.raises(ValueError, match="horizon"):
        GreenMultiplier(1, horizon)


def test_multiplier_accepts_numpy_integers():
    grid = Grid(1, 16, 4.0)
    assert np.array_equal(GreenMultiplier(np.int64(2), 1.0).lattice_spectrum(grid, 0.5),
                          GreenMultiplier(2, 1.0).lattice_spectrum(grid, 0.5))


def test_dt_multiplier_values():
    assert _green_dt_at(0.0, np.array([0.4, 0.3]), 2) == 1.0
    assert _green_dt_at(0.7, np.zeros(2), 2) == 1.0
    assert _green_dt_at(1.0, np.array([np.pi / 2]), 1) == pytest.approx(0.0, abs=1e-15)


def test_series_branch_is_continuous():
    # values just below and above the series threshold agree to ~1e-15
    t = 1.0
    for k in (1, 2):
        lo = (0.99e-4) ** (1.0 / k)
        hi = (1.01e-4) ** (1.0 / k)
        a, b = sine_multiplier(t, lo, k), sine_multiplier(t, hi, k)
        assert abs(a - b) < 1e-8 * t
        assert abs(sine_multiplier(t, lo, k) - np.sin(t * lo**k) / lo**k) < 1e-15


@pytest.mark.parametrize("k", [1, 2, 3])
def test_trig_identity(k):
    rng = np.random.default_rng(10)
    t = rng.uniform(0, 2, 50)
    mags = rng.uniform(0, 30, 50)
    for ti, mi in zip(t, mags):
        s = sine_multiplier(ti, mi, k)
        c = cosine_multiplier(ti, mi, k)
        assert abs(c**2 + (mi**k * s) ** 2 - 1.0) < 1e-12


@pytest.mark.parametrize("d, n", [(1, 16), (2, 8), (3, 8)])
@pytest.mark.parametrize("k", [1, 2])
def test_batched_multipliers_equal_one_time_at_a_time(d, n, k):
    # each row of a call over an array of times is that one time's call, bit for bit
    grid = Grid(d, n, 6.0)
    mag = np.sqrt(grid.freq_norm_sq)
    times = np.array([[0.0, 1e-6, 0.35], [0.6, 2.0, 7.5]])
    # the series branch covers w = 0 at every time and every w at t = 1e-6
    assert np.all(times[0, 1] * mag[mag > 0] ** k < 1e-4)
    for multiplier in (sine_multiplier, cosine_multiplier):
        batched = multiplier(times, mag, k)
        assert batched.shape == times.shape + grid.shape
        for idx in np.ndindex(times.shape):
            assert np.array_equal(batched[idx], multiplier(times[idx], mag, k))
        assert multiplier(np.array([]), mag, k).shape == (0,) + grid.shape
    assert np.array_equal(sine_multiplier(times, mag, k)[(...,) + (0,) * d], times)
    # the lattice spectra too; d = 1, k = 1 takes the exact wave kernel
    g = GreenMultiplier(k, 1.0)
    for spectrum in (g.lattice_spectrum, g.lattice_dt_spectrum):
        batched = spectrum(grid, times)
        assert batched.shape == times.shape + grid.shape
        for idx in np.ndindex(times.shape):
            assert np.array_equal(batched[idx], spectrum(grid, times[idx]))
        assert spectrum(grid, np.array([])).shape == (0,) + grid.shape


@pytest.mark.parametrize("k", [1, 2])
def test_multiplier_bounds(k):
    rng = np.random.default_rng(11)
    for _ in range(200):
        t = rng.uniform(0, 3)
        mag = rng.uniform(0, 50)
        val = abs(sine_multiplier(t, mag, k))
        assert val <= t + 1e-14
        if mag > 0:
            assert val <= mag ** (-k) + 1e-14


@pytest.mark.parametrize("k", [1, 2])
def test_time_difference_bound(k):
    # |FG(t+h) - FG(t)|^2 <= 4 sin(h x^k / 2)^2 / x^(2k), the half-angle
    # form of the product identity, and <= C(h) (1 + x^2)^(-k) with C
    # evaluated numerically once per (h, k).
    rng = np.random.default_rng(12)
    t, h = 0.9, 0.23
    mags = np.concatenate([rng.uniform(0, 40, 400), [np.pi / h, 2 * np.pi / h]])
    diff_sq = (sine_multiplier(t + h, mags, k) - sine_multiplier(t, mags, k)) ** 2
    half = 4.0 * sine_multiplier(h / 2.0, mags, k) ** 2
    assert np.all(diff_sq <= half + 1e-12)

    xs = np.concatenate([np.linspace(1e-4, 60.0, 200_001), mags[mags > 0]])
    big_c = float(np.max(4 * np.sin(h * xs**k / 2.0) ** 2 * (1 + xs * xs) ** k / xs ** (2 * k)))
    big_c = max(big_c, h * h)  # x -> 0 limit
    assert np.all(diff_sq <= big_c * (1 + mags**2) ** (-k) + 1e-12)


def test_j_functional_zero_time():
    grid = Grid(1, 64, 8.0)
    g = GreenMultiplier(1, 1.0)
    assert j_functional(g, SpectralMeasure.white(1), 0.0, grid) == 0.0


def test_j_field_white_is_constant():
    # translation invariance: the shift dependence drops out exactly
    grid = Grid(2, 16, 8.0)
    g = GreenMultiplier(2, 1.0)
    field = j_field(g, SpectralMeasure.white(2), 0.6, grid)
    assert np.max(field) - np.min(field) <= 1e-12 * np.max(field)
    assert j_functional(g, SpectralMeasure.white(2), 0.6, grid) == pytest.approx(
        float(field.ravel()[0]), rel=1e-12)


@pytest.mark.parametrize("d, n, k, alpha", [(1, 32, 1, 0.5), (2, 16, 2, None), (3, 8, 1, 1.0)])
def test_batched_j_field_equals_one_time_at_a_time(d, n, k, alpha):
    # one batched convolution must give each time's field bit for bit
    grid = Grid(d, n, 6.0)
    m = SpectralMeasure.white(d) if alpha is None else SpectralMeasure.riesz(d, alpha)
    g = GreenMultiplier(k, 1.0)
    times = np.array([[0.1, 0.35, 0.5], [0.6, 0.8, 1.0]])
    batched = j_field(g, m, times, grid)
    assert batched.shape == times.shape + grid.shape
    for idx in np.ndindex(times.shape):
        assert np.array_equal(batched[idx], j_field(g, m, times[idx], grid))
    assert j_field(g, m, np.array([]), grid).shape == (0,) + grid.shape


def test_j_functional_rejects_inadmissible():
    grid = Grid(2, 16, 8.0)
    g = GreenMultiplier(1, 1.0)  # white noise in d=2 needs k >= 2
    with pytest.raises(ValueError, match="admissibility"):
        j_functional(g, SpectralMeasure.white(2), 0.5, grid)


def _probe_j(g, measure, s, grid, point):
    """Continuum-multiplier quadrature sum_eta D_eta |F[G(s)](point - eta)|**2.

    Frequency differences are the true, unwrapped ones, so ``point`` may
    lie off the dual lattice.
    """
    mesh = np.meshgrid(*([grid.axis_freqs] * grid.dimension), indexing="ij")
    diff_sq = sum((point[ax] - mesh[ax]) ** 2 for ax in range(grid.dimension))
    mult = sine_multiplier(s, np.sqrt(diff_sq), g.k)
    return float(np.sum(measure.lattice_weights(grid) * mult**2))


def test_j_functional_riesz_d3_against_dense_grid():
    # J at the origin against an 8x-denser dual grid over the same
    # spectral box.  The dual-cell midpoint rule is first order against
    # the |eta|^(alpha-d) singularity, so percent-level agreement is what
    # the scheme delivers at this size.
    m = SpectralMeasure.riesz(3, 1.0)
    g = GreenMultiplier(1, 1.0)
    coarse = Grid(3, 16, 6.0)
    dense = Grid(3, 128, 48.0)  # same Nyquist radius, 8x resolution
    origin = np.zeros(3)
    val = float(j_field(g, m, 0.5, coarse)[0, 0, 0])
    assert val == pytest.approx(_probe_j(g, m, 0.5, coarse, origin), rel=1e-12)
    assert val == pytest.approx(_probe_j(g, m, 0.5, dense, origin), rel=5e-2)


def test_j_functional_upper_bound_via_admissibility():
    # J(s) <= sup_x sin(s x)^2 (1+x^2)^k / x^(2k) * admissibility integral
    grid = Grid(1, 128, 16.0)
    m = SpectralMeasure.riesz(1, 0.5)
    xs = np.linspace(1e-4, 200.0, 400_001)
    for k, s in ((1, 0.5), (2, 0.8)):
        g = GreenMultiplier(k, 1.0)
        val = j_functional(g, m, s, grid)
        sup = float(np.max(np.sin(s * xs**k) ** 2 * (1 + xs * xs) ** k / xs ** (2 * k)))
        sup = max(sup, s * s)  # x -> 0 limit
        bound = sup * admissibility_integral(m, k)
        assert val <= bound * (1.0 + 1e-9)


def test_exact_wave_kernel_compact_support():
    # d=1, k=1 lattice kernel: trapezoid weights inside the cone, zero
    # outside, at propagation times commensurate with the spacing
    grid = Grid(1, 256, 8.0)
    h = grid.spacing
    g = GreenMultiplier(1, 1.0)
    q = 8
    spec = g.lattice_spectrum(grid, q * h)
    kernel = np.fft.ifft(spec).real
    offsets = np.fft.fftfreq(256, d=1.0 / 256).astype(int)
    inside = np.abs(offsets) < q
    edge = np.abs(offsets) == q
    outside = np.abs(offsets) > q
    assert np.allclose(kernel[inside], h / 2.0, atol=1e-14)
    assert np.allclose(kernel[edge], h / 4.0, atol=1e-14)
    assert np.max(np.abs(kernel[outside])) < 1e-15


def test_exact_wave_kernel_matches_continuum_at_low_frequency():
    grid = Grid(1, 256, 16.0)
    g = GreenMultiplier(1, 1.0)
    t = 0.4
    spec = g.lattice_spectrum(grid, t)
    mag = np.abs(grid.axis_freqs)
    low = (mag > 0) & (mag < 2.0)
    cont = np.sin(t * mag[low]) / mag[low]
    rel = np.abs(spec[low] - cont) / np.abs(cont)
    assert np.max(rel) < (2.0 * grid.spacing / 2.0) ** 2 / 3.0 + 1e-12


def test_lattice_dt_spectrum_is_time_derivative():
    grid = Grid(1, 64, 8.0)
    for k in (1, 2):
        g = GreenMultiplier(k, 1.0)
        t, eps = 0.5, 1e-6
        fd = (g.lattice_spectrum(grid, t + eps) - g.lattice_spectrum(grid, t - eps)) / (2 * eps)
        assert np.max(np.abs(fd - g.lattice_dt_spectrum(grid, t))) < 1e-7
