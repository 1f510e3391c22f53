import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from stochwave.covariance import (
    SpectralMeasure,
    admissibility_integral,
    admissible,
    ball_volume,
    sphere_surface_area,
)
from stochwave.lattice import Grid
from stochwave.stochint import Mollifier


def test_white_density_value():
    m = SpectralMeasure.white(1)
    assert m.radial_density(3.7) == pytest.approx(1.0 / (2 * np.pi), rel=1e-12)


def test_density_even():
    for m in (SpectralMeasure.white(2), SpectralMeasure.riesz(2, 1.0)):
        eta = np.array([0.7, -1.3])
        assert m.radial_density(np.linalg.norm(eta)) == pytest.approx(
            m.radial_density(np.linalg.norm(-eta)), rel=1e-14)


def test_riesz_construction_bounds():
    with pytest.raises(ValueError):
        SpectralMeasure.riesz(2, 2.0)  # alpha must be < d
    with pytest.raises(ValueError):
        SpectralMeasure.riesz(2, 0.0)
    with pytest.raises(ValueError):
        SpectralMeasure.riesz(1, 0.5, scale=-1.0)


def test_riesz_singular_at_origin():
    m = SpectralMeasure.riesz(2, 1.0)
    with pytest.raises(ValueError, match="singular"):
        m.radial_density(0.0)


_ULPS = 4 * np.finfo(float).eps  # a few roundings of a Gamma-function expression


def test_riesz_normalization_against_closed_form():
    # independent oracle: F[|x|^-b] = 2^(d-b) pi^(d/2) G((d-b)/2)/G(b/2) |xi|^(b-d)
    for d, alpha in ((1, 0.5), (2, 1.0), (3, 1.4)):
        m = SpectralMeasure.riesz(d, alpha)
        closed = 2.0**(-alpha) * math.pi**(-d / 2) \
            * math.gamma((d - alpha) / 2) / math.gamma(alpha / 2)
        assert m.riesz_constant == pytest.approx(closed, rel=_ULPS, abs=0)
    # the d=2, alpha=1 case pins the density example at |eta| = 2
    m = SpectralMeasure.riesz(2, 1.0)
    assert m.radial_density(2.0) == pytest.approx(m.riesz_constant / 2.0, rel=1e-12)


def _gauss_transform_sq(d, sigma):
    # |F[exp(-|x|^2/(2 s^2))]|^2 = (2 pi s^2)^d exp(-s^2 |eta|^2)
    return lambda r: (2 * np.pi * sigma**2) ** d * np.exp(-(sigma**2) * r**2)


@pytest.mark.parametrize("d,sigma", [(1, 0.7), (1, 1.0), (1, 1.6), (2, 1.0), (2, 0.8)])
def test_pairing_identity_white_gaussian(d, sigma):
    # E F(phi)^2 both ways: (phi * phi~)(0) vs spectral integral of |F phi|^2
    lhs = (math.pi * sigma**2) ** (d / 2)  # integral of phi^2
    surf = sphere_surface_area(d)
    dens = 1.0 / (2 * np.pi) ** d
    fsq = _gauss_transform_sq(d, sigma)
    rhs, _ = integrate.quad(lambda r: dens * fsq(r) * surf * r ** (d - 1), 0, np.inf)
    assert abs(lhs - rhs) < 1e-6 * lhs


@pytest.mark.parametrize("d,alpha,sigma", [(1, 0.5, 1.0), (2, 1.0, 1.0), (2, 1.5, 0.8)])
def test_pairing_identity_riesz_gaussian(d, alpha, sigma):
    # left: integral |x|^-alpha (phi * phi~)(x) dx with phi * phi~ a
    # Gaussian of width sigma*sqrt(2); right: spectral quadrature.
    m = SpectralMeasure.riesz(d, alpha)
    surf = sphere_surface_area(d)
    conv_amp = (math.pi * sigma**2) ** (d / 2)  # (phi * phi~)(x) = amp exp(-|x|^2/(4 s^2))
    lhs, _ = integrate.quad(
        lambda r: r ** (-alpha) * conv_amp * np.exp(-r * r / (4 * sigma**2)) * surf * r ** (d - 1),
        0, np.inf)
    fsq = _gauss_transform_sq(d, sigma)
    rhs, _ = integrate.quad(
        lambda r: m.riesz_constant * r ** (alpha - d) * fsq(r) * surf * r ** (d - 1),
        0, np.inf)
    assert abs(lhs - rhs) < 1e-6 * lhs


@pytest.mark.parametrize("kind", ["white", "riesz"])
def test_pairing_identity_smoothed_indicator(kind):
    # compactly supported test function: indicator [-1,1] mollified at
    # scale 4.  Both pairing sides computed by quadrature; the r^(-1/2)
    # factors are removed by the substitution r = s^2.
    moll = Mollifier(4, 1)
    xs = np.linspace(-2.0, 2.0, 2**13 + 1)
    dx = xs[1] - xs[0]
    psi = 4.0 * moll.bump(4.0 * xs)
    psi /= np.trapezoid(psi, xs)
    indicator = (np.abs(xs) <= 1.0).astype(float)
    phi = np.convolve(indicator, psi, mode="same") * dx
    conv_x = np.linspace(-4.0, 4.0, 2 * len(xs) - 1)
    conv = np.convolve(phi, phi[::-1]) * dx  # (phi * phi~) on conv_x

    nodes, wts = np.polynomial.legendre.leggauss(400)

    def fphi_at(eta_val):
        x = 0.65 * nodes + 0.65  # Gauss-Legendre on [0, 1.3] covers supp phi
        return 2.0 * 0.65 * np.sum(wts * np.interp(x, xs, phi) * np.cos(eta_val * x))

    if kind == "white":
        lhs = np.interp(0.0, conv_x, conv)
        rhs = (2.0 / (2 * np.pi)) * integrate.quad(lambda e: fphi_at(e) ** 2, 0, 80, limit=400)[0]
    else:
        m = SpectralMeasure.riesz(1, 0.5)
        # integral |x|^(-1/2) conv(x) dx, substitution x = s^2
        lhs = 2.0 * integrate.quad(
            lambda s: 2.0 * np.interp(s * s, conv_x, conv), 0, np.sqrt(3.0), limit=400)[0]
        rhs = 2.0 * m.riesz_constant * integrate.quad(
            lambda s: 2.0 * fphi_at(s * s) ** 2, 0, np.sqrt(80.0), limit=400)[0]
    assert abs(lhs - rhs) < 1e-6 * abs(lhs)


def test_admissibility_white_d1_k1_value():
    assert admissibility_integral(SpectralMeasure.white(1), 1) == pytest.approx(0.5, rel=1e-10)


def _quadrature_oracle(measure, k):
    """The adaptive radial quadrature of the admissibility integral and its error estimate."""
    d = measure.dimension
    surf = sphere_surface_area(d)

    def integrand(r):
        return float(measure.radial_density(r)) * (1.0 + r * r) ** (-k) * r ** (d - 1)

    inner, inner_err = integrate.quad(integrand, 0.0, 1.0)
    outer, outer_err = integrate.quad(integrand, 1.0, np.inf)
    return surf * (inner + outer), surf * (inner_err + outer_err)


def test_admissibility_closed_forms_match_quadrature_on_every_experiment_case(monkeypatch, tmp_path):
    # the white and riesz values are Beta functions; QUADPACK is the oracle,
    # trusted to its own error estimate
    from stochwave import harness

    cases = []
    integral = harness.admissibility_integral

    def recording(measure, k):
        value = integral(measure, k)
        cases.append((measure, k, value))
        return value

    monkeypatch.setattr(harness, "admissibility_integral", recording)
    harness.run(harness.parse_config("[experiment]\nname = admissibility\n"), out_dir=tmp_path)
    finite = [(m, k, value) for m, k, value in cases if math.isfinite(value)]
    assert len(finite) == 30
    for measure, k, value in finite:
        oracle, err = _quadrature_oracle(measure, k)
        assert abs(value - oracle) <= err + _ULPS * oracle, (measure, k, value, oracle, err)


def test_admissibility_closed_forms_exact_values():
    assert admissibility_integral(SpectralMeasure.white(1), 1) == pytest.approx(0.5, rel=_ULPS, abs=0)
    assert admissibility_integral(SpectralMeasure.white(1), 2) == pytest.approx(0.25, rel=_ULPS, abs=0)
    assert admissibility_integral(SpectralMeasure.riesz(2, 1.0), 1) \
        == pytest.approx(math.pi / 2, rel=_ULPS, abs=0)
    # scale multiplies the density, so it multiplies the value
    assert admissibility_integral(SpectralMeasure.white(1, scale=3.0), 1) \
        == pytest.approx(1.5, rel=_ULPS, abs=0)


def test_admissibility_closed_form_at_large_k():
    # Gamma(k) overflows past k = 171; the Beta function comes from lgamma there
    for measure, k in ((SpectralMeasure.white(1), 200), (SpectralMeasure.riesz(3, 1.5), 400)):
        value = admissibility_integral(measure, k)
        oracle, err = _quadrature_oracle(measure, k)
        # exp of a difference of lgamma values near lgamma(k) keeps their absolute rounding
        assert 0.0 < value and abs(value - oracle) <= err + _ULPS * math.lgamma(k) * oracle


_RADIAL_TABLE_PROBE = """
import json, sys
from stochwave.covariance import SpectralMeasure, admissibility_integral
m = SpectralMeasure.radial_table(2, [0.1, 1.0, 10.0], [1.0, 0.5, 0.1], tail_exponent=-3.0)
before = 'scipy.integrate' in sys.modules
value = admissibility_integral(m, 1)
print(json.dumps([before, 'scipy.integrate' in sys.modules, value.hex()]))
"""


def test_radial_table_admissibility_keeps_the_lazy_quadrature():
    # only a radial table's finite value runs QUADPACK, imported on first use
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _RADIAL_TABLE_PROBE], capture_output=True,
                          text=True, check=True, env=env)
    before, after, value = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (before, after) == (False, True)
    m = SpectralMeasure.radial_table(2, [0.1, 1.0, 10.0], [1.0, 0.5, 0.1], tail_exponent=-3.0)
    assert float.fromhex(value) == _quadrature_oracle(m, 1)[0]


def test_admissibility_white_d2_k1_divergent():
    assert admissibility_integral(SpectralMeasure.white(2), 1) == math.inf


def test_admissibility_monotone_in_k():
    m = SpectralMeasure.riesz(3, 1.0)
    values = [admissibility_integral(m, k) for k in (1, 2, 3)]
    assert values[0] > values[1] > values[2]


@pytest.mark.parametrize("k", [1, 2])
def test_admissibility_riesz_threshold_sweep(k):
    d = 4
    for alpha in np.arange(0.5, 3.6, 0.5):
        value = admissibility_integral(SpectralMeasure.riesz(d, float(alpha)), k)
        assert math.isfinite(value) == (alpha < 2 * k)


def test_radial_table_tail_required():
    m = SpectralMeasure.radial_table(1, [0.1, 1.0, 10.0], [1.0, 0.5, 0.1])
    with pytest.raises(ValueError, match="tail exponent required"):
        admissibility_integral(m, 1)


def test_admissible_matches_the_integral_on_every_experiment_case(monkeypatch, tmp_path):
    from stochwave import harness

    cases = []
    integral = harness.admissibility_integral

    def recording(measure, k):
        value = integral(measure, k)
        cases.append((measure, k, math.isfinite(value)))
        return value

    monkeypatch.setattr(harness, "admissibility_integral", recording)
    harness.run(harness.parse_config("[experiment]\nname = admissibility\n"), out_dir=tmp_path)
    assert len(cases) == 40  # white at d = 1..4, riesz at alpha = 0.5..3.5 < d; k = 1, 2
    assert {finite for _, _, finite in cases} == {True, False}
    for measure, k, finite in cases:
        assert admissible(measure, k) == finite, (measure, k)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("tail", [-3.0, -0.5, 1.0, 1.5])
def test_admissible_matches_the_integral_on_radial_tables(d, k, tail):
    m = SpectralMeasure.radial_table(d, [0.1, 1.0, 10.0], [1.0, 0.5, 0.1], tail_exponent=tail)
    assert admissible(m, k) == math.isfinite(admissibility_integral(m, k))
    assert admissible(m, k) == (tail + d - 1 - 2 * k < -1)


def test_admissible_refuses_what_the_integral_refuses():
    no_tail = SpectralMeasure.radial_table(1, [0.1, 1.0, 10.0], [1.0, 0.5, 0.1])
    for check in (admissible, admissibility_integral):
        with pytest.raises(ValueError, match="tail exponent required"):
            check(no_tail, 1)
        with pytest.raises(ValueError, match="operator index"):
            check(SpectralMeasure.white(1), 0)


@pytest.mark.parametrize("k", [1.5, 1.0, True, False, 0, -2, "1"])
def test_admissibility_refuses_an_operator_index_that_is_not_a_positive_integer(k):
    # 1.5 would run the Beta form at a fractional index, True as k = 1
    for check in (admissible, admissibility_integral):
        with pytest.raises(ValueError, match="operator index k"):
            check(SpectralMeasure.white(1), k)


@pytest.mark.parametrize("dimension", [2.7, 2.0, True, 0, -1, "2"])
def test_measure_refuses_a_dimension_that_is_not_a_positive_integer(dimension):
    # 2.7 would be truncated to 2, True read as 1
    for build in (lambda: SpectralMeasure.white(dimension),
                  lambda: SpectralMeasure.riesz(dimension, 0.5),
                  lambda: SpectralMeasure.radial_table(dimension, *_TABLE, tail_exponent=-3.0)):
        with pytest.raises(ValueError, match="dimension"):
            build()


def test_numpy_integers_are_integers():
    m = SpectralMeasure.white(np.int64(2))
    assert m.dimension == 2 and type(m.dimension) is int
    value = admissibility_integral(m, np.int64(2))
    assert value == admissibility_integral(SpectralMeasure.white(2), 2)
    assert type(value) is float and admissible(m, np.int32(2))


def test_radial_table_verdicts_and_interpolation():
    radii = np.array([0.1, 1.0, 10.0])
    dens = np.array([1.0, 0.5, 0.1])
    heavy = SpectralMeasure.radial_table(1, radii, dens, tail_exponent=1.5)
    light = SpectralMeasure.radial_table(1, radii, dens, tail_exponent=-3.0)
    assert admissibility_integral(heavy, 1) == math.inf
    assert math.isfinite(admissibility_integral(light, 1))
    # log-radius interpolation hits the table nodes exactly
    assert light.radial_density(1.0) == pytest.approx(0.5)
    mid = light.radial_density(np.sqrt(0.1 * 1.0))  # halfway in log r
    assert mid == pytest.approx(0.75, rel=1e-12)
    # declared power tail beyond the last sample
    assert light.radial_density(20.0) == pytest.approx(0.1 * 2.0**-3, rel=1e-12)


def test_radial_table_validation():
    with pytest.raises(ValueError):
        SpectralMeasure.radial_table(1, [1.0, 0.5], [1.0, 1.0])  # not increasing
    with pytest.raises(ValueError):
        SpectralMeasure.radial_table(1, [0.5, 1.0], [1.0, -1.0])  # negative density


_TABLE = ([0.5, 1.0, 2.0], [1.0, 0.5, 0.25])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_measure_parameters_raise_at_construction(value):
    # a non-finite parameter would otherwise surface as nan weights or a
    # verdict decided by nan comparisons, far from its cause
    builders = {
        "scale": [lambda: SpectralMeasure.white(1, scale=value),
                  lambda: SpectralMeasure.riesz(2, 1.0, scale=value),
                  lambda: SpectralMeasure.radial_table(1, *_TABLE, tail_exponent=-3.0, scale=value)],
        "tail_exponent": [lambda: SpectralMeasure.radial_table(1, *_TABLE, tail_exponent=value)],
        "alpha": [lambda: SpectralMeasure.riesz(2, value)],
        "finite": [lambda: SpectralMeasure.radial_table(1, [0.5, value], [1.0, 1.0], tail_exponent=-3.0),
                   lambda: SpectralMeasure.radial_table(1, [0.5, 1.0], [1.0, value], tail_exponent=-3.0)],
    }
    for name, builds in builders.items():
        for build in builds:
            with pytest.raises(ValueError, match=name):
                build()
    # the finite neighbours construct
    assert SpectralMeasure.radial_table(1, *_TABLE, tail_exponent=-3.0, scale=2.0).scale == 2.0


def test_lattice_weights_memoized_and_read_only():
    m = SpectralMeasure.riesz(2, 1.0)
    w = m.lattice_weights(Grid(2, 16, 8.0))
    assert m.lattice_weights(Grid(2, 16, 8.0)) is w
    with pytest.raises(ValueError, match="read-only"):
        w[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        w *= 2.0
    finer = m.lattice_weights(Grid(2, 32, 8.0))
    assert finer.shape == (32, 32) and not finer.flags.writeable
    assert m.lattice_weights(Grid(2, 16, 8.0)) is w
    with pytest.raises(ValueError, match="dimension"):
        m.lattice_weights(Grid(1, 16, 8.0))


def test_lattice_weights_white_and_riesz_zero_cell():
    g = Grid(2, 16, 8.0)
    white = SpectralMeasure.white(2)
    w = white.lattice_weights(g)
    assert np.allclose(w, g.dual_cell_volume / (2 * np.pi) ** 2)

    m = SpectralMeasure.riesz(2, 1.0)
    weights = m.lattice_weights(g)
    # zero cell: average of the density over the ball of equal volume,
    # checked against direct radial quadrature
    rho = (2 * np.pi / g.box_length) / ball_volume(2) ** 0.5
    direct, _ = integrate.quad(
        lambda r: m.riesz_constant * r ** (1.0 - 2.0) * 2 * np.pi * r, 0, rho)
    expected = g.dual_cell_volume * direct / (ball_volume(2) * rho**2)
    assert weights.ravel()[0] == pytest.approx(expected, rel=1e-10)
    assert np.all(weights > 0)


def test_half_lattice_weights_memoized_and_read_only():
    m = SpectralMeasure.riesz(2, 1.0)
    g = Grid(2, 16, 8.0)
    half = m.half_lattice_weights(g)
    assert m.half_lattice_weights(Grid(2, 16, 8.0)) is half
    assert np.array_equal(half, g.half(m.lattice_weights(g)))
    assert half.shape == g.half_shape and not half.flags.writeable
    with pytest.raises(ValueError, match="dimension"):
        m.half_lattice_weights(Grid(1, 16, 8.0))
