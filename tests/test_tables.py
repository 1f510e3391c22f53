"""The one memo rule for per-configuration tables (``lattice._table``)."""

import numpy as np
import pytest

from stochwave import noise, solver
from stochwave.covariance import SpectralMeasure
from stochwave.greens import GreenMultiplier
from stochwave.harness import parse_config, run
from stochwave.lattice import Grid, _table
from stochwave.noise import _spectral_scale
from stochwave.stochint import (
    IntegrandProcess,
    convolution_moment_mc,
    isometry_alternative,
    isometry_bound,
    isometry_functional,
)

_WEIGHTS = SpectralMeasure.lattice_weights
_HALF_WEIGHTS = SpectralMeasure.half_lattice_weights
_TABLES = (_WEIGHTS, _HALF_WEIGHTS, _spectral_scale, solver._green_rows, solver._forcing_scale)


def _clear_tables():
    for table in _TABLES:
        table.cache_clear()


def _misses():
    return [table.cache_info().misses for table in _TABLES]


def test_every_array_a_table_returns_is_read_only():
    @_table
    def build(n):
        return np.arange(n, dtype=float), np.zeros((n, 2)), np.float64(n)

    first, second, scalar = build(3)
    for arr in (first, second, _table(lambda n: np.ones(n))(4)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert scalar == 3.0 and build(3)[0] is first


def test_a_table_keeps_one_entry():
    calls = []

    @_table
    def build(n):
        calls.append(n)
        return np.full(n, float(n))

    first = build(2)
    assert build(2) is first and calls == [2]
    assert not build(3).flags.writeable and calls == [2, 3]
    again = build(2)  # the second key evicted the first
    assert again is not first and np.array_equal(again, first) and calls == [2, 3, 2]
    assert build.cache_info()[:4] == (1, 3, 1, 1)


def test_the_package_tables_hand_out_read_only_arrays():
    grid = Grid(2, 16, 6.0)
    measure = SpectralMeasure.riesz(2, 1.0)
    arrays = [measure.lattice_weights(grid), measure.half_lattice_weights(grid),
              _spectral_scale(grid, measure, 0.1), *solver._green_rows(grid, 1, 0.1, 0, 4),
              solver._forcing_scale(Grid(1, 16, 6.0), 1, 0.1)]
    assert _spectral_scale(grid, measure, 0.1).shape == grid.half_shape
    for arr in arrays:
        assert isinstance(arr, np.ndarray)
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
    # an all-equal filter is its one scalar
    white = _spectral_scale(grid, SpectralMeasure.white(2), 0.1)
    assert np.ndim(white) == 0 and white == np.sqrt(0.1 / grid.cell_volume)


def _isometry_case(replicas=40):
    """The four isometry estimates of the d = 2 riesz alpha = 1 case, at N = 32."""
    grid = Grid(2, 32, 16.0)
    measure = SpectralMeasure.riesz(2, 1.0)
    g = GreenMultiplier(1, 0.5)
    z = IntegrandProcess.constant(grid, np.exp(-grid.coord_norm_sq), 8, 0.0625)
    rngs = [np.random.default_rng(500 + r) for r in range(replicas)]
    return [isometry_functional(g, z, measure), isometry_alternative(g, z, measure),
            isometry_bound(g, z, measure), *convolution_moment_mc(g, z, measure, replicas, rngs)]


def test_one_isometry_case_builds_its_filter_and_weights_once():
    _clear_tables()
    _isometry_case()
    weights, half, filters, _, _ = _misses()
    assert (weights, half, filters) == (1, 1, 1)
    # every block of every step read the one filter
    assert _spectral_scale.cache_info().hits > 0


def test_an_isometry_run_builds_one_filter_a_case(tmp_path):
    _clear_tables()
    run(parse_config("[experiment]\nname = isometry\nreplicas = 20\n[grid]\nn = 16\n")
        .override(output=tmp_path))
    # six cases, one filter, one weight table and one half-grid restriction each
    assert _misses()[:3] == [6, 6, 6]


def test_refinement_builds_a_filter_a_step_and_one_weight_table(tmp_path):
    _clear_tables()
    run(parse_config("[experiment]\nname = refinement\nreplicas = 4\n[grid]\nn = 16\n")
        .override(output=tmp_path))
    weights, half, filters, _, _ = _misses()
    assert (weights, half, filters) == (1, 1, 4)


@pytest.mark.parametrize("text", [
    "[experiment]\nname = isometry\nreplicas = 20\n[grid]\nn = 16\n",
    "[experiment]\nname = refinement\nreplicas = 4\n[grid]\nn = 16\n",
])
def test_cold_and_warm_tables_give_the_same_bits(tmp_path, text):
    _clear_tables()
    cold = run(parse_config(text).override(output=tmp_path / "cold")).to_csv()
    warm = run(parse_config(text).override(output=tmp_path / "warm")).to_csv()
    assert cold == warm
    _clear_tables()
    assert _isometry_case() == _isometry_case()


def test_a_filter_is_keyed_by_its_dt():
    grid = Grid(1, 16, 6.0)
    measure = SpectralMeasure.riesz(1, 0.5)
    rng = np.random.default_rng
    first = noise.sample_slice_batch(grid, measure, 0.1, [rng(7)])
    other = noise.sample_slice_batch(grid, measure, 0.2, [rng(7)])
    assert np.array_equal(noise.sample_slice_batch(grid, measure, 0.1, [rng(7)]), first)
    assert np.allclose(other, np.sqrt(2.0) * first, rtol=1e-12, atol=0.0)
