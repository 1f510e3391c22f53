"""The scale rule of ``stochwave.lattice`` on the paths that fold a scale.

Each path runs twice: as shipped, and with ``Grid.forward`` and
``Grid.filter`` replaced by an unfused reference that keeps every
transform scale as a pass of its own: h**d * sign after the real
transform, then the multiplier, and sign / h**d before the inverse.  At
L = 16 with N a power of two, h is a power of two, so every folded
product is exact and the two runs agree bit for bit.  At L = 6 and
L = 12 they agree to ``REL``.  The modulation oracle folds its scale
inside ``stochint`` and is checked against its own unfused reference in
``test_stochint.py``.
"""

import numpy as np
import pytest

from stochwave import lattice
from stochwave.covariance import SpectralMeasure
from stochwave.greens import GreenMultiplier
from stochwave.lattice import Grid, LatticeField, norm_sq
from stochwave.noise import sample_slice_batch
from stochwave.solver import Nonlinearity, SolveConfig, picard_replicas, sweep_replicas
from stochwave.stochint import IntegrandProcess, convolution_norms_mc

REL = 1e-14  # relative agreement where h is not a power of two, set before the first run


def _half_scales(grid):
    """h**d * sign and sign / h**d on the half grid, from the index sums."""
    sign = 1.0 - 2.0 * (np.indices(grid.half_shape).sum(axis=0) % 2)
    return grid.cell_volume * sign, sign / grid.cell_volume


def _axes(grid, arr):
    return tuple(range(arr.ndim - grid.dimension, arr.ndim))


def _into(out, result):
    if out is None:
        return result
    out[...] = result
    return out


def _unfused_forward(self, values, out=None, multiplier=None):
    values = np.asarray(values)
    spec = _half_scales(self)[0] * lattice._rfftn(values, _axes(self, values))
    if multiplier is not None:
        spec = spec * multiplier
    return _into(out, spec)


def _unfused_filter(self, values, multiplier, work=None):
    spec = _unfused_forward(self, values) * multiplier
    fields = lattice._irfftn(_half_scales(self)[1] * spec, self.points_per_axis, _axes(self, values))
    return _into(values, fields)


def _fused_and_unfused(monkeypatch, run):
    fused = run()
    with monkeypatch.context() as patch:
        patch.setattr(Grid, "forward", _unfused_forward)
        patch.setattr(Grid, "filter", _unfused_filter)
        unfused = run()
    return fused, unfused


def _assert_agree(fused, unfused, length):
    fused, unfused = np.asarray(fused), np.asarray(unfused)
    assert fused.shape == unfused.shape
    if length == 16:
        assert fused.tobytes() == unfused.tobytes()
    else:
        assert np.max(np.abs(fused - unfused)) <= REL * np.max(np.abs(unfused))


def _measure(d, kind):
    return SpectralMeasure.white(d) if kind == "white" else SpectralMeasure.riesz(d, 0.5 * d)


def _grid(d, length):
    # N = 32: h = 1/2 at L = 16, so a scale applied twice or left out shows there too
    return Grid(d, 32, length)


_CASES = pytest.mark.parametrize("length", [16, 6, 12])
_KINDS = pytest.mark.parametrize("d, kind", [(1, "white"), (1, "riesz"), (2, "white"), (2, "riesz")])


@_CASES
@_KINDS
def test_slice_batch_equals_the_unfused_round_trip(monkeypatch, length, d, kind):
    grid, measure = _grid(d, length), _measure(d, kind)

    def run():
        gens = [np.random.default_rng(10 + r) for r in range(3)]
        out = np.empty((6,) + grid.shape)
        work = np.empty((6,) + grid.half_shape, dtype=complex)
        return sample_slice_batch(grid, measure, 0.1, gens, out=out, work=work, steps=2)

    _assert_agree(*_fused_and_unfused(monkeypatch, run), length)


@_CASES
@_KINDS
@pytest.mark.parametrize("norm", ["plancherel", "theta"])
def test_monte_carlo_norms_equal_the_unfused_kernel(monkeypatch, length, d, kind, norm):
    grid, measure = _grid(d, length), _measure(d, kind)
    rng = np.random.default_rng(20)
    z = IntegrandProcess(grid, 0.125, 1.0 + 0.1 * rng.standard_normal((4,) + grid.shape))
    theta = (1.0 + grid.coord_norm_sq) ** -1.0
    vol = grid.box_length**grid.dimension
    norms = {"plancherel": lambda acc: grid.half_sum(acc.real**2 + acc.imag**2) / vol,
             "theta": lambda acc: norm_sq(grid, grid.inverse(acc), theta)}

    def run():
        gens = [np.random.default_rng(30 + r) for r in range(5)]
        return convolution_norms_mc(GreenMultiplier(1, 1.0), z, measure, 5, gens, norms[norm])

    _assert_agree(*_fused_and_unfused(monkeypatch, run), length)


@_CASES
@_KINDS
def test_sweep_and_picard_forcing_equal_the_unfused_solver(monkeypatch, length, d, kind):
    # d = 1 runs k = 1, whose exact kernel makes the forcing scale vary;
    # d = 2 runs k = 2, where it is 1
    grid = _grid(d, length)
    r_sq = grid.coord_norm_sq / (length / 8.0) ** 2
    cfg = SolveConfig(grid=grid, measure=_measure(d, kind), k=d, horizon=0.25, dt=1.0 / 32.0,
                      nonlinearity=Nonlinearity.sine(), v0=LatticeField(grid, np.exp(-r_sq)),
                      v0_dot=LatticeField(grid, 0.3 * np.exp(-2.0 * r_sq)))

    def run():
        moments, kept = sweep_replicas(cfg, [np.random.default_rng(40 + r) for r in range(3)],
                                       keep=(cfg.steps,))
        picard = picard_replicas(cfg, [np.random.default_rng(50 + r) for r in range(3)], 3)
        return moments, kept, picard

    fused, unfused = _fused_and_unfused(monkeypatch, run)
    for a, b in zip(fused, unfused):
        _assert_agree(a, b, length)
