"""Lattice increments of the driving martingale measure.

One time slice of width dt is a centered Gaussian field, spatially
homogeneous with the covariance encoded by a spectral measure, sampled
diagonally in frequency: homogeneous covariances are diagonalized by the
lattice transform, so a slice is white noise filtered by the square root
of the spectral weights.  With dual-cell weights D_j = q_j * density(eta_j)
the slice spectrum satisfies

    E |W_hat(eta_j)|**2 = dt * (2*pi)**d * L**d * density(eta_j),

which makes the induced covariance of lattice pairings the midpoint
Riemann sum of the continuum spectral pairing,

    E <W, phi> <W, psi> = dt * sum_j D_j F[phi](eta_j) conj(F[psi](eta_j)),

and reduces, for white noise, to i.i.d. cell values of variance dt/h**d.
Slices are independent across time steps and reproducible from the
generator handed in: slice s of a path is the s-th draw of its stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import SpectralMeasure
from .lattice import Grid

__all__ = ["NoiseSlice", "NoisePath", "sample_slice", "sample_path", "coarsen_path"]


@dataclass
class NoiseSlice:
    """One Hermitian-symmetric frequency-domain noise increment."""

    grid: Grid
    dt: float
    spectrum: np.ndarray
    _field: np.ndarray | None = field(default=None, repr=False)

    @property
    def field(self) -> np.ndarray:
        """Real-space increment field (cached)."""
        if self._field is None:
            self._field = self.grid.inverse(self.spectrum)
        return self._field


@dataclass
class NoisePath:
    """Time-ordered independent noise slices covering [0, T]."""

    grid: Grid
    dt: float
    slices: list[NoiseSlice]

    def __len__(self) -> int:
        return len(self.slices)

    @property
    def horizon(self) -> float:
        return self.dt * len(self.slices)

    def times(self) -> np.ndarray:
        """Left endpoints s_i of the slices."""
        return self.dt * np.arange(len(self.slices))


def _spectral_scale(grid: Grid, measure: SpectralMeasure, dt: float) -> np.ndarray:
    weights = measure.lattice_weights(grid)
    return np.sqrt(dt * grid.points_per_axis**grid.dimension * weights)


def sample_slice(grid: Grid, measure: SpectralMeasure, dt: float,
                 rng: np.random.Generator) -> NoiseSlice:
    """Draw one noise increment of width dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    white = rng.standard_normal(grid.shape)
    spectrum = _spectral_scale(grid, measure, dt) * grid.forward(white)
    return NoiseSlice(grid, dt, spectrum)


def sample_slice_batch(grid: Grid, measure: SpectralMeasure, dt: float,
                       rng, count: int) -> np.ndarray:
    """Spectra of ``count`` independent slices, stacked on a leading axis.

    ``rng`` may be a single generator (one stream for the whole batch)
    or a sequence of ``count`` generators, one stream per batch entry;
    the per-entry form is what makes replica-offset runs poolable, since
    entry r consumes only its own stream.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if isinstance(rng, np.random.Generator):
        white = rng.standard_normal((count,) + grid.shape)
    else:
        if len(rng) != count:
            raise ValueError(f"need {count} generators, got {len(rng)}")
        white = np.stack([r.standard_normal(grid.shape) for r in rng])
    return _spectral_scale(grid, measure, dt) * grid.forward(white)


def sample_path(grid: Grid, measure: SpectralMeasure, horizon: float, dt: float,
                rng: np.random.Generator) -> NoisePath:
    """Sample ceil(T/dt) independent slices; requires T/dt integral.

    One batch draw from ``rng`` yields the same slices, in the same
    order, as ``steps`` successive :func:`sample_slice` calls, with the
    spectral scale evaluated once.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps_float = horizon / dt
    steps = int(round(steps_float))
    if abs(steps_float - steps) > 1e-9:
        raise ValueError(f"horizon/dt = {steps_float} is not an integer step count")
    specs = sample_slice_batch(grid, measure, dt, rng, steps)
    return NoisePath(grid, dt, [NoiseSlice(grid, dt, s) for s in specs])


def coarsen_path(path: NoisePath, factor: int) -> NoisePath:
    """Merge consecutive slices in blocks of ``factor``.

    Summing spectra of independent increments reproduces, exactly in
    law, a path at step factor*dt; used by refinement studies to couple
    solutions across time resolutions.
    """
    if factor < 1 or len(path) % factor != 0:
        raise ValueError("factor must divide the slice count")
    merged = []
    for start in range(0, len(path), factor):
        spec = path.slices[start].spectrum.copy()
        for off in range(1, factor):
            spec = spec + path.slices[start + off].spectrum
        merged.append(NoiseSlice(path.grid, path.dt * factor, spec))
    return NoisePath(path.grid, path.dt * factor, merged)
