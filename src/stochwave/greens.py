"""Fourier multipliers of the Green's function of u_tt + (-1)**k Lap**k u = 0.

The Green's function is known here only through its frequency side,

    F[G(t)](xi) = sin(t |xi|**k) / |xi|**k,

with time-derivative multiplier cos(t |xi|**k).  The removable
singularity at xi = 0 is filled with the limit t; numerically the series
branch t * (1 - (t|xi|**k)**2 / 6) is used when t|xi|**k < 1e-4, where
its relative error is below 1e-16.

Lattice operations use a grid-sampled copy of the multiplier, with one
exception: in one dimension with k = 1 the sampled multiplier's kernel
leaks ~1e-3 outside the light cone (truncated-series ringing), which
destroys the finite-propagation-speed property the weighted theory
depends on.  There the lattice kernel is

    sin(t |eta|) * (h/2) / tan(|eta| h / 2),

whose real-space kernel is the trapezoid-weighted moving sum: h/2
strictly inside the cone, h/4 on the edge cells, zero outside (exactly,
for propagation times commensurate with the grid spacing).  It agrees
with the continuum multiplier to O((eta*h)**2) at low frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import SpectralMeasure, _positive_int, admissible
from .lattice import Grid, circular_convolve

__all__ = [
    "GreenMultiplier",
    "sine_multiplier",
    "cosine_multiplier",
    "spectral_energy_field",
    "j_field",
    "j_functional",
]

_SERIES_THRESHOLD = 1e-4


def _times_against(t, x: np.ndarray) -> np.ndarray:
    """Times as an array broadcastable against ``x``: shape (*shape(t), 1, ..., 1)."""
    times = np.asarray(t, dtype=float)
    return times.reshape(times.shape + (1,) * x.ndim)


def sine_multiplier(t, xi_mag, k: int) -> np.ndarray:
    """sin(t x**k)/x**k over magnitudes x = |xi|, with the series branch.

    ``t`` is one time or an array of times; the result has shape
    ``(*np.shape(t), *np.shape(xi_mag))``, each row equal to the call at
    that one time.
    """
    x = np.asarray(xi_mag, dtype=float) ** k
    times = _times_against(t, x)
    arg = times * x
    out = np.empty_like(arg)
    small = np.abs(arg) < _SERIES_THRESHOLD
    out[small] = np.broadcast_to(times, arg.shape)[small] * (1.0 - arg[small] ** 2 / 6.0)
    out[~small] = np.sin(arg[~small]) / np.broadcast_to(x, arg.shape)[~small]
    if out.ndim == 0:
        return float(out)
    return out


def cosine_multiplier(t, xi_mag, k: int) -> np.ndarray:
    """cos(t x**k) over magnitudes x = |xi|; ``t`` as in :func:`sine_multiplier`."""
    x = np.asarray(xi_mag, dtype=float) ** k
    return np.cos(_times_against(t, x) * x)


def _exact_wave_spectrum(grid: Grid, t, derivative: bool) -> np.ndarray:
    """d = 1, k = 1 lattice kernel spectrum (exact finite propagation).

    ``t`` as in :func:`sine_multiplier`; the result has shape
    ``(*np.shape(t), *grid.shape)``.
    """
    h = grid.spacing
    mag = np.sqrt(grid.freq_norm_sq)
    half = 0.5 * h * mag
    zero = mag == 0.0
    nyq = np.isclose(half, 0.5 * np.pi)
    inner = ~(zero | nyq)
    factor = np.zeros_like(mag)
    factor[inner] = (0.5 * h) / np.tan(half[inner])
    times = _times_against(t, mag)
    if derivative:
        out = np.where(zero, 1.0, mag * np.cos(times * mag) * factor)
    else:
        out = np.where(zero, times, np.sin(times * mag) * factor)
    return np.where(nyq, 0.0, out)


@dataclass(frozen=True)
class GreenMultiplier:
    """Green-multiplier family for operator index k on horizon [0, T].

    The lattice spectra take one time or an array of times and return
    ``(*np.shape(t), *grid.shape)``, each row equal to the call at that
    one time.
    """

    k: int
    horizon: float

    def __post_init__(self) -> None:
        _positive_int(self.k, "operator index k")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be a finite positive number, got {self.horizon!r}")

    def lattice_spectrum(self, grid: Grid, t) -> np.ndarray:
        """Dual-grid displacement-multiplier samples (see module docstring)."""
        if self.k == 1 and grid.dimension == 1:
            return _exact_wave_spectrum(grid, t, derivative=False)
        return sine_multiplier(t, np.sqrt(grid.freq_norm_sq), self.k)

    def lattice_dt_spectrum(self, grid: Grid, t) -> np.ndarray:
        """Time derivative of :meth:`lattice_spectrum` at fixed frequency."""
        if self.k == 1 and grid.dimension == 1:
            return _exact_wave_spectrum(grid, t, derivative=True)
        return cosine_multiplier(t, np.sqrt(grid.freq_norm_sq), self.k)


def spectral_energy_field(grid: Grid, u_spec: np.ndarray, udot_spec: np.ndarray,
                          k: int) -> float | np.ndarray:
    """Conserved spectral energy ||u_t||**2 + || |xi|**k F[u] ||**2.

    Both terms are evaluated from half spectra with the package
    Plancherel normalization.  Leading axes of the spectra ride along:
    one state gives a float, a batch an array of that batch's shape.
    """
    weight = grid.half(grid.freq_norm_sq**k)
    total = grid.half_sum(np.abs(udot_spec) ** 2 + weight * np.abs(u_spec) ** 2)
    energy = total / grid.box_length**grid.dimension
    return float(energy) if energy.ndim == 0 else energy


def j_field(g: GreenMultiplier, measure: SpectralMeasure, s, grid: Grid) -> np.ndarray:
    """Spectral energy of G(s) against the measure, as a function of the shift.

    Returns the dual-grid array xi |-> sum_eta D_eta |F[G(s)](xi - eta)|**2
    where D are the measure's dual-cell weights and the difference wraps
    around the dual lattice, matching the aliasing of the discrete noise
    model exactly.  This is the quantity whose supremum over xi drives
    all moment bounds.

    ``s`` is one time or an array of times; the result has shape
    ``(*np.shape(s), *grid.shape)``.  All times go through one batched
    circular convolution, which transforms the weights once.
    """
    times = np.asarray(s, dtype=float)
    mult_sq = g.lattice_spectrum(grid, times.ravel()) ** 2
    out = circular_convolve(measure.lattice_weights(grid), mult_sq)
    # the convolution of nonnegative data is nonnegative up to roundoff
    return np.maximum(out, 0.0).reshape(times.shape + grid.shape)


def j_functional(g: GreenMultiplier, measure: SpectralMeasure, s, grid: Grid) -> float:
    """Worst-case spectral energy of G(s): the maximum of :func:`j_field`.

    ``s`` is one time or an array of times; the maximum runs over all of
    them, so ``solver.gronwall_constant`` takes max_s J(s) over the step
    times for ``moment_track`` in one call.

    The maximum over the dual grid is a lower bound to the continuum
    supremum; the integrand is continuous and peaks near xi = 0 for the
    radial measures supported here, and the dual grid always contains 0.
    Raises when the measure fails the admissibility condition for g.k.
    """
    if not admissible(measure, g.k):
        raise ValueError("J undefined: admissibility condition fails")
    return float(np.max(j_field(g, measure, s, grid)))
