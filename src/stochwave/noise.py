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
A filter whose entries are all equal, as white noise's are, is the
identity times one scalar, so those slices are the draws times that
scalar, with no transform.  Only a varying filter runs the transform
pair: the white noise and the filtered slice are real and the weights
are even in eta, so it filters half spectra, one real transform pair
(``Grid.forward``/``Grid.inverse``) with the weights restricted by
``Grid.half`` once per grid (``SpectralMeasure.half_lattice_weights``).
The choice is made from the filter's values, not from the measure's
kind.  Every consumer multiplies an increment pointwise in space, so the
sampler hands out real fields; only this module sees the spectrum.
Slices are independent across time steps and reproducible from the
generator handed in: slice s of a path is the s-th draw of its stream.
A batch draws each row from its own entry of a list of generators (a
path lists its one stream once a step); a replica batch takes one
generator a replica and runs in blocks sized
by :func:`replica_blocks`; a caller that draws block after block may
hand in the rows and the spectrum buffer to reuse (``out``, ``work``),
which changes no value.  Every replica sample set is reduced to its mean
and standard error by :func:`mean_se`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import SpectralMeasure
from .lattice import Grid

__all__ = ["NoisePath", "whole_steps", "sample_slice", "sample_slice_batch", "sample_path",
           "replica_blocks", "mean_se"]

# Array entries per block.  A d = 2, N = 64 Monte Carlo block of 31 replicas
# holds a 1 MB accumulator, not 8.7 MB; a sweep at d = 2, N = 128, n = 1,024
# with its rows in blocks ran in 87 MB max RSS, not 420 MB (Intel Xeon).
_BLOCK_ENTRIES = 2**16


@dataclass
class NoisePath:
    """Time-ordered independent increments covering [0, T].

    ``fields[i]`` is the real-space increment W_i of step i; the array
    has shape (steps, *grid.shape).
    """

    grid: Grid
    dt: float
    fields: np.ndarray

    def __len__(self) -> int:
        return len(self.fields)


def _spectral_scale(grid: Grid, measure: SpectralMeasure, dt: float) -> np.ndarray:
    """The filter sqrt(dt N**d D_j) on the half grid."""
    weights = measure.half_lattice_weights(grid)
    return np.sqrt(dt * grid.points_per_axis**grid.dimension * weights)


def whole_steps(span: float, dt: float) -> int:
    """The number of steps of ``dt`` in ``span``, which must be whole to 1e-9 steps.

    The one rule for "t is a whole number of steps of dt": a solve's
    horizon, a sampled path, a convolution's time and the harness's step
    checks all read it.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = span / dt
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"{span!r} is off the step grid of dt = {dt!r}: {steps!r} steps "
                         "is not an integer")
    return int(round(steps))


def sample_slice_batch(grid: Grid, measure: SpectralMeasure, dt: float, rngs,
                       out: np.ndarray | None = None,
                       work: np.ndarray | None = None) -> np.ndarray:
    """Real increments of independent slices, one row a generator of ``rngs``.

    Row i is drawn straight from ``rngs[i]``: one replica's stream per
    row in a replica batch, or one path's stream repeated (the rows are
    then its successive slices in time order, as :func:`sample_path`
    draws them).  A filter whose entries are all equal (white noise) is
    one scalar, applied to the draws in place; any other filter runs the
    half-spectrum transform pair: forward into ``work``, the filter
    applied there, and the inverse back into the draws' rows.

    ``out`` (float, shape (len(rngs), *grid.shape)) receives the slices
    and is returned; ``work`` (complex, shape (len(rngs),
    *grid.half_shape)) is the spectrum buffer of a varying filter,
    overwritten.  Either is allocated when not given, so a caller that
    passes both reuses its own buffers on every call.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    shape = (len(rngs),) + grid.shape
    if out is None:
        out = np.empty(shape)
    else:
        grid._check_out(out, shape, float)
    for gen, row in zip(rngs, out):
        gen.standard_normal(out=row)
    scale = _spectral_scale(grid, measure, dt)
    first = scale.flat[0]
    if np.all(scale == first):
        out *= first
        return out
    spec = grid.forward(out, out=work)
    spec *= scale
    return grid.inverse(spec, out=out)


def replica_blocks(replicas: int, entries: int, rng=None) -> list[tuple[int, int, object]]:
    """``(lo, hi, generators)`` blocks of max(1, min(256, _BLOCK_ENTRIES // entries)) items.

    ``rng`` is exactly ``replicas`` generators, sliced per block; without
    it ``generators`` is None (the sweep's step blocks).  One generator
    shared by the blocks would tie the draws to the block size, so it is
    refused.  The counts are checked before the first block is made.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    if isinstance(rng, np.random.Generator):
        raise ValueError("rng must hold one generator per replica, not one shared Generator")
    if rng is not None and len(rng) != replicas:
        raise ValueError(f"rng holds {len(rng)} generators, replicas is {replicas}")
    block = max(1, min(256, _BLOCK_ENTRIES // entries))
    return [(lo, min(lo + block, replicas), None if rng is None else rng[lo:lo + block])
            for lo in range(0, replicas, block)]


def mean_se(samples) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error (ddof 1, over sqrt(count)) of samples, one replica a leading row."""
    data = np.asarray(samples)
    if len(data) < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {len(data)}")
    return data.mean(axis=0), data.std(axis=0, ddof=1) / math.sqrt(len(data))


def sample_slice(grid: Grid, measure: SpectralMeasure, dt: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw one real-space noise increment of width dt.

    No experiment calls it; it is a tracer target in ``perfbench/layers.py``.
    """
    return sample_slice_batch(grid, measure, dt, [rng])[0]


def sample_path(grid: Grid, measure: SpectralMeasure, horizon: float, dt: float,
                rng: np.random.Generator) -> NoisePath:
    """Sample the :func:`whole_steps` slices of dt in the horizon from one stream.

    ``rng`` draws every row of one batch, so the slices are the same, in
    the same order, as successive :func:`sample_slice` calls, with the
    spectral scale evaluated once.
    """
    steps = whole_steps(horizon, dt)
    return NoisePath(grid, dt, sample_slice_batch(grid, measure, dt, [rng] * steps))
