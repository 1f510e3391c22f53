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
are even in eta, so it filters half spectra, one real round trip
(``Grid.filter``, which runs neither of the pair's scales, since they
cancel: the scale rule of ``stochwave.lattice``) with the weights
restricted by ``Grid.half`` (``SpectralMeasure.half_lattice_weights``).
The choice is made once a filter, from its values, not from the
measure's kind: the filter is a table of (grid, measure, dt)
(``lattice._table``).  Every consumer multiplies an increment pointwise
in space, so the sampler hands out real fields; only this module sees
the spectrum.
The draw rule, which every sampler of the package follows: slices are
independent across time steps and reproducible from the generator handed
in, and slice s of a stream is its s-th draw of a field of standard
normals.  A stream's consecutive slices are one fill of consecutive rows,
which draws the same numbers as one fill a slice, so
:func:`sample_slice_batch` lets each generator of its list fill ``steps``
consecutive rows in one call (row i * steps + j is slice j of stream i):
a path is one stream filling all its slices (:func:`sample_path`), a
replica batch one stream a replica, in blocks sized by
:func:`replica_blocks`, each filling a chunk of steps.  How the slices
are split into calls, blocks or chunks therefore changes no value, and
neither does a caller that draws block after block handing in the rows
and the spectrum buffer to reuse (``out``, ``work``).  Every replica
sample set is reduced to its mean and standard error by :func:`mean_se`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import SpectralMeasure
from .lattice import Grid, _table

__all__ = ["NoisePath", "whole_steps", "sample_slice", "sample_slice_batch", "sample_path",
           "replica_blocks", "mean_se"]

# The float64 words a block may keep live, 512 KiB: a d = 2, N = 64 Monte Carlo
# block of 5 replicas holds 0.5 MB of buffers, not 3.1 MB at 31, and a sweep at
# d = 2, N = 128, n = 1,024 with its rows in blocks ran in 87 MB max RSS, not
# 420 MB (Intel Xeon).  ``scripts/scaling.py`` times the kernel against it.
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

    def first(self, steps: int, grid: Grid, dt: float) -> np.ndarray:
        """The first ``steps`` slices, by the one path-fit rule every consumer of a path
        reads: the path has ``grid``, ``dt`` to 1e-12 relative, and ``steps`` slices or more."""
        if self.grid != grid:
            raise ValueError(f"noise path grid {self.grid} is not {grid}")
        if abs(self.dt - dt) > 1e-12 * dt:
            raise ValueError(f"noise path dt {self.dt!r} is not {dt!r}")
        if len(self) < steps:
            raise ValueError(f"path provides {len(self)} slices, {steps} needed")
        return self.fields[:steps]


@_table
def _spectral_scale(grid: Grid, measure: SpectralMeasure, dt: float):
    """The filter sqrt(dt N**d D_j) on the half grid, a table (``lattice._table``):
    one scalar when its entries are all equal, else the half-grid array."""
    scale = np.sqrt(dt * grid.points_per_axis**grid.dimension * measure.half_lattice_weights(grid))
    first = scale.flat[0]
    return first if np.all(scale == first) else scale


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
                       work: np.ndarray | None = None, steps: int = 1) -> np.ndarray:
    """Real increments of independent slices, ``steps`` consecutive ones a generator of ``rngs``.

    Row i * steps + j is slice j of ``rngs[i]``, drawn by the module's
    draw rule with one fill a generator, so ``len(result)`` counts
    slices.  A filter whose entries are all equal (white noise) is one
    scalar, applied to the draws in place; any other filter runs the
    half-spectrum round trip ``Grid.filter``: the real transform into
    ``work``, the filter applied there, and the inverse back into the
    draws' rows, with no scale pass.

    ``out`` (float, shape (len(rngs) * steps, *grid.shape)) receives the
    slices and is returned; ``work`` (complex, shape (len(rngs) * steps,
    *grid.half_shape)) is the spectrum buffer of a varying filter,
    overwritten.  Either is allocated when not given, so a caller that
    passes both reuses its own buffers on every call.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    shape = (len(rngs) * steps,) + grid.shape
    if out is None:
        out = np.empty(shape)
    else:
        grid._check_out(out, shape, float)
    for i, gen in enumerate(rngs):
        gen.standard_normal(out=out[i * steps:(i + 1) * steps])
    scale = _spectral_scale(grid, measure, dt)
    if np.ndim(scale):
        return grid.filter(out, scale, work)
    out *= scale
    return out


def replica_blocks(replicas: int, entries: int, rng=None) -> list[tuple[int, int, object]]:
    """``(lo, hi, generators)`` blocks of max(1, min(256, _BLOCK_ENTRIES // entries)) items.

    ``entries`` is the float64 words one item keeps live, so a block
    stays within ``_BLOCK_ENTRIES`` words wherever one item fits; each
    caller says what it counts.  The 256-item cap binds only on small
    items: at d = 1, N <= 64 the words alone would fill the Monte Carlo
    kernel's buffers to within 576 bytes of the budget, less than its
    array headers and views take.  ``rng`` is exactly ``replicas``
    generators, sliced per block; without it ``generators`` is None (the
    sweep's step blocks).  One generator shared by the blocks would tie
    the draws to the block size, so it is refused.  The counts are
    checked before the first block is made.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    if entries < 1:
        raise ValueError(f"entries must be at least 1, got {entries}")
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
    """Sample the :func:`whole_steps` slices of dt in the horizon from one stream, in one call."""
    steps = whole_steps(horizon, dt)
    return NoisePath(grid, dt, sample_slice_batch(grid, measure, dt, [rng], steps=steps))
