"""Periodic d-dimensional grid, discrete Fourier transform, and norms.

The whole package fixes one Fourier convention,

    F[f](eta) = integral exp(-i eta.x) f(x) dx,

with the inverse transform carrying the (2*pi)**(-d) factor.  On the
lattice the forward transform is the Riemann sum

    F[f](eta_j) = h**d * sum_m exp(-i eta_j . x_m) f(x_m),

over grid points x_m = -L/2 + m*h, with dual frequencies
eta_j = 2*pi*j/L, j in {-N/2, ..., N/2 - 1} per axis (stored in FFT
order).  Under this convention the discrete Plancherel identity

    ||f||_{L2}**2 = L**(-d) * sum_j |F[f](eta_j)|**2

is exact, which every isometry check in the package relies on.

N is even, so the half-period roll that moves x_0 = -L/2 to index 0 is
the checkerboard sign (-1)**(m_1 + ... + m_d) on the frequency side.

Fields are real, so their spectra are Hermitian, F[f](-eta) =
conj(F[f](eta)), and the half grid j_d in {0, ..., N/2} of the last
axis (``Grid.half_shape``) carries all of a spectrum.  The package's
transform pair works there:

    forward(f) = (h**d * sign)[..., :N/2+1] * rfftn(f),
    inverse(F) = irfftn((sign / h**d)[..., :N/2+1] * F, s=shape),

and the inverse is real by construction.  Multipliers are built on the
full grid; an even one (m(eta_j) == m(eta_{-j}) exactly, index j
against -j mod N on every axis) maps Hermitian spectra to Hermitian
spectra, so :meth:`Grid.half` restricts it to the half grid after that
exact equality check and refuses any other array.  A sum of an even
quantity over the full dual grid is, on the half grid, a sum in which
the interior last-axis columns 0 < j_d < N/2 count twice, for
themselves and their mirror; :meth:`Grid.half_sum` applies those
doubling weights, so the Plancherel identity reads

    ||f||_{L2}**2 = L**(-d) * half_sum(|forward(f)|**2).

:meth:`Grid.full_forward` is the complex transform on the full grid,
(h**d * sign) * fftn(f).  It is for the independent oracles, which
modulate integrands into complex fields or index frequency differences
over the whole dual lattice.  Its ``axes`` argument runs the same
transform over some spatial axes only, each scaled by h * (-1)**j_ax;
the multi-dimensional transform is separable, so transforms over a
partition of the axes compose to the full one.

The scale rule: the transforms' scales h**d * sign and sign / h**d are
constants, and none of them takes an elementwise pass of its own where
a diagonal multiplier sits beside it.

- A round trip's scales cancel: :meth:`Grid.filter`, the inverse of a
  multiplier times the forward transform, runs neither.
- A scale next to a diagonal multiplier is folded into it: ``forward``
  with ``multiplier`` applies (h**d * sign) * multiplier in one pass,
  and a caller that reads only |spectrum|**2 takes ``full_forward``
  with ``scaled=False`` and folds h**2 per transformed axis into the
  weights it multiplies by.

Multiplying by +-2**k is exact, so when h (and with it h**d) is a power
of two each folded product equals the unfused one bit for bit; at other
spacings the two differ by rounding only.

This module is the package's one FFT site: the transforms run on
``numpy.fft``, over the trailing ``d`` axes, so a leading batch axis
rides along and a batched transform equals the row-by-row one exactly.
An n-dimensional transform is a sequence of one-axis passes, and the
order of the passes sets the rounding, so it is fixed: the real
forward transform is an ``rfft`` over the last spatial axis followed by
in-place ``fft`` passes over the leading spatial axes in ascending
order; the inverse runs in-place ``ifft`` passes over the leading axes
in ascending order, then one ``irfft`` over the last axis; the complex
transform takes its axes in the order they are given.

``forward`` and ``full_forward`` take an optional ``out`` array and
write their result there: a complex array of the half spectrum's shape,
or of the input's shape (the input itself for a transform in place).
:meth:`Grid.filter` filters its fields in place, with an optional
complex ``work`` array for the spectrum, checked as ``forward`` checks
its ``out``.  Without them the same passes run on fresh buffers, so
both forms agree bit for bit.  The buffer forms let the Monte Carlo
kernel and the modulation oracle reuse buffers they own: a fresh
0.5-1 MB temporary per step or block is memory the allocator hands back
to the operating system when it is freed, so every use page-faults it
in again.  When a d = 2, N = 64 Monte Carlo block held 31 replicas
(``BENCH_17.json``), owned buffers took a 200-replica, 8-step call from
about 14,300 minor faults (white noise) or 2,950 (riesz) to 760, and a
modulation-oracle call from 256 to 64.  With blocks sized by the words
they hold (5 replicas there, ``BENCH_30.json``) that call takes about
220 (2-vCPU Intel Xeon, numpy 2.4.6, ``getrusage``).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import BinaryIO

import numpy as np

__all__ = [
    "Grid",
    "LatticeField",
    "norm_sq",
    "l2_norm",
    "h_neg_k_norm",
    "circular_convolve",
    "write_field",
    "read_field",
]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _table(build):
    """The package's one memo rule for tables keyed by more than the grid.

    ``build``'s result is memoized by its positional arguments, one entry
    (``functools.lru_cache(maxsize=1)``), and every array it returns, alone
    or in a tuple, is made read-only.  The callers of one configuration ask
    for the same key in turn, so they share one table none of them can
    change; a new key evicts the old, so a long sweep's row blocks are not
    held at once.  Grids are keys by value, measures by identity.  Tables
    of the grid alone are read-only cached properties of :class:`Grid`.
    """
    @functools.lru_cache(maxsize=1)
    @functools.wraps(build)
    def table(*key):
        out = build(*key)
        for arr in out if isinstance(out, tuple) else (out,):
            if isinstance(arr, np.ndarray):
                _read_only(arr)
        return out
    return table


def _rfftn(arr: np.ndarray, axes, out: np.ndarray | None = None) -> np.ndarray:
    """Real transform: ``rfft`` over the last of ``axes`` (into ``out`` if
    given), then in-place ``fft`` passes over the others in ascending order."""
    spec = np.fft.rfft(arr, axis=axes[-1], out=out)
    for ax in axes[:-1]:
        np.fft.fft(spec, axis=ax, out=spec)
    return spec


def _irfftn(buf: np.ndarray, n: int, axes, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`_rfftn`, overwriting the complex buffer ``buf``:
    in-place ``ifft`` passes over all but the last of ``axes`` in
    ascending order, then an ``irfft`` of length ``n`` over the last
    (into ``out`` if given)."""
    for ax in axes[:-1]:
        np.fft.ifft(buf, axis=ax, out=buf)
    return np.fft.irfft(buf, n=n, axis=axes[-1], out=out)


def _fftn(arr: np.ndarray, axes, out: np.ndarray | None = None) -> np.ndarray:
    """Complex transform: ``fft`` passes over ``axes`` in the order given,
    the first into ``out`` if given (which may be ``arr`` itself)."""
    out = np.fft.fft(arr, axis=axes[0], out=out)
    for ax in axes[1:]:
        np.fft.fft(out, axis=ax, out=out)
    return out


class Grid:
    """Uniform periodic grid on the centered box [-L/2, L/2)**d.

    Parameters
    ----------
    dimension : int
        Spatial dimension, 1 <= dimension <= 3.
    points_per_axis : int
        Points per axis N; must be a power of two, N >= 8.
    box_length : int, float or Fraction
        Side length L of the periodic box.  Rational values survive
        serialization exactly (the binary field header stores L as a
        numerator/denominator pair).
    """

    def __init__(self, dimension: int, points_per_axis: int, box_length) -> None:
        if not 1 <= dimension <= 3:
            raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
        n = int(points_per_axis)
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"points_per_axis must be a power of two >= 8, got {points_per_axis}")
        length = Fraction(box_length) if not isinstance(box_length, float) else Fraction(box_length).limit_denominator(10**9)
        if length <= 0:
            raise ValueError("box_length must be positive")
        self.dimension = dimension
        self.points_per_axis = n
        self.box_length_exact = length
        self.box_length = float(length)
        self.spacing = self.box_length / n
        self.shape = (n,) * dimension
        self.half_shape = self.shape[:-1] + (n // 2 + 1,)
        self.cell_volume = self.spacing**dimension
        self.dual_cell_volume = (2.0 * np.pi / self.box_length) ** dimension
        # axis coordinates and FFT-ordered dual frequencies
        self.axis_coords = -self.box_length / 2.0 + self.spacing * np.arange(n)
        self.axis_freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)
        self._doubling = np.full(n // 2 + 1, 2.0)
        self._doubling[[0, -1]] = 1.0

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, Grid)
            and self.dimension == other.dimension
            and self.points_per_axis == other.points_per_axis
            and self.box_length_exact == other.box_length_exact
        )

    def __hash__(self) -> int:
        return hash((self.dimension, self.points_per_axis, self.box_length_exact))

    def __repr__(self) -> str:
        return f"Grid(d={self.dimension}, N={self.points_per_axis}, L={self.box_length})"

    def _axis_array(self, values: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * self.dimension
        shape[axis] = self.points_per_axis
        return values.reshape(shape)

    def _axes_sum(self, per_axis: np.ndarray) -> np.ndarray:
        """sum_ax per_axis[m_ax] at every grid point, shape ``self.shape``."""
        acc = np.zeros(self.shape)
        for ax in range(self.dimension):
            acc = acc + self._axis_array(per_axis, ax)
        return acc

    @functools.cached_property
    def freq_norm_sq(self) -> np.ndarray:
        """|eta|**2 on the dual grid, FFT order, shape ``self.shape``, read-only."""
        return _read_only(self._axes_sum(self.axis_freqs**2))

    @functools.cached_property
    def coord_norm_sq(self) -> np.ndarray:
        """|x|**2 at the grid points, shape ``self.shape``, read-only."""
        return _read_only(self._axes_sum(self.axis_coords**2))

    def _axes(self, arr: np.ndarray) -> tuple[int, ...]:
        return tuple(range(arr.ndim - self.dimension, arr.ndim))

    @functools.cached_property
    def _signed_scales(self) -> tuple[np.ndarray, np.ndarray]:
        """The half-grid restrictions of h**d * sign and of sign / h**d, read-only."""
        sign = 1.0 - 2.0 * (self._axes_sum(np.arange(self.points_per_axis)) % 2)
        return (_read_only(self.half(self.cell_volume * sign)),
                _read_only(self.half(sign / self.cell_volume)))

    @functools.cached_property
    def _signed_spacing(self) -> np.ndarray:
        """h * (-1)**j along one axis, the per-axis scale of :meth:`full_forward`, read-only."""
        return _read_only(self.spacing * (1.0 - 2.0 * (np.arange(self.points_per_axis) % 2)))

    def _check_shape(self, arr: np.ndarray, shape: tuple[int, ...], what: str) -> None:
        if arr.shape[arr.ndim - self.dimension:] != shape:
            raise ValueError(f"{what} shape {arr.shape} does not match {shape} of {self}")

    @staticmethod
    def _check_out(out, shape: tuple[int, ...], dtype, name: str = "out") -> None:
        if not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == dtype):
            got = (out.shape, out.dtype) if isinstance(out, np.ndarray) else type(out).__name__
            raise ValueError(f"{name} must be a {np.dtype(dtype)} array of shape {shape}, got {got}")

    def forward(self, values: np.ndarray, out: np.ndarray | None = None,
                multiplier: np.ndarray | None = None) -> np.ndarray:
        """Half spectrum of real fields, with the h**d Riemann-sum scaling.

        Returns the last axis cut to N/2 + 1 frequencies; converges to
        the continuum transform as N grows for smooth fields that decay
        inside the box.  ``out``, a complex array of the spectrum's
        shape, receives the result and is returned; by default a fresh
        one is allocated.  A half-grid ``multiplier`` multiplies the
        spectrum in the same pass as the scale (the module's scale rule):
        the result is ``multiplier * forward(values)``.
        """
        arr = np.asarray(values)
        self._check_shape(arr, self.shape, "field")
        if out is not None:
            self._check_out(out, arr.shape[:-1] + self.half_shape[-1:], complex)
        scale = self._signed_scales[0]
        if multiplier is not None:
            self._check_shape(np.asarray(multiplier), self.half_shape, "half-grid multiplier")
            scale = scale * multiplier
        spec = _rfftn(arr, self._axes(arr), out)
        # without out the scaled spectrum is a second fresh array: scaling
        # in place there moved the solver's allocations and raised the
        # picard-solve benchmark's peak RSS by about 0.2 MB
        return np.multiply(scale, spec, out=out)

    def inverse(self, spectrum: np.ndarray) -> np.ndarray:
        """Real fields from half spectra; the inverse of :meth:`forward`.

        The transform runs on a complex copy of ``spectrum`` and returns
        fresh fields.
        """
        arr = np.asarray(spectrum)
        self._check_shape(arr, self.half_shape, "half spectrum")
        buf = np.multiply(self._signed_scales[1], arr, dtype=complex)
        return _irfftn(buf, self.points_per_axis, self._axes(arr))

    def filter(self, values: np.ndarray, multiplier: np.ndarray,
               work: np.ndarray | None = None) -> np.ndarray:
        """Filter real fields in place by a half-grid multiplier.

        ``values``, a writable float array, becomes
        ``inverse(multiplier * forward(values))`` and is returned.  The
        round trip's two scales cancel, so neither runs (the module's
        scale rule): the real transform goes into ``work``, the
        multiplier is applied there, and the inverse transform goes back
        into ``values``.  ``work`` is checked as :meth:`forward` checks
        its ``out`` and is overwritten; it is allocated when not given,
        with the same result bit for bit.
        """
        self._check_out(values, np.shape(values), float, "values")
        self._check_shape(values, self.shape, "field")
        self._check_shape(np.asarray(multiplier), self.half_shape, "half-grid multiplier")
        if work is not None:
            self._check_out(work, values.shape[:-1] + self.half_shape[-1:], complex,
                            "work, the forward transform's out")
        axes = self._axes(values)
        spec = _rfftn(values, axes, work)
        spec *= multiplier
        return _irfftn(spec, self.points_per_axis, axes, values)

    def full_forward(self, values: np.ndarray, axes: tuple[int, ...] | None = None,
                     out: np.ndarray | None = None, scaled: bool = True) -> np.ndarray:
        """Spectrum on the full dual grid, for real or complex fields.

        The complex transform the oracles use: modulated integrands are
        complex, and frequency differences range over the whole lattice.
        ``axes`` picks spatial axes (0 .. d - 1, default all) for a
        partial transform, scaled by the product over those axes of
        h * (-1)**j; partial transforms over a partition of the axes
        compose to the full one.  ``out``, a complex array of the
        input's shape, receives the result and is returned; it may be
        ``values`` itself, for a transform in place.  ``scaled=False``
        leaves that product out, for a caller that reads only
        |spectrum|**2 and folds h**2 per axis into its weights (the
        module's scale rule).
        """
        arr = np.asarray(values)
        self._check_shape(arr, self.shape, "field")
        if out is not None:
            self._check_out(out, arr.shape, complex)
        axes = tuple(range(self.dimension)) if axes is None else tuple(int(ax) for ax in axes)
        if not axes or len(set(axes)) != len(axes) or not all(0 <= ax < self.dimension for ax in axes):
            raise ValueError(f"axes {axes} are not distinct spatial axes of {self}")
        lead = arr.ndim - self.dimension
        out = _fftn(arr, [lead + ax for ax in axes], out)
        if scaled:
            out *= functools.reduce(np.multiply,
                                    [self._axis_array(self._signed_spacing, ax) for ax in axes])
        return out

    def half(self, multiplier: np.ndarray) -> np.ndarray:
        """Restrict an even full-grid multiplier to the half grid.

        Checks m(eta_j) == m(eta_{-j}) exactly over the trailing d axes
        (leading axes ride along) and returns m[..., :N/2 + 1]; raises
        ``ValueError`` on any array that is not even, whose product with
        a Hermitian spectrum would not be Hermitian.
        """
        m = np.asarray(multiplier)
        self._check_shape(m, self.shape, "multiplier")
        axes = self._axes(m)
        mirrored = np.roll(np.flip(m, axis=axes), (1,) * len(axes), axis=axes)
        if not np.array_equal(m, mirrored):
            raise ValueError("multiplier is not even, so it has no half-spectrum restriction")
        return np.ascontiguousarray(m[..., : self.half_shape[-1]])

    def half_sum(self, values: np.ndarray) -> np.ndarray:
        """Full-dual-grid sum of an even quantity held on the half grid.

        Sums over the trailing d axes; interior last-axis columns stand
        for themselves and their mirror, so they take weight 2.
        """
        arr = np.asarray(values)
        self._check_shape(arr, self.half_shape, "half-grid array")
        return np.sum(arr * self._doubling, axis=self._axes(arr))


@dataclass
class LatticeField:
    """Real scalar field on a grid, with a lazily cached half spectrum."""

    grid: Grid
    values: np.ndarray
    _spectrum: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} != grid shape {self.grid.shape}")

    @classmethod
    def from_spectrum(cls, grid: Grid, spectrum: np.ndarray) -> "LatticeField":
        values = grid.inverse(spectrum)
        out = cls(grid, values)
        out._spectrum = np.asarray(spectrum, dtype=complex)
        return out

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            self._spectrum = self.grid.forward(self.values)
        return self._spectrum

    def __sub__(self, other: "LatticeField") -> "LatticeField":
        if self.grid != other.grid:
            raise ValueError("grids differ")
        return LatticeField(self.grid, self.values - other.values)


def norm_sq(grid: Grid, values: np.ndarray, theta: np.ndarray | None = None) -> np.ndarray:
    """h**d * sum values**2 (times ``theta`` when given) over the trailing d axes.

    Leading axes are a batch and ride along; the one squared lattice norm.
    """
    sq = np.square(values)
    if theta is not None:
        sq *= theta
    return grid.cell_volume * np.sum(sq, axis=grid._axes(sq))


def l2_norm(f: LatticeField) -> float:
    """L2 norm, the square root of :func:`norm_sq`."""
    return math.sqrt(norm_sq(f.grid, f.values))


def h_neg_k_norm(f: LatticeField, k: int) -> float:
    """Negative-order Sobolev norm from the spectral side.

    ||f||**2 = (2*pi)**(-d) * sum_j q_j (1 + |eta_j|**2)**(-k) |F[f](eta_j)|**2,
    summed on the half grid, so k = 0 reproduces the L2 norm under the
    package convention.
    """
    grid = f.grid
    weight = grid.half((1.0 + grid.freq_norm_sq) ** (-k))
    total = grid.half_sum(weight * np.abs(f.spectrum) ** 2) / grid.box_length**grid.dimension
    return float(np.sqrt(total))


def circular_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index-space circular convolution of real arrays, sum_n a_n b_{m-n mod N}.

    Runs over the axes of ``a``, the trailing axes of ``b``; leading axes
    of ``b`` are a batch, convolved with ``a`` in one real transform
    pair, so ``a`` is transformed once per call.
    """
    a, b = np.asarray(a), np.asarray(b)
    axes = tuple(range(b.ndim - a.ndim, b.ndim))
    spec = _rfftn(a, tuple(range(a.ndim))) * _rfftn(b, axes)
    return _irfftn(spec, a.shape[-1], axes)


# ---------------------------------------------------------------------------
# binary snapshot format: 4 little-endian int64 header (d, N, L_num, L_den)
# followed by the N**d field values as little-endian float64, C order.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4q")


def write_field(f: LatticeField, fh: BinaryIO) -> None:
    g = f.grid
    frac = g.box_length_exact
    fh.write(_HEADER.pack(g.dimension, g.points_per_axis, frac.numerator, frac.denominator))
    fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_field(fh: BinaryIO) -> LatticeField:
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated field header")
    d, n, num, den = _HEADER.unpack(raw)
    grid = Grid(d, n, Fraction(num, den))
    count = n**d
    payload = fh.read(8 * count)
    if len(payload) != 8 * count:
        raise ValueError("truncated field payload")
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape).copy()
    return LatticeField(grid, values)
