"""Extended stochastic integral, its isometry, and approximation ladders.

The lattice stochastic convolution at time t is the left-endpoint sum

    v(t) = sum_{s_i < t} G(t - s_i) * (Z(s_i) . W_i),

where W_i is the noise increment of step i, the product is pointwise in
real space, and each convolution is a Fourier-multiplier application.
The left-endpoint rule is the predictability requirement made literal:
the slice of step i multiplies Z evaluated at step i, never later data.
With that rule the expected squared L2 norm of v equals the isometry
functional

    I = sum_i dt * L**(-d) * sum_xi E|F[Z_i](xi)|**2 * J_i(xi),
    J_i(xi) = sum_eta D_eta |F[G(t - s_i)](xi - eta)|**2,

exactly in the discrete model (frequency differences wrap around the
dual lattice, matching the aliasing of lattice products), so Monte Carlo
deviations beyond sampling error indicate bugs rather than
discretization error.

An integrand is one array Z of shape (steps, *grid.shape), time on the
leading axis (:class:`IntegrandProcess`), so the spectra of all steps
come from one batched transform.  Its horizon is the time t, as v(t) is
fixed by the integrand on [0, t]: v at m * dt is the integral of the
first m steps.  Only the oracle :func:`stochastic_convolution` takes t.

The Monte Carlo kernel (:func:`convolution_norms_mc`) works on half
spectra: noise, integrand and solution are real and the Green
multipliers even, so it runs on ``Grid.forward`` and ``Grid.half``.  The
quadratures and the oracles index frequency differences over the whole
dual lattice or modulate integrands into complex fields, so they take
full spectra from ``Grid.full_forward``.  The modulation oracle
(:func:`isometry_alternative`) sweeps its dual frequencies eta over the
half dual grid with ``Grid.half_sum`` weights: Z is real, so modulating
by -eta conjugates the field and mirrors its spectrum, and the even
weights and |F[G]|**2 give eta and -eta the same term.  Each modulated
integrand is still transformed on the full grid, row-column: the
modulation is a product of per-axis phases, so one leading-axes
transform serves every eta that shares its leading coordinates, and a
last-axis transform per eta completes it.  The oracle reads only
|F|**2, so that last-axis transform runs unscaled and its
|h (-1)**j|**2 = h**2 is folded into the weights |F[G]|**2 (the scale
rule of ``stochwave.lattice``).

The Monte Carlo kernel draws each replica from its own generator in
time order, in blocks sized by the words its buffers hold for a replica
(``noise.replica_blocks``; the count is ``_replica_words``),
so its memory is bounded on every grid and the blocks move no value.  It
allocates one real and two complex block buffers per call, and every
block and step works on leading views of them.  A step makes these
passes over a block: the slices are drawn into the real buffer
(``noise.sample_slice_batch`` with ``out``), a varying noise filter
runs its unscaled round trip through the first complex buffer, the
slices are multiplied by Z in place, the forward transform goes into
that complex buffer with the Green multiplier applied in the same pass
as its scale (``Grid.forward`` with ``multiplier``: the scale rule of
``stochwave.lattice``), and the second complex buffer accumulates
F[v(t)].  The modulation oracle likewise transforms its modulated
fields in place, in buffers it allocates once per call.  Both go
through the ``out`` forms of the transforms, because fresh block-sized
temporaries cost page faults whenever the allocator hands their pages
back (the numbers are in the ``lattice`` module docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import SpectralMeasure
from .greens import GreenMultiplier, j_field
from .lattice import Grid, LatticeField, circular_convolve, norm_sq
from .noise import NoisePath, mean_se, replica_blocks, sample_slice_batch, whole_steps

__all__ = [
    "IntegrandProcess",
    "Mollifier",
    "stochastic_convolution",
    "isometry_functional",
    "isometry_bound",
    "isometry_alternative",
    "ladder_distance",
    "truncation_distance",
    "convolution_norms_mc",
    "convolution_moment_mc",
]

# Last-axis dual frequencies per transform in isometry_alternative.  At
# N = 64, d = 2 a block of 8 modulated complex fields is 512 KB, so it
# stays in cache; on the isometry experiment's three d = 2 cases (2-vCPU
# Intel Xeon, one BLAS thread, block sizes interleaved in one process,
# median of 9, in two orders), with the fields transformed in place and
# unscaled, the oracle took 0.198 s at a block of 4, 0.189 s at 8 and
# 0.194 s at 16.  An earlier timing, on the code of its time, read
# 0.31-0.32 s at 4, 0.29 s at 8, 0.31 s at 16 and 0.35-0.36 s at 64.
_MODULATION_BLOCK = 8


@dataclass
class IntegrandProcess:
    """Integrand fields Z(s_i) on a common time grid, one array.

    ``fields`` has shape (steps, *grid.shape); row i is Z(s_i).  A
    constant integrand (:meth:`constant`) stores its one field as a
    broadcast view, so its rows share memory and the time axis has zero
    stride, which is what :attr:`is_constant` reads.
    """

    grid: Grid
    dt: float
    fields: np.ndarray

    def __post_init__(self) -> None:
        self.fields = np.asarray(self.fields, dtype=float)
        if self.fields.shape[1:] != self.grid.shape:
            raise ValueError(f"integrand shape {self.fields.shape} is not "
                             f"(steps, *{self.grid.shape})")

    def __len__(self) -> int:
        return len(self.fields)

    @property
    def horizon(self) -> float:
        return self.dt * len(self.fields)

    def lags(self) -> np.ndarray:
        """Green times t - s_i of the steps, with t the horizon."""
        return self.horizon - self.dt * np.arange(len(self.fields))

    @classmethod
    def constant(cls, grid: Grid, values, steps: int, dt: float) -> "IntegrandProcess":
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"field shape {values.shape} != grid shape {grid.shape}")
        return cls(grid, dt, np.broadcast_to(values, (steps,) + grid.shape))

    @property
    def is_constant(self) -> bool:
        return self.fields.strides[0] == 0

    def spectra_sq(self) -> np.ndarray:
        """E|F[Z_i]|**2 per step on the full grid (exact for deterministic Z), one transform."""
        if self.is_constant:
            one = np.abs(self.grid.full_forward(self.fields[:1])) ** 2
            return np.broadcast_to(one, self.fields.shape)
        return np.abs(self.grid.full_forward(self.fields)) ** 2


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------


def _gauss_legendre_unit(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    return 0.5 * (x + 1.0), 0.5 * w


class Mollifier:
    """Rescaled smooth bump psi_n(x) = n**d psi(n x).

    The base bump is exp(-1/(1 - |x|**2)) on |x| < 1, normalized to
    unit mass, so supp psi_n shrinks to the origin and |F[psi_n]| <= 1
    everywhere with F[psi_n](0) = 1.  The radial transform is computed
    by fixed Gauss-Legendre quadrature (node count grows with the
    largest requested frequency) and normalized with the same rule, so
    the unit-mass identity holds to machine precision.
    """

    def __init__(self, scale: int, dimension: int) -> None:
        if scale < 1:
            raise ValueError("mollifier scale must be >= 1")
        if not 1 <= dimension <= 3:
            raise ValueError("dimension must be 1, 2 or 3")
        self.scale = int(scale)
        self.dimension = int(dimension)

    @staticmethod
    def bump(r: np.ndarray) -> np.ndarray:
        """Unnormalized radial profile exp(-1/(1-r**2)) on r < 1."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = np.abs(r) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
        return out

    def base_transform(self, xi_mag) -> np.ndarray:
        """F[psi](u) for the unit-scale bump, radial in d dimensions."""
        u = np.atleast_1d(np.asarray(xi_mag, dtype=float))
        n_nodes = max(64, int(2.0 * np.max(np.abs(u))) + 32)
        r, w = _gauss_legendre_unit(n_nodes)
        b = self.bump(r)
        d = self.dimension
        ur = np.abs(u)[..., None] * r
        if d == 1:
            raw = 2.0 * np.sum(w * b * np.cos(ur), axis=-1)
            mass = 2.0 * np.sum(w * b)
        elif d == 2:
            from scipy.special import j0

            raw = 2.0 * np.pi * np.sum(w * b * r * j0(ur), axis=-1)
            mass = 2.0 * np.pi * np.sum(w * b * r)
        else:
            rad = np.ones_like(ur)
            nz = ur > 0
            rad[nz] = np.sin(ur[nz]) / ur[nz]
            raw = 4.0 * np.pi * np.sum(w * b * r**2 * rad, axis=-1)
            mass = 4.0 * np.pi * np.sum(w * b * r**2)
        return raw / mass

    def transform(self, xi_mag) -> np.ndarray:
        """F[psi_n](xi) = F[psi](xi / n)."""
        return self.base_transform(np.asarray(xi_mag, dtype=float) / self.scale)


# ---------------------------------------------------------------------------
# stochastic convolution and isometry quadratures
# ---------------------------------------------------------------------------


def stochastic_convolution(g: GreenMultiplier, Z: IntegrandProcess, path: NoisePath,
                           t: float) -> LatticeField:
    """Test oracle for the solver's stochastic convolution: the left-endpoint
    lattice integral of G(t-s) against Z(s) M(ds, dy).

    A direct history sum on full spectra, over the slices ``path.first``
    checks as the solver's do.  The solver reaches the same sum in its
    rotated frame on half spectra instead: by the addition formula
    sin((t - s) w)/w = [sin(t w) cos(s w) - cos(t w) sin(s w)]/w, the
    history at every step time is two prefix sums over rows of the Green
    pair at the step times (``solver._green_rows``).
    """
    grid, dt = Z.grid, Z.dt
    m = whole_steps(t, dt)
    if m > len(Z):
        raise ValueError(f"time {t} needs {m} integrand steps, Z has {len(Z)}")
    acc = np.zeros(grid.shape, dtype=complex)
    for i, w in enumerate(path.first(m, grid, dt)):
        prod = Z.fields[i] * w
        acc += g.lattice_spectrum(grid, t - i * dt) * grid.full_forward(prod)
    # the half spectrum is the full one's first N/2 + 1 last-axis columns
    return LatticeField.from_spectrum(grid, acc[..., : grid.half_shape[-1]])


def isometry_functional(g, Z: IntegrandProcess, measure: SpectralMeasure) -> float:
    """Exact second moment E||v(t)||**2 of the discrete convolution."""
    grid, dt = Z.grid, Z.dt
    jf = j_field(g, measure, Z.lags(), grid)
    total = np.sum(Z.spectra_sq() * jf)
    return float(dt * total / grid.box_length**grid.dimension)


def isometry_bound(g, Z: IntegrandProcess, measure: SpectralMeasure,
                   theta: np.ndarray | None = None) -> float:
    """Upper bound: sum_i dt ||Z_i||**2 * sup_xi J_i(xi), the norm theta-weighted if given.

    Coincides with :func:`isometry_functional` for white noise, where
    translation invariance makes J constant in the shift.
    """
    grid, dt = Z.grid, Z.dt
    jmax = np.max(j_field(g, measure, Z.lags(), grid), axis=tuple(range(1, grid.dimension + 1)))
    return float(dt * np.sum(norm_sq(grid, Z.fields, theta) * jmax))


def isometry_alternative(g, Z: IntegrandProcess, measure: SpectralMeasure) -> float:
    """Second moment through modulation: integrate ||G * (chi_eta Z)||**2.

    The test oracle for :func:`isometry_functional`: chi_eta(x) =
    exp(i eta . x); for each dual frequency of nonzero weight the
    integrand is modulated in real space, transformed on the full grid,
    and weighted by |F[G]|**2, so this path exercises transforms rather
    than the index arithmetic of ``j_field``.

    eta runs over the half dual grid only.  Z is real, so chi_{-eta} Z =
    conj(chi_eta Z) and |F[chi_{-eta} Z](xi)|**2 = |F[chi_eta Z](-xi)|**2;
    with |F[G]|**2 even, the inner sum over xi is the same for eta and
    -eta, and so are the weights D_eta.  The weights and every |F[G]|**2
    go through ``Grid.half``, whose exact evenness check guards that
    pairing, and ``Grid.half_sum`` counts the interior last-axis columns
    for themselves and their mirror.

    The transform runs row-column.  chi_eta is the product of per-axis
    phases exp(i eta_ax x_ax), and the transform over the leading axes
    does not see the last axis's phase, so for each leading prefix
    (eta_0, ..., eta_{d-2}) with an active weight the modulated fields
    chi_prefix Z take one leading-axes ``Grid.full_forward`` (every step
    in one call).  Each active eta_{d-1} of that prefix then modulates
    the result along the last axis, in blocks of at most
    ``_MODULATION_BLOCK``, and one last-axis transform per block and
    step, in place, completes the full-grid spectrum of chi_eta Z; it
    runs unscaled, with h**2 folded into the weights |F[G]|**2.  Agrees
    with :func:`isometry_functional` to rounding error.
    """
    grid, dt = Z.grid, Z.dt
    if not len(Z):
        return 0.0
    weights = measure.half_lattice_weights(grid)
    mult_sq = np.abs(g.lattice_spectrum(grid, Z.lags())) ** 2
    grid.half(mult_sq)  # the pairing needs every |F[G(t_i)]|**2 even
    mult_sq = mult_sq.reshape(len(Z), -1)
    fields = Z.fields
    if Z.is_constant:
        # the spectrum of chi_eta Z is the same at every step
        fields, mult_sq = fields[:1], mult_sq.sum(axis=0, keepdims=True)
    # the last-axis transforms run unscaled: their |h (-1)**j|**2 = h**2
    # is folded into the weights (the lattice module's scale rule)
    mult_sq = mult_sq * grid.spacing**2
    # phase[j, p] = exp(i eta_j x_p); every axis uses the same table
    phase = np.exp(1j * np.multiply.outer(grid.axis_freqs, grid.axis_coords))
    last = grid.dimension - 1
    lead_axes = tuple(range(last))
    active = weights != 0
    # work buffers reused by every prefix and block, the transforms run
    # in place in them: fresh block-sized temporaries cost page faults
    # whenever the allocator hands their pages back
    mod = np.empty((_MODULATION_BLOCK,) + grid.shape, dtype=complex)
    lead_buf = np.empty(fields.shape, dtype=complex)
    spec_sq = np.empty((2, _MODULATION_BLOCK, mult_sq.shape[1]))
    inner = np.zeros(grid.half_shape)
    # prefixes (j_0, ..., j_{d-2}) with an active eta; one empty prefix at d = 1
    for prefix in map(tuple, np.argwhere(active.any(axis=-1))):
        lead = fields
        if prefix:
            chi = 1.0
            for ax, j in enumerate(prefix):
                chi = chi * grid._axis_array(phase[j], ax)
            lead = grid.full_forward(np.multiply(chi, fields, out=lead_buf), axes=lead_axes,
                                     out=lead_buf)
        cols = np.flatnonzero(active[prefix])
        row = inner[prefix]
        for lo in range(0, cols.size, _MODULATION_BLOCK):
            block = cols[lo:lo + _MODULATION_BLOCK]
            chi = phase[block].reshape((block.size,) + (1,) * last + (-1,))
            re_sq, im_sq = spec_sq[:, :block.size]
            for f, msq in zip(lead, mult_sq):
                spec = np.multiply(chi, f, out=mod[:block.size])
                grid.full_forward(spec, axes=(last,), out=spec, scaled=False)
                spec = spec.reshape(block.size, -1)
                np.square(spec.real, out=re_sq)
                re_sq += np.square(spec.imag, out=im_sq)
                row[block] += re_sq @ msq
    total = grid.half_sum(weights * inner)
    return float(dt * total / grid.box_length**grid.dimension)


def ladder_distance(g: GreenMultiplier, scale: int, Z: IntegrandProcess,
                    measure: SpectralMeasure) -> float:
    """||G - G * psi_n||_Z: isometry quadrature with multiplier G(1 - F[psi_n])."""
    grid, dt = Z.grid, Z.dt
    moll = Mollifier(scale, grid.dimension)
    damp_sq = (1.0 - moll.transform(np.sqrt(grid.freq_norm_sq))) ** 2
    mult_sq = g.lattice_spectrum(grid, Z.lags()) ** 2 * damp_sq
    jf = np.maximum(circular_convolve(measure.lattice_weights(grid), mult_sq), 0.0)
    total = np.sum(Z.spectra_sq() * jf)
    return float(math.sqrt(dt * total / grid.box_length**grid.dimension))


def truncation_distance(g: GreenMultiplier, Z: IntegrandProcess,
                        measure: SpectralMeasure, half_width: float) -> float:
    """||Z - Z_n||_g for the cube truncation Z_n = Z 1_{[-n, n]**d}."""
    grid = Z.grid
    inside = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dimension):
        coord = grid._axis_array(grid.axis_coords, ax)
        inside = inside & (np.abs(coord) <= half_width)
    tail = IntegrandProcess(grid, Z.dt, Z.fields * ~inside)
    return float(math.sqrt(isometry_functional(g, tail, measure)))


# ---------------------------------------------------------------------------
# Monte Carlo second moment of the convolution
# ---------------------------------------------------------------------------


def _replica_words(grid: Grid) -> int:
    """Float64 words one replica keeps live in the Monte Carlo kernel's
    block buffers: one real field and two complex half spectra."""
    return math.prod(grid.shape) + 4 * math.prod(grid.half_shape)


def convolution_norms_mc(g, Z: IntegrandProcess, measure: SpectralMeasure, replicas: int,
                         rng, norm_sq) -> np.ndarray:
    """Squared norms of v(t), t the horizon of Z, over independent replicas.

    ``rng`` is exactly ``replicas`` generators: replica r consumes only
    its own stream, slice by slice in time order (the draw rule of
    ``stochwave.noise``), so neither the block size nor the replica
    offset moves its norm.
    Blocks come from ``noise.replica_blocks``, told the float64 words
    one replica keeps live in the three buffers below
    (:func:`_replica_words`), so a block's buffers stay within
    ``noise._BLOCK_ENTRIES`` words on every grid where one replica
    fits.  Each block samples fresh slices for
    every time step and accumulates the half spectra F[v(t)];
    ``norm_sq`` maps that (c, *grid.half_shape) batch to its c squared
    norms before the next block starts.

    The slices, their spectra and the accumulator live in three buffers
    allocated once per call, sized by the first block, and reused by
    every block and step through leading ``[:c]`` views.  So the batch
    ``norm_sq`` receives is a view of a reused buffer: it may read it
    but must not keep it, since the next block overwrites it (the
    Plancherel norm here and the theta norm of ``weighted`` only read it).
    """
    grid, dt = Z.grid, Z.dt
    blocks = replica_blocks(replicas, _replica_words(grid), rng)
    # lag by lag, so one full-grid spectrum is live at a time
    mults = [grid.half(g.lattice_spectrum(grid, lag)) for lag in Z.lags()]
    sq_norms = np.empty(replicas)
    rows = blocks[0][1] - blocks[0][0]
    fields_buf = np.empty((rows,) + grid.shape)
    spec_buf = np.empty((rows,) + grid.half_shape, dtype=complex)
    acc_buf = np.empty_like(spec_buf)
    for lo, hi, gens in blocks:
        k = hi - lo
        fields, spec, acc = fields_buf[:k], spec_buf[:k], acc_buf[:k]
        acc.fill(0.0)
        for z, mult in zip(Z.fields, mults):
            sample_slice_batch(grid, measure, dt, gens, out=fields, work=spec)
            fields *= z
            acc += grid.forward(fields, out=spec, multiplier=mult)
        sq_norms[lo:hi] = norm_sq(acc)
    return sq_norms


def convolution_moment_mc(g, Z: IntegrandProcess, measure: SpectralMeasure,
                          replicas: int, rng) -> tuple[float, float]:
    """Estimate E||v(t)||**2 over independent replicas.

    Returns (mean, standard error) over :func:`convolution_norms_mc`
    replicas, whose squared norm is evaluated by Plancherel on the half
    grid.  A standard error needs ``replicas >= 2``.
    """
    if replicas < 2:
        raise ValueError(f"replicas: must be >= 2, got {replicas}")
    grid = Z.grid
    vol = grid.box_length**grid.dimension

    def plancherel(acc: np.ndarray) -> np.ndarray:
        return grid.half_sum(acc.real**2 + acc.imag**2) / vol

    mean, se = mean_se(convolution_norms_mc(g, Z, measure, replicas, rng, plancherel))
    return float(mean), float(se)
