"""Mild-solution solver: deterministic wave part plus Picard iteration.

A solution of

    u_tt + (-1)**k Lap**k u = alpha(u) dF,   u(0) = v0, u_t(0) = v0_dot,

is computed in mild form on the lattice: the deterministic part
propagates the initial data through the cosine and Green multipliers,
and the stochastic convolution of alpha(u) against the noise is added
through the left-endpoint rule.  Because that rule makes u(t_j) depend
only on u(t_i) with i < j, a single causal forward sweep solves the
discrete fixed-point equation exactly; Picard iteration reaches the
same fixed point (after at most one iteration per time step) and is
kept both as the constructive existence scheme and as a cross-check.

Time advances in a rotated frame.  Per frequency,
with w = |eta|**k, the free flow of (F[u], F[u_t]) is the rotation

    R(t) = [[cos(t w), sin(t w)/w], [-w sin(t w), cos(t w)]],

and the addition formula sin((t - s) w)/w = [sin(t w) cos(s w) -
cos(t w) sin(s w)]/w gives R(t_j - t_i) = R(t_j) R(-t_i).  The forcing
g_i = scale F[alpha(u(t_i)) W_i] enters F[u_t] at t_i (left endpoint),
and R(-t_i) (0, g_i) = (-sin(t_i w)/w g_i, cos(t_i w) g_i), so with the
prefix sums P_j = sum_{i<j} sin(t_i w)/w g_i and
Q_j = sum_{i<j} cos(t_i w) g_i the state at t_j is exactly

    F[u(t_j)]   = cos(t_j w) a_j + sin(t_j w)/w b_j,
    F[u_t(t_j)] = -w sin(t_j w) a_j + cos(t_j w) b_j,

with the frame coordinates a_j = F[v0] - P_j and b_j = scale F[v0_dot]
+ Q_j.  The sweep and the Picard update carry a and b, and the state
leaves the frame through rows of the Green pair at the step times
(:func:`_green_rows`): no state is rotated step by step and no history
is re-summed.  The solution and its forcing are real and the Green pair
is even in frequency, so every spectrum here is a half spectrum
(``Grid.forward``/``Grid.inverse``) and the rows are computed on the
half grid, from |eta| restricted by ``Grid.half``.  The forcing scale
enters in the forward transform's one scaled product (``Grid.forward``
with ``multiplier``: the scale rule of ``stochwave.lattice``), not in a
pass of its own.  The rows depend on the grid, k, dt and the step range
only, never on the noise, so they and the forcing scale are tables of
those values (``lattice._table``): every solve of one configuration
reads one.  Three callers read the rows:

- the causal sweep (:func:`_causal_sweep`), whose forcing alpha(u(t_j)) W_j
  depends on the current state: each step adds one term to a and to b
  and costs one transform pair, and the rows come a block of step
  times at a time, so the sweep's memory does not grow with n; when the
  n + 1 rows fit in one block, that block is the whole-horizon table;
- the Picard update (:func:`_picard_update`), whose inputs are all known
  before it starts: one batched forward transform of every step's
  forcing, two cumulative sums along time (the sweep's additions, in the
  sweep's order) and one batched inverse of the new trajectory;
- the free evolution (:func:`energy_trajectory`, the u0 initial guess,
  :func:`deterministic_moments`): the frame with P = Q = 0.

Trajectories put time on the leading axis and may carry a replica axis
after it: :func:`sweep_replicas` and :func:`picard_replicas` solve
Monte Carlo ensembles in blocks of replicas from ``noise.replica_blocks``,
each replica's noise drawn in chunks of steps (:func:`_noise_chunks`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .covariance import SpectralMeasure, admissible
from .greens import GreenMultiplier, cosine_multiplier, j_functional, sine_multiplier
from .greens import spectral_energy_field
from .lattice import Grid, LatticeField, _table, h_neg_k_norm, l2_norm, norm_sq
from .noise import NoisePath, mean_se, replica_blocks, sample_slice_batch, whole_steps

__all__ = [
    "Nonlinearity",
    "SolveConfig",
    "SolveReport",
    "MomentSummary",
    "deterministic_part",
    "deterministic_velocity",
    "deterministic_moments",
    "energy_trajectory",
    "explicit_sweep",
    "sweep_replicas",
    "picard_iterate",
    "picard_replicas",
    "check_envelope",
    "moment_track",
]

MIN_TRACK_REPLICAS = 30  # the fewest replica trajectories moment tracking pools

# alpha(u) = 1 - exp(-u) has slope exp(-u), unbounded as u -> -inf; its
# declared constant exp(box) is only valid on |u| <= box, so evaluating it
# anywhere outside the box is an error.
_ONE_MINUS_EXP_BOX = 3.0


@dataclass(frozen=True)
class Nonlinearity:
    """Lipschitz forcing coefficient alpha with declared constant."""

    name: str
    func: object
    lipschitz: float

    def __post_init__(self) -> None:
        if self.lipschitz < 0:
            raise ValueError("Lipschitz constant must be non-negative")

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.func(u)

    @cached_property
    def _alpha0(self) -> float:  # |alpha(0)|
        return float(np.abs(np.asarray(self.func(np.zeros(1))))[0])

    @property
    def vanishes_at_zero(self) -> bool:
        return self._alpha0 == 0.0

    @property
    def growth(self) -> float:
        """Constant of the linear-growth bound |alpha(u)| <= K (1 + |u|)."""
        return max(self.lipschitz, self._alpha0)

    @classmethod
    def identity(cls) -> "Nonlinearity":
        return cls("identity", lambda u: u, 1.0)

    @classmethod
    def sine(cls) -> "Nonlinearity":
        return cls("sine", np.sin, 1.0)

    @classmethod
    def one_minus_exp(cls) -> "Nonlinearity":
        box = _ONE_MINUS_EXP_BOX

        def alpha(u: np.ndarray) -> np.ndarray:
            peak = float(np.max(np.abs(u), initial=0.0))
            if not peak <= box:
                raise ValueError(f"nonlinearity 'one-minus-exp' evaluated at max|u| = {peak:.6g}, "
                                 f"outside the box |u| <= {box:g} where its Lipschitz "
                                 f"constant exp({box:g}) holds")
            return 1.0 - np.exp(-u)

        return cls("one-minus-exp", alpha, math.exp(box))

    @classmethod
    def affine(cls, a: float, b: float) -> "Nonlinearity":
        return cls("affine", lambda u: a * u + b, abs(a))


@dataclass
class SolveConfig:
    """Full problem description for one solve."""

    grid: Grid
    measure: SpectralMeasure
    k: int
    horizon: float
    dt: float
    nonlinearity: Nonlinearity
    v0: LatticeField
    v0_dot: LatticeField | None = None
    picard_tol: float = 1e-13
    noise_mask: np.ndarray | None = None
    snapshot_stride: int = 10

    @property
    def steps(self) -> int:
        return whole_steps(self.horizon, self.dt)

    @property
    def green(self) -> GreenMultiplier:
        return GreenMultiplier(self.k, self.horizon)

    def validate(self, weighted: bool = False) -> None:
        whole_steps(self.horizon, self.dt)  # raises unless dt splits the horizon
        if not admissible(self.measure, self.k):
            raise ValueError("measure fails the admissibility condition for this k")
        if not weighted and not self.nonlinearity.vanishes_at_zero:
            raise ValueError(
                "nonlinearity does not vanish at zero; use the weighted solver (weighted.weighted_wave_solve)"
            )
        if not math.isfinite(l2_norm(self.v0)):
            raise ValueError("v0 has non-finite L2 norm")
        if self.v0_dot is not None and not math.isfinite(h_neg_k_norm(self.v0_dot, self.k)):
            raise ValueError("v0_dot has non-finite negative-Sobolev norm")
        if self.noise_mask is not None and np.asarray(self.noise_mask).shape != self.grid.shape:
            raise ValueError("noise mask shape does not match the grid")


@dataclass
class SolveReport:
    """Outcome of one pathwise solve."""

    moments: np.ndarray  # ||u(t_j)||**2 along the path
    m_table: list[np.ndarray]  # per-iteration squared Picard distances over t
    iterations: int
    converged: bool
    snapshots: dict[int, LatticeField]  # views of one (n + 1, *grid.shape) trajectory

    def snapshot_at(self, step: int) -> LatticeField:
        return self.snapshots[step]


# ---------------------------------------------------------------------------
# deterministic part
# ---------------------------------------------------------------------------


def deterministic_part(cfg: SolveConfig, t: float) -> LatticeField:
    """Test oracle for the free evolution: u0(t) = (d/dt) G(t) * v0 + G(t) * v0_dot, at any t."""
    grid = cfg.grid
    mag = np.sqrt(grid.freq_norm_sq)
    spec = grid.half(cosine_multiplier(t, mag, cfg.k)) * cfg.v0.spectrum
    if cfg.v0_dot is not None:
        spec = spec + grid.half(cfg.green.lattice_spectrum(grid, t)) * cfg.v0_dot.spectrum
    return LatticeField.from_spectrum(grid, spec)


def deterministic_velocity(cfg: SolveConfig, t: float) -> LatticeField:
    """Test oracle for the free velocity: d/dt of :func:`deterministic_part`, in closed form."""
    grid = cfg.grid
    mag = np.sqrt(grid.freq_norm_sq)
    spec = grid.half(-(mag**cfg.k) * np.sin(t * mag**cfg.k)) * cfg.v0.spectrum
    if cfg.v0_dot is not None:
        spec = spec + grid.half(cfg.green.lattice_dt_spectrum(grid, t)) * cfg.v0_dot.spectrum
    return LatticeField.from_spectrum(grid, spec)


def energy_trajectory(cfg: SolveConfig) -> np.ndarray:
    """Spectral energy of the noise-free evolution at every step time."""
    grid = cfg.grid
    cos, sin, scale = table = _horizon_table(cfg)
    a, b = _initial_frame(cfg, scale)
    # F[u_t] = -w sin(t w) a + cos(t w) b, with w sin(t w) = w**2 (sin(t w)/w)
    v_spec = -grid.half(grid.freq_norm_sq**cfg.k) * sin * a
    v_spec += cos * b
    return spectral_energy_field(grid, _free_spectra(cfg, table), v_spec, cfg.k)


def deterministic_moments(cfg: SolveConfig, theta: np.ndarray | None = None) -> np.ndarray:
    """||u0(t_j)||**2 for j = 0..n (theta-weighted when ``theta`` is given).

    The free evolution of the rotated frame at every step time, through
    one batched inverse transform; :func:`deterministic_part` is the
    closed form it agrees with.
    """
    u_spec = _free_spectra(cfg, _horizon_table(cfg))
    return norm_sq(cfg.grid, cfg.grid.inverse(u_spec), theta)


# ---------------------------------------------------------------------------
# time stepping: one rotated frame and its three callers
# ---------------------------------------------------------------------------


@_table
def _green_rows(grid: Grid, k: int, dt: float, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows cos(t w), sin(t w)/w (series branch near w = 0) on the half grid, t = j dt, lo <= j < hi.

    Elementwise in t and |eta|, so one evenness check of |eta| covers them
    and a row is the same bit for bit whichever other times share its call.
    A table (``lattice._table``): the sweep's single block and the
    whole-horizon table (:func:`_horizon_table`) share one.
    """
    mag = grid.half(np.sqrt(grid.freq_norm_sq))
    times = dt * np.arange(lo, hi)
    return cosine_multiplier(times, mag, k), sine_multiplier(times, mag, k)


@_table
def _forcing_scale(grid: Grid, k: int, dt: float) -> np.ndarray:
    """Lattice dG/dt at t = 0 on the half grid, the factor forcing enters F[u_t] with.

    It is 1, except for the exact d = 1, k = 1 kernel: eta (h/2) cot(eta h/2), 0 at Nyquist.
    A table (``lattice._table``).
    """
    return grid.half(GreenMultiplier(k, dt).lattice_dt_spectrum(grid, 0.0))


def _horizon_table(cfg: SolveConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Green-pair rows at every step time t_j = j dt, j = 0..n, and the forcing scale."""
    return (*_green_rows(cfg.grid, cfg.k, cfg.dt, 0, cfg.steps + 1),
            _forcing_scale(cfg.grid, cfg.k, cfg.dt))


def _initial_frame(cfg: SolveConfig, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frame coordinates at t = 0: F[v0] and scale F[v0_dot] (zero without v0_dot)."""
    a = cfg.v0.spectrum
    b = np.zeros_like(a) if cfg.v0_dot is None else scale * cfg.v0_dot.spectrum
    return a, b


def _free_spectra(cfg: SolveConfig, table) -> np.ndarray:
    """Half spectra of the noise-free u(t_j), j = 0..n, from :func:`_horizon_table`.

    The frame with P = Q = 0: its coordinates stay at their initial values.
    """
    cos, sin, scale = table
    a, b = _initial_frame(cfg, scale)
    u_spec = cos * a
    u_spec += sin * b
    return u_spec


def _causal_sweep(cfg: SolveConfig, w_fields: Iterable[np.ndarray]):
    """The causal sweep in the rotated frame: yields u(t_j) for j = 0..n.

    Step j's forcing is alpha(u(t_j)) W_j, with W_j the j-th of the n
    items of ``w_fields`` (a leading replica axis rides along).  It
    depends on the current state, so every step costs one inverse and
    one forward transform.  The frame coordinates a = F[v0] - P and
    b = scale F[v0_dot] + Q take one term each per step, as in the
    running sums of :func:`_forced_spectra`, so the sweep and the Picard
    update do the same arithmetic.  The Green-pair rows come from
    :func:`_green_rows` in blocks of step times (``noise.replica_blocks``,
    one half grid a row), so the sweep's memory does not grow with n; a
    single block is the whole-horizon table the Picard solves read.
    """
    grid, alpha = cfg.grid, cfg.nonlinearity
    scale = _forcing_scale(grid, cfg.k, cfg.dt)
    a, b = _initial_frame(cfg, scale)
    rows = itertools.chain.from_iterable(
        zip(*_green_rows(grid, cfg.k, cfg.dt, lo, hi))
        for lo, hi, _ in replica_blocks(cfg.steps + 1, math.prod(grid.half_shape)))
    # w first: zip stops at the last increment without taking the final row
    for w, (cos, sin) in zip(w_fields, rows):
        values = grid.inverse(cos * a + sin * b)
        yield values
        g = grid.forward(alpha(values) * w, multiplier=scale)
        a = a - sin * g
        b = b + cos * g
    cos, sin = next(rows)
    yield grid.inverse(cos * a + sin * b)


def _running_sums(start: np.ndarray, table: np.ndarray, g: np.ndarray) -> np.ndarray:
    """start + sum_{i<j} table[i] g[i] along the leading axis, for j = 0..len(g)."""
    out = np.empty((len(g) + 1,) + g.shape[1:], dtype=complex)
    out[0] = start
    np.multiply(table[:len(g)], g, out=out[1:])
    return np.cumsum(out, axis=0, out=out)


def _forced_spectra(cfg: SolveConfig, table, g: np.ndarray) -> np.ndarray:
    """Half spectra of u(t_j), j = 0..n, from the n injected forcing spectra ``g``.

    The frame coordinates a_j and b_j are two cumulative sums along time,
    which make the causal sweep's additions in the sweep's order.
    """
    cos, sin, scale = table
    # the rows along time, broadcast over the replica axis if there is one
    shape = (len(g) + 1,) + (1,) * (g.ndim - cos.ndim) + cos.shape[1:]
    cos, sin = cos.reshape(shape), sin.reshape(shape)
    a0, b0 = _initial_frame(cfg, scale)
    u_spec = _running_sums(b0, cos, g)
    u_spec *= sin
    a = _running_sums(a0, -sin, g)
    a *= cos
    u_spec += a
    return u_spec


def _picard_update(cfg: SolveConfig, table, w_fields: np.ndarray,
                   prev: np.ndarray) -> np.ndarray:
    """One Picard update: the discrete mild map applied to a whole trajectory.

    ``prev`` holds u_n(t_j), j = 0..n, and ``w_fields`` the n increments,
    time on the leading axis of both and an optional replica axis after
    it; ``table`` is :func:`_horizon_table`'s.  Every input is known in
    advance, so one batched forward transform gives all n forcing
    spectra, :func:`_forced_spectra` needs no loop over steps, and one
    batched inverse returns u_{n+1}.
    """
    g = cfg.grid.forward(cfg.nonlinearity(prev[:cfg.steps]) * w_fields, multiplier=table[2])
    return cfg.grid.inverse(_forced_spectra(cfg, table, g))


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def _mask(cfg: SolveConfig):
    """The noise mask as a float array, or None for unmasked noise."""
    return None if cfg.noise_mask is None else np.asarray(cfg.noise_mask, dtype=float)


def _noise_fields(cfg: SolveConfig, path: NoisePath) -> np.ndarray:
    """The path's first n slices (``NoisePath.first``), masked."""
    mask = _mask(cfg)
    fields = path.first(cfg.steps, cfg.grid, cfg.dt)
    return fields if mask is None else fields * mask


def _noise_chunks(cfg: SolveConfig, gens):
    """The n masked increments of the replicas of ``gens``, as ``(lo, hi, chunk)`` for
    chunks of the consecutive steps lo..hi - 1.

    A chunk has shape (hi - lo, replicas, *grid.shape); each stream fills
    its slices of a chunk in one call (the draw rule of
    ``stochwave.noise``), so the chunking changes no value.  The chunks
    are ``noise.replica_blocks`` of the n steps, one field a replica and
    step, and each is a view of one buffer that the next one overwrites.
    """
    mask, grid, n, reps = _mask(cfg), cfg.grid, cfg.steps, len(gens)
    buf = None
    for lo, hi, _ in replica_blocks(n, reps * math.prod(grid.shape)) if n else ():
        if buf is None:  # the first chunk is the largest
            buf = np.empty((reps * (hi - lo),) + grid.shape)
        w = sample_slice_batch(grid, cfg.measure, cfg.dt, gens, out=buf[:reps * (hi - lo)],
                               steps=hi - lo)
        if mask is not None:
            w *= mask
        yield lo, hi, w.reshape((reps, hi - lo) + grid.shape).swapaxes(0, 1)


def _initial_guess(cfg: SolveConfig, table, initial: str) -> np.ndarray:
    """The Picard starting trajectory, shape (n + 1, *grid.shape)."""
    if initial == "u0":
        return cfg.grid.inverse(_free_spectra(cfg, table))
    if initial == "zero":
        return np.zeros((cfg.steps + 1,) + cfg.grid.shape)
    raise ValueError(f"unknown initial guess {initial!r}")


def _report(cfg: SolveConfig, values: np.ndarray, m_table, iterations: int,
            converged: bool, theta: np.ndarray | None) -> SolveReport:
    """Report on the trajectory ``values`` (time on the leading axis); snapshots are views."""
    n = len(values) - 1
    stride = max(1, cfg.snapshot_stride)
    return SolveReport(
        moments=norm_sq(cfg.grid, values, theta),
        m_table=m_table,
        iterations=iterations,
        converged=converged,
        snapshots={j: LatticeField(cfg.grid, values[j])
                   for j in range(n + 1) if j % stride == 0 or j == n},
    )


def explicit_sweep(cfg: SolveConfig, path: NoisePath,
                   theta: np.ndarray | None = None) -> SolveReport:
    """Solve the discrete mild equation in a single causal pass.

    With a norm weight ``theta`` the moments are theta-weighted
    and nonlinearities with alpha(0) != 0 are accepted.
    """
    cfg.validate(weighted=theta is not None)
    values = np.stack(list(_causal_sweep(cfg, _noise_fields(cfg, path))))
    return _report(cfg, values, [], 1, True, theta)


def sweep_replicas(cfg: SolveConfig, rngs, theta: np.ndarray | None = None,
                   keep=()) -> tuple[np.ndarray, np.ndarray]:
    """Causal sweep of independent replicas, batched along a leading axis.

    Replica r draws its noise from its own generator ``rngs[r]`` in
    chunks of steps (:func:`_noise_chunks`), so by the draw rule of
    ``stochwave.noise`` its slices are those of ``sample_path(...,
    rngs[r])``.  Blocks of replicas (``noise.replica_blocks``, one half
    grid a replica) stream one noise batch per step through the causal
    sweep, so each replica's results are bit-identical to
    :func:`explicit_sweep` on its own path and do not depend on the block
    or chunk size.  Returns the squared norms, shape (replicas, n + 1),
    theta-weighted when ``theta`` is given (as in :func:`explicit_sweep`),
    and the values at the steps ``keep``, shape (replicas, len(keep),
    *grid.shape).
    """
    cfg.validate(weighted=theta is not None)
    grid, n = cfg.grid, cfg.steps
    slot = {j: i for i, j in enumerate(keep)}
    if len(slot) != len(keep) or any(not 0 <= j <= n for j in slot):
        raise ValueError(f"kept steps must be distinct and lie in 0..{n}")
    blocks = replica_blocks(len(rngs), math.prod(grid.half_shape), rngs)
    moments = np.empty((len(rngs), n + 1))
    kept = np.empty((len(rngs), len(keep)) + grid.shape)
    for lo, hi, gens in blocks:
        w_fields = (w for _, _, chunk in _noise_chunks(cfg, gens) for w in chunk)
        for j, values in enumerate(_causal_sweep(cfg, w_fields)):
            moments[lo:hi, j] = norm_sq(grid, values, theta)
            if j in slot:
                kept[lo:hi, slot[j]] = values
    return moments, kept


def _picard_loop(cfg: SolveConfig, table, w_fields: np.ndarray, prev: np.ndarray,
                 max_iter: int, tol: float):
    """Up to ``max_iter`` updates from ``prev``: (last iterate, m_table, converged).

    ``m_table[i]`` holds update i + 1's squared L2 distances per step time (and
    replica); it stops once sqrt(max) < ``tol``, so a tolerance of 0 never stops it.
    """
    m_table: list[np.ndarray] = []
    while len(m_table) < max_iter:
        new = _picard_update(cfg, table, w_fields, prev)
        m_table.append(norm_sq(cfg.grid, new - prev))
        prev = new
        if math.sqrt(np.max(m_table[-1])) < tol:
            return prev, m_table, True
    return prev, m_table, False


def picard_iterate(cfg: SolveConfig, path: NoisePath, initial: str = "u0") -> SolveReport:
    """Iterate the mild-solution map on one fixed noise path.

    Stops when the sup-over-t L2 distance between successive iterates
    falls below ``cfg.picard_tol``.  Non-convergence within the budget of
    n + 2 iterations is reported, not fatal; the squared-distance table carries
    the tail.  Each iteration is one whole-trajectory update, so it
    costs one batched transform pair whatever n is.

    Since alpha(0) = 0, the first update from ``initial="zero"`` forces
    nothing and returns the u0 guess bit for bit: that solve is the u0
    solve one update later (its ``m_table[1:]`` is the u0 solve's table,
    its values are the same and it counts one iteration more), so the
    two guesses agree by construction and their gap tests no uniqueness.
    """
    cfg.validate()
    table = _horizon_table(cfg)
    values, m_table, converged = _picard_loop(
        cfg, table, _noise_fields(cfg, path), _initial_guess(cfg, table, initial),
        cfg.steps + 2, cfg.picard_tol)
    return _report(cfg, values, m_table, len(m_table), converged, None)


def picard_replicas(cfg: SolveConfig, rngs, iterations: int) -> np.ndarray:
    """A fixed number of Picard iterations on independent replicas, batched.

    Replica r iterates on ``sample_path(..., rngs[r])``, drawn in chunks
    of steps as :func:`sweep_replicas` draws it.  Blocks of replicas
    (``noise.replica_blocks``, one (n + 1)-row half-grid trajectory a
    replica) run as one batch, the replica axis after the time axis, so
    each replica's rows are bit-identical to the first ``iterations`` of
    :func:`picard_iterate` on its own path (initial guess u0) with a zero
    tolerance, and do not depend on the block or chunk size.
    Returns the squared update distances, shape (replicas, iterations,
    n + 1): row [r, i] is replica r's ``m_table[i]``.
    """
    cfg.validate()
    grid, n = cfg.grid, cfg.steps
    blocks = replica_blocks(len(rngs), (n + 1) * math.prod(grid.half_shape), rngs)
    table = _horizon_table(cfg)
    guess = _initial_guess(cfg, table, "u0")[:, None]
    m = np.empty((len(rngs), iterations, n + 1))
    for lo, hi, gens in blocks:
        w_fields = np.empty((n, hi - lo) + grid.shape)
        for a, b, chunk in _noise_chunks(cfg, gens):
            w_fields[a:b] = chunk
        prev = np.broadcast_to(guess, (n + 1,) + w_fields.shape[1:])
        _, m_table, _ = _picard_loop(cfg, table, w_fields, prev, iterations, 0.0)
        for i, dist_sq in enumerate(m_table):
            m[lo:hi, i] = dist_sq.T
    return m


# ---------------------------------------------------------------------------
# moment tracking
# ---------------------------------------------------------------------------


@dataclass
class MomentSummary:
    times: np.ndarray
    mean: np.ndarray
    std_error: np.ndarray
    envelope: np.ndarray
    space: str = "L2"


def gronwall_constant(cfg: SolveConfig) -> float:
    """C = max_s J(s) over the step times, the moment-bound rate.

    One :func:`~stochwave.greens.j_functional` call over every step time:
    one admissibility check and one batched ``j_field``.
    """
    times = cfg.dt * np.arange(1, cfg.steps + 1)
    return j_functional(cfg.green, cfg.measure, times, cfg.grid)


def check_envelope(alpha: Nonlinearity) -> None:
    """Reject nonlinearities the envelope of :func:`moment_track` does not cover."""
    if alpha.lipschitz > 1.0:
        raise ValueError(
            f"moment envelope needs a Lipschitz constant <= 1; nonlinearity "
            f"{alpha.name!r} declares {alpha.lipschitz:g}"
        )


def _pool_moments(moments: np.ndarray, cfg: SolveConfig, envelope: np.ndarray,
                  space: str = "L2") -> MomentSummary:
    """Pool ``MIN_TRACK_REPLICAS`` or more (replicas, n + 1) trajectories beside ``envelope``."""
    data = np.asarray(moments)
    if len(data) < MIN_TRACK_REPLICAS:
        raise ValueError(f"moment tracking needs at least {MIN_TRACK_REPLICAS} replicas")
    mean, se = mean_se(data)
    return MomentSummary(cfg.dt * np.arange(cfg.steps + 1), mean, se, envelope, space)


def moment_track(moments: np.ndarray, cfg: SolveConfig) -> MomentSummary:
    """Pool replica moment trajectories beside the exponential envelope.

    ``moments`` holds one squared-norm trajectory per replica, shape
    (replicas, n + 1), pooled by :func:`_pool_moments`; the summary
    carries no verdict (the harness decides it).  The envelope is
    2 ||u0(t)||**2 exp(2 K C t) with C = max_s J(s); the squared-norm
    Lipschitz amplification is K**2, so the envelope as written is valid
    for K <= 1 only, and larger declared constants are rejected.
    """
    check_envelope(cfg.nonlinearity)
    c = gronwall_constant(cfg)
    k_lip = cfg.nonlinearity.lipschitz
    times = cfg.dt * np.arange(cfg.steps + 1)
    u0_sq = deterministic_moments(cfg)
    envelope = 2.0 * u0_sq * np.exp(2.0 * k_lip * c * times)
    return _pool_moments(moments, cfg, envelope)
