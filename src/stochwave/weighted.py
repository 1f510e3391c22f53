"""Weighted L2 theory for the wave case: polynomial weight, annuli, solver.

The weight theta(x) = (1 + |x|**2)**(-K/2) with K > d satisfies the
pointwise sandwich

    2**(-K/2) (1 and |x|**(-K)) <= theta(x) <= 1 and |x|**(-K)

exactly, and the weighted norm is equivalent to the annulus sum
sum_n (max(n,1))**(-K) ||f||**2 on shells H_n = {nR <= |x| < (n+1)R},
with discrete constants computed from the actual extrema of theta per
shell.  Because the one-dimensional wave kernel has exact finite
propagation speed on the lattice, the stochastic convolution on a shell
depends only on the integrand within the propagation distance, which
yields the weighted moment bound

    E ||v||_theta**2 <= S * sum_i dt ||Z(s_i)||_theta**2 J(sigma_i)

with a locality constant S computed from the shell geometry; the sum is
``stochint.isometry_bound`` in the theta norm.  That bound extends the
solver to nonlinearities that need not vanish at the origin (linear
growth |alpha(u)| <= K_lip (1 + |u|)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import SpectralMeasure, admissible
from .greens import GreenMultiplier
from .lattice import Grid, LatticeField, norm_sq
from .noise import NoisePath, mean_se
from .solver import MomentSummary, SolveConfig, SolveReport, _pool_moments, deterministic_moments
from .solver import explicit_sweep, gronwall_constant
from .stochint import IntegrandProcess, convolution_norms_mc, isometry_bound

__all__ = [
    "Weight",
    "annuli_norms",
    "equivalence_constants",
    "locality_constant",
    "WeightedBoundResult",
    "weighted_isometry_bound",
    "weighted_wave_solve",
    "weighted_moment_track",
]


@dataclass(frozen=True)
class Weight:
    """Polynomial weight (1 + |x|**2)**(-exponent/2), annulus width radius."""

    exponent: float
    radius: float = 1.0

    def __post_init__(self) -> None:
        for what, value in (("weight exponent", self.exponent), ("annulus radius", self.radius)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{what} must be a finite positive number, got {value!r}")

    @property
    def sandwich_lower(self) -> float:
        return 2.0 ** (-self.exponent / 2.0)

    @property
    def sandwich_upper(self) -> float:
        return 1.0

    def check_dimension(self, d: int) -> None:
        if self.exponent <= d:
            raise ValueError(f"weight exponent must exceed the dimension ({self.exponent} <= {d})")

    def theta_on(self, grid: Grid) -> np.ndarray:
        return (1.0 + grid.coord_norm_sq) ** (-self.exponent / 2.0)

    def annulus_index(self, grid: Grid) -> np.ndarray:
        return np.floor(np.sqrt(grid.coord_norm_sq) / self.radius).astype(int)


def annuli_norms(f: LatticeField, w: Weight) -> np.ndarray:
    """Squared L2 norms of f restricted to the shells H_0, H_1, ..."""
    grid = f.grid
    idx = w.annulus_index(grid)
    out = np.zeros(int(idx.max()) + 1)
    np.add.at(out, idx.ravel(), grid.cell_volume * f.values.ravel() ** 2)
    return out


def _shell_theta_extrema(grid: Grid, w: Weight) -> tuple[np.ndarray, np.ndarray]:
    """Min and max of theta over the grid points of each shell H_0, H_1, ...; nan if empty."""
    theta = w.theta_on(grid).ravel()
    idx = w.annulus_index(grid).ravel()
    t_min = np.full(int(idx.max()) + 1, np.inf)
    t_max = -t_min
    np.minimum.at(t_min, idx, theta)
    np.maximum.at(t_max, idx, theta)
    empty = np.isinf(t_min)
    t_min[empty] = t_max[empty] = np.nan
    return t_min, t_max


def equivalence_constants(grid: Grid, w: Weight) -> tuple[float, float]:
    """Discrete constants (c, C) with

        c * sum_n (max(n,1))**(-K) ||f||_{H_n}**2 <= ||f||_theta**2 <= C * sum_n ...

    for every lattice field, computed from the extrema of theta over the
    grid points of each occupied shell.
    """
    t_min, t_max = _shell_theta_extrema(grid, w)
    lo, hi = math.inf, -math.inf
    for n in np.flatnonzero(~np.isnan(t_min)):
        scale = float(max(n, 1)) ** w.exponent
        lo = min(lo, t_min[n] * scale)
        hi = max(hi, t_max[n] * scale)
    return lo, hi


def locality_constant(grid: Grid, w: Weight, horizon: float) -> float:
    """Shell-coupling constant S of the weighted moment bound.

    A shell's convolution values depend on the integrand within the
    propagation distance (here bounded by the horizon), i.e. within
    ceil(horizon/R) + 1 neighboring shells; S prices the resulting
    re-weighting of the shell sums against theta.
    """
    t_min, t_max = _shell_theta_extrema(grid, w)
    width = int(math.ceil(horizon / w.radius)) + 1
    best = 0.0
    for m in np.flatnonzero(~np.isnan(t_min)):
        neighborhood = np.nansum(t_max[max(0, m - width):m + width + 1])
        best = max(best, neighborhood / t_min[m])
    return best


# ---------------------------------------------------------------------------
# weighted second-moment bound
# ---------------------------------------------------------------------------


@dataclass
class WeightedBoundResult:
    bound: float  # sum_i dt ||Z_i||_theta**2 J(sigma_i)
    mc_estimate: float
    std_error: float
    locality: float


def weighted_isometry_bound(g: GreenMultiplier, Z: IntegrandProcess, measure: SpectralMeasure,
                            w: Weight, replicas: int, rng) -> WeightedBoundResult:
    """The quadrature bound on E||v||_theta**2 and its Monte Carlo estimate, with no verdict.

    Both in the theta norm (``lattice.norm_sq`` with theta): the bound is
    ``stochint.isometry_bound`` and the estimate the kernel's replicas.
    Requires k = 1: the bound rests on the compact support of the wave
    kernel, which beam-type operators (k >= 2) do not have.  A standard
    error needs ``replicas >= 2``.  The harness decides the verdict.
    """
    if g.k != 1:
        raise ValueError("compact support required: weighted bound only holds for k = 1")
    if replicas < 2:
        raise ValueError(f"replicas: must be >= 2, got {replicas}")
    if not admissible(measure, 1):
        raise ValueError("measure fails the admissibility condition for k = 1")
    grid = Z.grid
    w.check_dimension(grid.dimension)
    theta = w.theta_on(grid)
    # acc is the kernel's reused accumulator: inverse reads it and returns fresh values
    mc, se = mean_se(convolution_norms_mc(g, Z, measure, replicas, rng,
                                          lambda acc: norm_sq(grid, grid.inverse(acc), theta)))
    return WeightedBoundResult(isometry_bound(g, Z, measure, theta), float(mc), float(se),
                               locality_constant(grid, w, Z.horizon))


# ---------------------------------------------------------------------------
# weighted solver
# ---------------------------------------------------------------------------


def weighted_wave_solve(cfg: SolveConfig, path: NoisePath, w: Weight) -> SolveReport:
    """Causal sweep with its moments measured in the weighted norm.

    Accepts any globally Lipschitz nonlinearity (the vanish-at-zero
    requirement of the plain solver is lifted); k must be 1.  The
    dynamics coincide with the plain solver's; the weighted norm enters
    the reported moments.  No experiment calls it; it is a tracer target
    in ``perfbench/layers.py``.
    """
    if cfg.k != 1:
        raise ValueError("weighted solver requires k = 1 (compact support)")
    w.check_dimension(cfg.grid.dimension)
    return explicit_sweep(cfg, path, theta=w.theta_on(cfg.grid))


def weighted_moment_track(moments: np.ndarray, cfg: SolveConfig, w: Weight) -> MomentSummary:
    """Pool replica moments beside the affine-recursion envelope of linear-growth nonlinearities.

    ``moments`` holds one theta-weighted squared-norm trajectory per
    replica, shape (replicas, n + 1), pooled as in ``solver.moment_track``;
    the summary carries no verdict (the harness decides it).  From
    |alpha(u)|**2 <= 2 K**2 (1 + u**2) with the growth constant
    K = max(Lipschitz, |alpha(0)|) and the weighted moment bound, the
    pooled moments must stay below the explicit iteration

        B_j = 2 ||u0(t_j)||_theta**2 + 2 K**2 S J* sum_{i<j} dt (Theta + B_i),

    with Theta = integral theta and J* = max_s J(s).
    """
    grid = cfg.grid
    theta = w.theta_on(grid)
    n = cfg.steps
    theta_mass = grid.cell_volume * float(np.sum(theta))
    j_star = gronwall_constant(cfg)
    s_const = locality_constant(grid, w, cfg.horizon)
    k_gr = cfg.nonlinearity.growth
    rate = 2.0 * k_gr**2 * s_const * j_star

    u0_sq = deterministic_moments(cfg, theta)

    envelope = np.empty(n + 1)
    running = 0.0  # sum_{i<j} dt (Theta + B_i)
    for j in range(n + 1):
        envelope[j] = 2.0 * u0_sq[j] + rate * running
        running += cfg.dt * (theta_mass + envelope[j])
    return _pool_moments(moments, cfg, envelope, space="L2theta")
