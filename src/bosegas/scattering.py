"""Radial scattering and truncated-ball solvers, and the correlation kernels.

Everything radial is solved through the substitution u(r) = r*f(r), which
turns the three-dimensional problems into regular one-dimensional ODEs:

* zero-energy scattering: u'' = (V/2) u on (0, r_max), u(0) = 0; outside the
  support u is affine and the scattering length is read off u(r) = r - a.
* truncated-ball problem: u'' = (V/2 - lambda) u on (0, R) with the
  reflecting boundary condition u'(R) = u(R)/R and normalization u(R) = R,
  lambda being the smallest such eigenvalue.

Across the support [0, b] of V, (u, u') is propagated by 2x2 transfer
matrices: one 4th-order Magnus step (Iserles, Munthe-Kaas, Norsett & Zanna,
*Acta Numerica* 9 (2000)) per step, whose traceless generator has a
closed-form exponential (cosh/sinh, or cos/sin).  Each breakpoint piece
starts as one step, which is exact where V is constant (the soft sphere);
other pieces are halved until a step-doubling estimate meets the tolerance,
and that estimate is kept on the solution (``dense.error_estimate``).  Past b the equation is free,
so the solution continues in closed form, u(b) cos(kappa s) +
u'(b) sin(kappa s)/kappa with s = r - b and kappa = sqrt(lambda), affine at
lambda = 0.  The ground eigenvalue is the root of the boundary defect
g(lambda) = u'(R) - u(R)/R, found by Brent's method (R. P. Brent,
*Algorithms for Minimization without Derivatives*, 1973; ``brentq`` follows
scipy's zeroin step for step) inside a bracket whose upper end comes from
the Rayleigh quotient of the trial profile f = 1.  Only numpy is needed.

From the ball solution the correlation kernels are obtained as radial
Fourier transforms.  On [0, b] they use composite Simpson quadrature at two
resolutions, so every transform carries its own error estimate.  The part
over [b, R] is exact: in closed form from d/dr[G' sin(kr) - k G cos(kr)] =
(G'' + k^2 G) sin(kr) with G'' = -kappa^2 u there, and below
k (R - b) = 2 pi, where that form cancels, by a Gauss-Legendre rule whose
error is far below roundoff for these short sinusoidal arcs:

* eta_p = -w_hat(|p|/N) / N^2 with w = 1 - f on the ball,
* tau_p = -log(1 + 2 (V f)_hat(|p|/N) / |p|^2)/4 - eta_p,
* nu_p  = -log(1 + 16 pi a / |p|^2)/4.

Momenta use the unit-torus convention p = 2*pi*n, energies |p|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bogoliubov import nu_coefficient
from .errors import BracketFailure, KernelError, QuadratureError, SolverError
from .lattice import Mode

__all__ = [
    "RadialPotential",
    "ScatteringSolution",
    "NeumannSolution",
    "KernelTable",
    "solve_scattering",
    "energy_functional",
    "solve_neumann",
    "eta_coefficients",
    "tau_coefficients",
    "nu_coefficients",
    "kernel_identity_residuals",
    "kernel_table",
    "potential_fourier",
    "default_r_max",
]

_FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialPotential:
    """Radial, non-negative, compactly supported interaction potential.

    Use the class methods to construct one of the supported kinds; direct
    construction is discouraged because it skips shape-specific checks.
    """

    kind: str
    support_radius: float
    params: tuple = ()
    grid: tuple = ()
    values: tuple = ()
    # the table as read-only arrays, built once: np.interp would otherwise
    # convert the tuples on every call
    _grid: np.ndarray = field(init=False, repr=False, compare=False)
    _values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, table in (("_grid", self.grid), ("_values", self.values)):
            array = np.array(table, dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @classmethod
    def soft_sphere(cls, v0: float, radius: float) -> "RadialPotential":
        if v0 < 0:
            raise ValueError("soft-sphere height must be non-negative")
        if radius <= 0:
            raise ValueError("soft-sphere radius must be positive")
        return cls(kind="soft_sphere", support_radius=radius, params=(v0, radius))

    @classmethod
    def gaussian_truncated(
        cls, v0: float, width: float, support_radius: float
    ) -> "RadialPotential":
        if v0 < 0:
            raise ValueError("gaussian height must be non-negative")
        if width <= 0 or support_radius <= 0:
            raise ValueError("gaussian width and support must be positive")
        return cls(
            kind="gaussian_truncated",
            support_radius=support_radius,
            params=(v0, width, support_radius),
        )

    @classmethod
    def tabulated(cls, grid: Sequence[float], values: Sequence[float]) -> "RadialPotential":
        g = np.asarray(grid, dtype=float)
        v = np.asarray(values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or len(g) < 2:
            raise ValueError("tabulated potential needs matching 1-d grid and values")
        if not np.all(np.diff(g) > 0) or g[0] < 0:
            raise ValueError("tabulated grid must be increasing and non-negative")
        if np.any(v < 0):
            raise ValueError("potential values must be non-negative")
        return cls(
            kind="tabulated",
            support_radius=float(g[-1]),
            grid=tuple(float(x) for x in g),
            values=tuple(float(x) for x in v),
        )

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "soft_sphere":
            v0, radius = self.params
            out = np.where(r <= radius, v0, 0.0)
        elif self.kind == "gaussian_truncated":
            v0, width, support = self.params
            out = np.where(r <= support, v0 * np.exp(-(r * r) / (2.0 * width * width)), 0.0)
        elif self.kind == "tabulated":
            out = np.interp(r, self._grid, self._values, left=self.values[0], right=0.0)
            out = np.where(r <= self.support_radius, out, 0.0)
        else:  # pragma: no cover
            raise ValueError(f"unknown potential kind {self.kind!r}")
        return out if out.ndim else float(out)

    @property
    def max_value(self) -> float:
        if self.kind == "soft_sphere":
            return self.params[0]
        if self.kind == "gaussian_truncated":
            return self.params[0]
        return max(self.values)

    @property
    def is_zero(self) -> bool:
        return self.max_value == 0.0

    def breakpoints(self) -> tuple[float, ...]:
        """Radii where the potential may be non-smooth (integration is split there)."""
        if self.kind == "tabulated":
            return tuple(x for x in self.grid if 0.0 < x <= self.support_radius)
        return (self.support_radius,)


def zero_potential(support_radius: float = 0.5) -> RadialPotential:
    """The identically-zero interaction (free gas)."""
    return RadialPotential.soft_sphere(0.0, support_radius)


# ---------------------------------------------------------------------------
# piecewise dense ODE solutions
# ---------------------------------------------------------------------------

class _PiecewiseSolution:
    """Dense evaluator for u, u' assembled from per-segment solutions.

    Each segment is ``(lo, hi, sol)`` with ``sol(r)`` returning the rows
    (u, u') at radii in [lo, hi].  ``error_estimate`` is the propagation's
    relative error estimate, when it has one.
    """

    def __init__(self, segments, scale: float = 1.0, error_estimate: float | None = None):
        self._segments = segments
        self._scale = scale
        self.error_estimate = error_estimate

    def rescaled(self, scale: float) -> "_PiecewiseSolution":
        return _PiecewiseSolution(self._segments, self._scale * scale, self.error_estimate)

    def _eval(self, r, row: int):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty_like(r)
        for lo, hi, sol in self._segments:
            mask = (r >= lo) & (r <= hi)
            if mask.any():
                out[mask] = sol(r[mask])[row]
        return out * self._scale

    def u(self, r):
        return self._eval(r, 0)

    def u_prime(self, r):
        return self._eval(r, 1)


class _FreeSegment:
    """Closed form of u'' = -lam u from (u, u') = (u0, du0) at ``start``.

    Called like an ``OdeSolution``: it returns the rows (u, u') at the given
    radii.  Affine at lam = 0.
    """

    def __init__(self, start: float, u0: float, du0: float, lam: float):
        self.start = start
        self.u0 = u0
        self.du0 = du0
        self.kappa = math.sqrt(lam)

    def __call__(self, r):
        s = np.asarray(r, dtype=float) - self.start
        k = self.kappa
        if k == 0.0:
            return np.array([self.u0 + self.du0 * s, np.full_like(s, self.du0)])
        c, sn = np.cos(k * s), np.sin(k * s)
        return np.array([self.u0 * c + self.du0 * sn / k, self.du0 * c - self.u0 * k * sn])


def _segment_potential(potential: RadialPotential, lo: float, hi: float):
    """Potential restricted to (lo, hi): endpoint values are one-sided limits.

    Breakpoints sit exactly on segment boundaries, so sampling the raw
    potential there would leak the value from the neighbouring segment
    (e.g. the soft-sphere top at its own support radius).
    """
    lo_in = np.nextafter(lo, hi)
    hi_in = np.nextafter(hi, lo)

    def v(r):
        return potential(np.clip(r, lo_in, hi_in))

    return v


_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_MAX_HALVINGS = 24
# roundoff allowance of one Magnus step, relative to its largest entry
_ROUNDOFF = 64.0 * np.finfo(float).eps


def _norm(m: np.ndarray, length: float = 1.0) -> np.ndarray:
    """Largest absolute entry of each matrix of an (n, 2, 2) stack acting on
    (u, length u'): the u' -> u entry divided by ``length``, the u -> u'
    entry multiplied by it."""
    scale = np.array([[1.0, 1.0 / length], [length, 1.0]])
    return np.abs(m * scale).max(axis=(1, 2))


def _expm_traceless(d, h, c) -> np.ndarray:
    """(n, 2, 2) stack exp([[d, h], [c, -d]]).

    The matrix is traceless, so its square is s^2 I with s^2 = d^2 + h c,
    and its exponential is cosh(s) I + (sinh(s)/s) Omega (cos and sin of
    |s| when s^2 < 0).
    """
    s_sq = d * d + h * c
    s = np.sqrt(np.abs(s_sq))
    grow = s_sq > 0.0
    even = np.cos(s)
    odd = np.sin(s)
    even[grow] = np.cosh(s[grow])
    odd[grow] = np.sinh(s[grow])
    nonzero = s > 0.0
    odd[nonzero] /= s[nonzero]
    odd[~nonzero] = 1.0
    out = np.empty((len(s), 2, 2))
    out[:, 0, 0] = even + odd * d
    out[:, 0, 1] = odd * h
    out[:, 1, 0] = odd * c
    out[:, 1, 1] = even - odd * d
    return out


def _magnus_steps(potential, lam, left, right, lo_in, hi_in) -> np.ndarray:
    """(n, 2, 2) stack: the transfer matrix of (u, u') over each [left, right].

    The 4th-order Magnus generator of y' = A y, A = [[0, 1], [q, 0]] with
    q = V/2 - lam sampled at the two Gauss points (V clipped into the
    piece [lo_in, hi_in] of the step), is
    h/2 (A1 + A2) + (sqrt(3) h^2/12) [A2, A1] = [[d, h], [c, -d]] with
    c = h (q1 + q2)/2 and d = sqrt(3) h^2 (q1 - q2)/12.  Where V is
    constant, d = 0 and the step is exact.
    """
    h = right - left
    q1 = 0.5 * potential(np.clip(left + _GAUSS[0] * h, lo_in, hi_in)) - lam
    q2 = 0.5 * potential(np.clip(left + _GAUSS[1] * h, lo_in, hi_in)) - lam
    return _expm_traceless(math.sqrt(3.0) / 12.0 * h * h * (q1 - q2), h, 0.5 * h * (q1 + q2))


def _compose(second: np.ndarray, first: np.ndarray) -> np.ndarray:
    """second @ first for (n, 2, 2) stacks, by elementwise products."""
    return (second[:, :, :, None] * first[:, None, :, :]).sum(axis=2)


class _MagnusSteps:
    """u, u' inside the support from the state at the start of each Magnus step.

    A radius in step j is reached by one Magnus step from the step's start,
    so at a step's end it reproduces the propagated state bit for bit.
    """

    def __init__(self, potential, lam, starts, states, lo_in, hi_in):
        self._potential = potential
        self._lam = lam
        self._starts = starts  # n + 1 radii, the last one the support radius
        self._states = states  # (n + 1, 2): (u, u') at each radius
        self._lo_in = lo_in
        self._hi_in = hi_in

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        j = np.clip(np.searchsorted(self._starts, r, side="right") - 1, 0, len(self._lo_in) - 1)
        m = _magnus_steps(self._potential, self._lam, self._starts[j], r,
                          self._lo_in[j], self._hi_in[j])
        u, du = self._states[j, 0], self._states[j, 1]
        return np.array([m[:, 0, 0] * u + m[:, 0, 1] * du, m[:, 1, 0] * u + m[:, 1, 1] * du])


def _integrate_radial(
    potential: RadialPotential,
    r_end: float,
    lam: float,
    tol: float,
) -> _PiecewiseSolution:
    """Solve u'' = (V/2 - lam) u, u(0)=0, u'(0)=1 on [0, r_end], r_end past the support.

    Across the support (u, u') is carried by one 4th-order Magnus transfer
    matrix per step (Iserles, Munthe-Kaas, Norsett & Zanna,
    *Acta Numerica* 9 (2000)).  Every breakpoint piece starts as one step,
    so a piece where V is constant is crossed exactly.  A piece is halved
    until on each of its steps the step-doubling defect
    M_h - M_{h/2} M_{h/2} is below ``tol`` times the step's departure
    M_h - F from the free transfer matrix F (a and lambda are set by that
    departure, however weak V is), plus 64 eps |M_h| for roundoff; the
    matrices are compared acting on (u, b u'), b the support radius, so
    that the test does not depend on the unit of length.  All
    steps are built by array operations; one sequential pass multiplies
    the state through them.  Beyond the support the solution continues in
    closed form.

    The returned ``error_estimate`` bounds the error of u and u' on the
    support relative to the largest |u|, |u'| reached so far: twice the
    defect applied to each step's start state, relative to its end state,
    summed over the steps, plus 64 eps per step.
    """
    cuts = np.array([0.0, *potential.breakpoints()])
    lo_in, hi_in = np.nextafter(cuts[:-1], cuts[1:]), np.nextafter(cuts[1:], cuts[:-1])
    left, right, piece = cuts[:-1], cuts[1:], np.arange(len(lo_in))
    full = _magnus_steps(potential, lam, left, right, lo_in, hi_in)
    done = []
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (left + right)
        first = _magnus_steps(potential, lam, left, mid, lo_in[piece], hi_in[piece])
        second = _magnus_steps(potential, lam, mid, right, lo_in[piece], hi_in[piece])
        defect = full - _compose(second, first)
        h = right - left
        free = _expm_traceless(np.zeros_like(h), h, -lam * h)
        rough = (_norm(defect, cuts[-1])
                 > tol * _norm(full - free, cuts[-1]) + _ROUNDOFF * _norm(full, cuts[-1]))
        failed = np.zeros(len(lo_in), dtype=bool)
        failed[piece[rough]] = True
        redo = failed[piece]
        done.append((left[~redo], piece[~redo], full[~redo], defect[~redo]))
        if not redo.any():
            break
        left = np.column_stack((left[redo], mid[redo])).ravel()
        right = np.column_stack((mid[redo], right[redo])).ravel()
        piece = np.repeat(piece[redo], 2)
        full = np.stack((first[redo], second[redo]), axis=1).reshape(-1, 2, 2)
    else:
        raise SolverError(f"Magnus steps did not reach tol {tol:g} in {_MAX_HALVINGS} halvings")
    left, piece, full, defect = (np.concatenate(x) for x in zip(*done))
    order = np.argsort(left, kind="stable")
    u, du = 0.0, 1.0
    states = [(u, du)]
    for m00, m01, m10, m11 in full[order].reshape(-1, 4).tolist():
        u, du = m00 * u + m01 * du, m10 * u + m11 * du
        states.append((u, du))
    states = np.array(states)
    if not np.all(np.isfinite(states[-1])):
        raise SolverError(f"radial solution overflowed at lambda = {lam:g}")
    local = 2.0 * _norm(_compose(defect[order], states[:-1, :, None]))
    error = float(np.sum(local / np.abs(states[1:]).max(axis=1))) + _ROUNDOFF * len(order)
    steps = _MagnusSteps(potential, lam, np.append(left[order], cuts[-1]), states,
                         lo_in[piece[order]], hi_in[piece[order]])
    free = _FreeSegment(cuts[-1], states[-1, 0], states[-1, 1], lam)
    return _PiecewiseSolution([(0.0, cuts[-1], steps), (cuts[-1], r_end, free)],
                              error_estimate=error)


# ---------------------------------------------------------------------------
# zero-energy scattering
# ---------------------------------------------------------------------------

R_MAX_FACTOR = 20.0


def default_r_max(potential: RadialPotential, factor: float = R_MAX_FACTOR) -> float:
    """Outer radius of the scattering solve: ``factor`` support radii.

    Past the support u is affine in closed form, so a does not depend on
    this radius beyond roundoff; it sets the span of the profile grid and
    of ``energy_functional``.
    """
    return factor * potential.support_radius


def _profile(dense: _PiecewiseSolution, r, length: float) -> np.ndarray:
    """f = u/r, with the limit u'(0) below 1e-12 of the problem's ``length``."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    small = r < 1e-12 * length
    out[~small] = dense.u(r[~small]) / r[~small]
    if small.any():
        out[small] = dense.u_prime(np.zeros(small.sum()))
    return out


@dataclass(frozen=True)
class ScatteringSolution:
    """Zero-energy scattering solution, normalized so u(r) = r - a outside the support."""

    a: float
    grid: np.ndarray
    u: np.ndarray
    r_max: float
    potential: RadialPotential
    tol: float
    dense: _PiecewiseSolution = field(repr=False)

    def f(self, r):
        """The scattering profile f = u/r (f(0) is the limit u'(0))."""
        return _profile(self.dense, r, self.r_max)


def solve_scattering(
    potential: RadialPotential, r_max: float, tol: float = 1e-10
) -> ScatteringSolution:
    """Solve the zero-energy radial problem and read off the scattering length.

    Propagates u'' = (V/2) u outward from u(0) = 0 across the support by
    Magnus transfer matrices at step tolerance ``tol`` (split at potential
    breakpoints, so discontinuous potentials such as the soft sphere lose
    no accuracy).  Outside the support u is affine,
    u = c (r - a), in closed form; the solution is rescaled so c = 1.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if r_max <= potential.support_radius:
        raise SolverError(
            "r_max must exceed the potential support to reach the affine regime"
        )
    dense = _integrate_radial(potential, r_max, lam=0.0, tol=tol)
    c = float(dense.u_prime(r_max)[0])
    if not (c > 0):
        raise SolverError("scattering solution failed to stay positive outward")
    a = r_max - float(dense.u(r_max)[0]) / c
    if a < 0.0:
        # non-negative potentials have non-negative length; only roundoff
        # from the free problem may dip below zero
        if a < -10.0 * tol * max(1.0, r_max):
            raise SolverError(f"negative scattering length {a:g} from the solver")
        a = 0.0
    dense = dense.rescaled(1.0 / c)

    grid = np.linspace(0.0, r_max, 2001)
    u = dense.u(grid)
    sample = np.linspace(potential.support_radius, r_max, 17)
    affine_err = float(np.max(np.abs(dense.u(sample) - (sample - a))))
    if affine_err > 10.0 * tol * max(1.0, r_max):
        raise SolverError(f"affine regime not reached to tolerance ({affine_err:.3e})")
    return ScatteringSolution(
        a=a, grid=grid, u=u, r_max=r_max, potential=potential, tol=tol, dense=dense
    )


def energy_functional(sol: ScatteringSolution, include_tail: bool = True) -> float:
    """Scattering length via the radial energy integral, cross-checking the ODE route.

    Evaluates int_0^{r_max} [ (u' - u/r)^2 + V u^2 / 2 ] dr; with
    ``include_tail`` the analytic remainder a^2/r_max of the affine tail is
    added, without it the value converges to ``a`` from below at rate
    1/r_max.
    """
    segs = [0.0] + [b for b in sol.potential.breakpoints() if b < sol.r_max] + [sol.r_max]
    pieces = []
    for lo, hi in zip(segs[:-1], segs[1:]):
        n = max(512, 2 * int(64 * (hi - lo) / max(sol.potential.support_radius, 1e-6)))
        n += n % 2
        r, w = _simpson_rule(lo, hi, n)
        u = sol.dense.u(r)
        up = sol.dense.u_prime(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            defect = up - u / r
        defect[r == 0.0] = 0.0  # u ~ u'(0) r near the origin, the defect vanishes
        v_seg = _segment_potential(sol.potential, lo, hi)
        integrand = defect * defect + 0.5 * v_seg(r) * u * u
        pieces.append(float(w @ integrand))
    value = math.fsum(pieces)
    if include_tail:
        value += sol.a * sol.a / sol.r_max
    return value


# ---------------------------------------------------------------------------
# truncated-ball eigenproblem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeumannSolution:
    """Ground state of the truncated-ball problem, normalized to u(R) = R."""

    R: float
    lam: float
    grid: np.ndarray
    u: np.ndarray
    potential: RadialPotential
    boundary_residual: float
    dense: _PiecewiseSolution = field(repr=False)

    def f(self, r):
        """The ball profile f = u/r (f(0) is the limit u'(0))."""
        return _profile(self.dense, r, self.R)


def _interior_nodes(dense: _PiecewiseSolution, R: float, lam: float) -> int:
    n = max(2001, int(20.0 * math.sqrt(max(lam, 1e-30)) * R / math.pi) | 1)
    r = np.linspace(R * 1e-6, R, n)
    sign = np.sign(dense.u(r))
    sign = sign[sign != 0]
    return int(np.count_nonzero(sign[1:] != sign[:-1]))


def _rayleigh_bound(potential: RadialPotential, R: float) -> float:
    """Rayleigh quotient (3/R^3) int_0^b (V/2) r^2 dr of the trial profile f = 1.

    f = 1 meets the reflecting condition f'(R) = 0, so the quotient bounds
    the ground eigenvalue from above.  Simpson's rule on every breakpoint
    piece at once (V clipped into the piece) is exact for the soft-sphere
    and tabulated kinds.
    """
    cuts = np.array([0.0, *potential.breakpoints()])
    lo, hi = cuts[:-1, None], cuts[1:, None]
    t, w = _simpson_rule(0.0, 1.0, 16)
    r = np.clip(lo + (hi - lo) * t, np.nextafter(lo, hi), np.nextafter(hi, lo))
    per_piece = (potential(r) * r * r * w).sum(axis=1) * (hi - lo)[:, 0]
    return 1.5 * math.fsum(per_piece) / R**3


def brentq(f, a: float, b: float, xtol: float = 2e-12,
           rtol: float = 4.0 * np.finfo(float).eps, maxiter: int = 100) -> float:
    """Root of f in [a, b] by Brent's zeroin, step for step as ``scipy.optimize.brentq``.

    The iterate xcur and the contrapoint xblk keep a sign change between
    them; each step tries inverse quadratic (or secant) interpolation and
    falls back to bisection when that step is not short enough.  Stops
    when half the bracket is below (xtol + rtol |xcur|)/2.  Raises
    ValueError without a sign change and RuntimeError after ``maxiter``
    steps.
    """
    if xtol <= 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4.0 * np.finfo(float).eps:
        raise ValueError(f"rtol too small ({rtol:g} < {4.0 * np.finfo(float).eps:g})")
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


def _boundary_defect(dense: _PiecewiseSolution, R: float) -> float:
    return float(dense.u_prime(R)[0] - dense.u(R)[0] / R)


def solve_neumann(
    potential: RadialPotential, R: float, tol: float = 1e-10
) -> NeumannSolution:
    """Shoot for the smallest eigenvalue of the truncated-ball problem.

    For each trial lambda the radial equation is integrated outward and the
    boundary defect g(lambda) = u'(R) - u(R)/R is evaluated.  Below the
    ground eigenvalue g > 0 and u has no interior zero; above it either
    g < 0 or a node has entered.  That predicate is monotone, so bisection
    on it shrinks the bracket [0, twice the Rayleigh quotient of f = 1]
    until g(hi) < 0 with no node at hi; there g changes sign at the ground
    eigenvalue only, and Brent's method finds it.  The factor 2 keeps the
    upper end clear of the eigenvalue where a weak potential makes the
    quotient and the eigenvalue nearly equal.  Bracket failure is
    reported, never silent.
    """
    if R <= potential.support_radius:
        raise SolverError("ball radius must exceed the potential support")
    if potential.is_zero:
        grid = np.linspace(0.0, R, 2001)
        dense = _integrate_radial(potential, R, lam=0.0, tol=tol)
        return NeumannSolution(
            R=R, lam=0.0, grid=grid, u=grid.copy(), potential=potential,
            boundary_residual=0.0, dense=dense,
        )

    def shoot(lam: float) -> tuple[float, int]:
        dense = _integrate_radial(potential, R, lam, tol)
        return _boundary_defect(dense, R), _interior_nodes(dense, R, lam)

    lo, hi = 0.0, 2.0 * _rayleigh_bound(potential, R)
    g, nodes = shoot(lo)
    if g < 0.0 or nodes > 0:
        raise BracketFailure("boundary defect not positive at lambda = 0")
    g, nodes = shoot(hi)
    if g >= 0.0 and nodes == 0:
        raise BracketFailure("no eigenvalue below twice the Rayleigh quotient of f = 1")
    for _ in range(80):
        if g < 0.0 and nodes == 0:
            break
        mid = 0.5 * (lo + hi)
        g_mid, nodes_mid = shoot(mid)
        if g_mid < 0.0 or nodes_mid > 0:
            hi, g, nodes = mid, g_mid, nodes_mid
        else:
            lo = mid
    else:
        raise BracketFailure("bisection found no node-free upper end with g < 0")
    lam = brentq(
        lambda x: _boundary_defect(_integrate_radial(potential, R, x, tol), R),
        lo, hi, xtol=np.finfo(float).tiny, rtol=4.0 * np.finfo(float).eps,
    )

    dense = _integrate_radial(potential, R, lam, tol)
    residual = _boundary_defect(dense, R)
    if abs(residual) > 1e-5 * max(1.0, abs(dense.u(R)[0]) / R):
        raise BracketFailure(f"shooting residual {residual:.3e} did not close")
    if _interior_nodes(dense, R, lam) > 0:
        raise BracketFailure("converged to an excited state (interior node present)")
    dense = dense.rescaled(R / float(dense.u(R)[0]))
    grid = np.linspace(0.0, R, 2001)
    return NeumannSolution(
        R=R, lam=lam, grid=grid, u=dense.u(grid), potential=potential,
        boundary_residual=residual, dense=dense,
    )


# ---------------------------------------------------------------------------
# radial Fourier transforms
# ---------------------------------------------------------------------------

def _simpson_rule(lo: float, hi: float, n_intervals: int):
    r = np.linspace(lo, hi, n_intervals + 1)
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (hi - lo) / n_intervals / 3.0
    return r, w


class _Exterior:
    """Exact part over [b, R] of the profile G = c_r r + c_u u of a ball solution.

    Past the support u'' = -kappa^2 u, so G'' = -c_u kappa^2 u and
    d/dr[G' sin(kr) - k G cos(kr)] = (k^2 G - c_u kappa^2 u) sin(kr); the
    same identity for u alone makes (k^2 - kappa^2) int u sin(kr) dr a
    boundary term too.  That closed form cancels about (k (R - b))^-2 of
    its digits, and its denominator vanishes at k = kappa.  So below
    k (R - b) = 2 pi, and for the moments, the integral is taken by
    32-point Gauss-Legendre instead.  A ground state has no node, so
    kappa (R - b) < pi: the integrand there is a polynomial of degree at
    most 8 times sinusoids of frequency below 3 pi / (R - b), for which
    the rule's remainder is under 1e-40 of max|G| (R - b).  Above 2 pi,
    k > 2 kappa and the closed form is well conditioned.
    """

    def __init__(self, neumann: NeumannSolution, c_r: float, c_u: float):
        self.ends = np.array([neumann.potential.support_radius, neumann.R])
        self.kappa = math.sqrt(neumann.lam)
        self._c_u = c_u
        self._u = neumann.dense.u(self.ends)
        self._du = neumann.dense.u_prime(self.ends)
        self._g = c_r * self.ends + c_u * self._u
        self._dg = c_r + c_u * self._du
        x, w = leggauss(32)
        half = 0.5 * (self.ends[1] - self.ends[0])
        self._nodes = self.ends[0] + half * (x + 1.0)
        self._weighted_g = half * w * (c_r * self._nodes + c_u * neumann.dense.u(self._nodes))

    def _boundary(self, k: float, value, slope) -> float:
        """[G' sin(kr) - k G cos(kr)] between the ends for G = value, G' = slope."""
        t = slope * np.sin(k * self.ends) - k * value * np.cos(k * self.ends)
        return float(t[1] - t[0])

    def sine(self, k: float) -> float:
        """int_b^R G sin(kr) dr."""
        if k * (self.ends[1] - self.ends[0]) < 2.0 * math.pi:
            return float(self._weighted_g @ np.sin(k * self._nodes))
        kappa_sq = self.kappa * self.kappa
        u_sine = self._boundary(k, self._u, self._du) / (k * k - kappa_sq)
        return (self._boundary(k, self._g, self._dg) + self._c_u * kappa_sq * u_sine) / (k * k)

    def moment(self, power: int) -> float:
        """int_b^R G r^power dr."""
        return float(self._weighted_g @ self._nodes**power)


class _RadialTransform:
    """Sine transform (4 pi / k) * int_0^span G(r) sin(k r) dr with an error estimate.

    The profile G is sampled once on composite Simpson grids over [0, hi],
    split at the given breakpoints; each evaluation also returns the
    difference against the half-resolution rule (which reuses every second
    sine of the fine one), and that bounds the quadrature error.  An
    optional ``exterior`` carries G exactly from hi on to the span.
    """

    def __init__(self, profile: Callable, hi: float, breaks: Iterable[float],
                 points_per_unit: float, exterior: _Exterior | None = None):
        cuts = [0.0] + sorted(b for b in breaks if 0.0 < b < hi) + [hi]
        self._pieces = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            n = max(64, int((b - a) * points_per_unit))
            n += (-n) % 4  # divisible by 4 so the coarse rule is Simpson too
            r, w = _simpson_rule(a, b, n)
            _, wc = _simpson_rule(a, b, n // 2)
            g = np.asarray(profile(r), dtype=float)
            self._pieces.append((r, w, g, wc, g[::2]))
        self.h = max((p[0][1] - p[0][0]) for p in self._pieces)
        self._exterior = exterior
        self.span = hi if exterior is None else float(exterior.ends[1])

    def moments(self, powers: Sequence[int]) -> list[float]:
        out = []
        for q in powers:
            parts = [float(w @ (g * r**q)) for r, w, g, _, _ in self._pieces]
            if self._exterior is not None:
                parts.append(self._exterior.moment(q))
            out.append(math.fsum(parts))
        return out

    def __call__(self, k: float) -> tuple[float, float]:
        if k * self.span < 1e-3:
            m1, m3, m5 = self.moments([1, 3, 5])
            value = _FOUR_PI * (m1 - k * k * m3 / 6.0 + k**4 * m5 / 120.0)
            return value, abs(_FOUR_PI * k**6 * self.moments([7])[0] / 5040.0)
        if k * self.h > 0.6:
            raise QuadratureError(
                f"wave number {k:g} beyond quadrature resolution (h = {self.h:g})"
            )
        fine = 0.0
        coarse = 0.0
        for r, w, g, wc, gc in self._pieces:
            s = np.sin(k * r)
            fine += float(w @ (g * s))
            coarse += float(wc @ (gc * s[::2]))
        error = abs(_FOUR_PI / k * (fine - coarse))
        if self._exterior is not None:
            fine += self._exterior.sine(k)
        return _FOUR_PI / k * fine, error


def _radial_transform(
    potential: RadialPotential,
    c_r: float,
    c_u: float = 0.0,
    neumann: NeumannSolution | None = None,
    times_v: bool = False,
    points_per_unit: float | None = None,
) -> _RadialTransform:
    """Transform of the profile G = (c_r r + c_u u) V^times_v, u from ``neumann``.

    The function transformed is G/r.  With a ball solution, (c_r, c_u) =
    (1, -1) gives w = 1 - f and (0, 1) gives f on the ball; with times_v,
    (0, 1) gives V f and, without a ball solution, (1, 0) gives V.
    Profiles with the factor V vanish past the support and are sampled ten
    times finer; the others run on exactly over the ball.
    """
    if points_per_unit is None:
        points_per_unit = 40000.0 if times_v else 4000.0

    def profile(r):
        g = c_r * r if neumann is None else c_r * r + c_u * neumann.dense.u(r)
        return g * potential(r) if times_v else g

    exterior = None if neumann is None or times_v else _Exterior(neumann, c_r, c_u)
    return _RadialTransform(profile, potential.support_radius, potential.breakpoints(),
                            points_per_unit, exterior)


def potential_fourier(potential: RadialPotential, points_per_unit: float = 40000.0):
    """Radial Fourier transform of the bare potential as a callable of k >= 0."""
    transform = _radial_transform(potential, 1.0, times_v=True,
                                  points_per_unit=points_per_unit)

    def v_hat(k: float) -> float:
        return transform(abs(k))[0]

    return v_hat


# ---------------------------------------------------------------------------
# correlation kernels
# ---------------------------------------------------------------------------

def _unique_shells(modes: Sequence[Mode]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique p_sq values and the index of each mode's shell."""
    p_sq = np.array([m.p_sq for m in modes])
    uniq, inverse = np.unique(p_sq, return_inverse=True)
    return uniq, inverse


def eta_coefficients(
    neumann: NeumannSolution, N: int, modes: Sequence[Mode]
) -> np.ndarray:
    """Pair-correlation kernel eta_p = -w_hat(|p|/N)/N^2, equal on every shell.

    w = 1 - f is the ball solution's defect from 1, extended by zero; its
    radial transform is taken by Simpson quadrature on the support and
    exactly over the rest of the ball, with the small-k series branch
    below k R < 1e-3.
    """
    transform = _radial_transform(neumann.potential, 1.0, -1.0, neumann)
    uniq, inverse = _unique_shells(modes)
    values = np.empty(len(uniq))
    for i, p_sq in enumerate(uniq):
        k = math.sqrt(p_sq) / N
        values[i] = -transform(k)[0] / (N * N)
    return values[inverse]


def tau_coefficients(
    eta: np.ndarray,
    neumann: NeumannSolution,
    N: int,
    modes: Sequence[Mode],
) -> np.ndarray:
    """Residual kernel tau_p = -log(1 + 2 (Vf)_hat(|p|/N)/|p|^2)/4 - eta_p."""
    transform = _radial_transform(neumann.potential, 0.0, 1.0, neumann, times_v=True)
    uniq, inverse = _unique_shells(modes)
    log_part = np.empty(len(uniq))
    for i, p_sq in enumerate(uniq):
        k = math.sqrt(p_sq) / N
        vf = transform(k)[0]
        arg = 2.0 * vf / p_sq
        if 1.0 + arg <= 0.0:
            raise KernelError(
                f"log argument {1.0 + arg:g} <= 0 at p_sq = {p_sq:g}; quadrature failure"
            )
        log_part[i] = -0.25 * math.log1p(arg)
    return log_part[inverse] - np.asarray(eta, dtype=float)


def nu_coefficients(a: float, modes: Sequence[Mode]) -> np.ndarray:
    """Limit kernel nu_p = -log(1 + 16 pi a/|p|^2)/4 <= 0."""
    if a < 0:
        raise ValueError("scattering length must be non-negative")
    uniq, inverse = _unique_shells(modes)
    values = np.array([nu_coefficient(p_sq, a) for p_sq in uniq])
    return values[inverse]


def kernel_identity_residuals(
    neumann: NeumannSolution, N: int, modes: Sequence[Mode]
) -> tuple[np.ndarray, np.ndarray]:
    """Residual of |p|^2 eta_p + (Vf)_hat/2 - lambda (chi f)_hat per mode.

    Both sides are evaluated by independent quadratures; the second return
    value is the accumulated quadrature tolerance against which the
    residual should be judged.
    """
    w_tr = _radial_transform(neumann.potential, 1.0, -1.0, neumann)
    u_tr = _radial_transform(neumann.potential, 0.0, 1.0, neumann)
    vf_tr = _radial_transform(neumann.potential, 0.0, 1.0, neumann, times_v=True)
    uniq, inverse = _unique_shells(modes)
    res = np.empty(len(uniq))
    tol = np.empty(len(uniq))
    for i, p_sq in enumerate(uniq):
        k = math.sqrt(p_sq) / N
        w_hat, w_err = w_tr(k)
        vf_hat, vf_err = vf_tr(k)
        chif_hat, chif_err = u_tr(k)
        res[i] = -k * k * w_hat + 0.5 * vf_hat - neumann.lam * chif_hat
        tol[i] = 10.0 * (k * k * w_err + 0.5 * vf_err + neumann.lam * chif_err)
        tol[i] += 1e-9 * abs(0.5 * vf_hat)
    return res[inverse], tol[inverse]


@dataclass(frozen=True)
class KernelTable:
    """Per-mode kernel values."""

    N: int
    modes: tuple[Mode, ...]
    eta: np.ndarray
    tau: np.ndarray
    nu: np.ndarray

    def shell_rows(self) -> list[tuple[int, float, float, float, float]]:
        """One (norm_sq, |p|, eta, tau, nu) row per shell, ascending."""
        seen: dict[int, tuple] = {}
        for i, mode in enumerate(self.modes):
            key = mode.norm_sq
            if key not in seen:
                p_abs = math.sqrt(mode.p_sq)
                seen[key] = (key, p_abs, float(self.eta[i]), float(self.tau[i]), float(self.nu[i]))
        return [seen[k] for k in sorted(seen)]

    def to_csv(self, comments: Sequence[str] = ()) -> str:
        lines = [f"# {c}" for c in comments]
        lines.append("norm_sq,p_abs,eta,tau,nu")
        for norm_sq, p_abs, eta, tau, nu in self.shell_rows():
            lines.append(f"{norm_sq},{p_abs!r},{eta!r},{tau!r},{nu!r}")
        return "\n".join(lines) + "\n"


def kernel_table(
    potential: RadialPotential,
    N: int,
    ell: float,
    modes: Sequence[Mode],
    tol: float = 1e-10,
    scattering_r_max: float | None = None,
    scattering: ScatteringSolution | None = None,
    neumann: NeumannSolution | None = None,
) -> KernelTable:
    """Solve both radial problems and assemble eta, tau, nu on the given modes.

    ``ell`` is the ball-radius parameter (ball radius N*ell); it must keep
    the ball inside the unit cell, ell < 1/2.  Precomputed solutions may be
    passed to avoid repeating the solves.
    """
    if not (0.0 < ell < 0.5):
        raise ValueError("ell must lie in (0, 1/2) so the ball fits the torus")
    if scattering_r_max is None:
        scattering_r_max = default_r_max(potential)
    scat = scattering or solve_scattering(potential, r_max=scattering_r_max, tol=tol)
    if neumann is None:
        neumann = solve_neumann(potential, R=N * ell, tol=tol)
    if abs(neumann.R - N * ell) > 1e-9 * max(1.0, N * ell):
        raise ValueError("precomputed ball solution has the wrong radius")
    eta = eta_coefficients(neumann, N, modes)
    tau = tau_coefficients(eta, neumann, N, modes)
    nu = nu_coefficients(scat.a, modes)
    return KernelTable(N=N, modes=tuple(modes), eta=eta, tau=tau, nu=nu)
