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

Every radial integral over [0, b] uses one rule: composite Boole
quadrature (Romberg's second column: W. Romberg, *Kgl. Norske Vid. Selsk.
Forh.* 28 (1955)) on the breakpoint pieces, at one node density, with
every Magnus step boundary of the solution on a panel boundary, and at
two resolutions, so every integral carries its own error bound.  Past b
each integral is exact.  The energy integral, which cross-checks a, adds
a^2/b there; the Rayleigh bracket is 3 a_B / R^3, a_B = v_hat(0) / (8 pi)
the Born length, which also bounds a from above.

From the ball solution the correlation kernels are obtained as radial
Fourier transforms, each taken for a whole column of wave numbers at once.
Where k b <= 1 the rules are summed as their odd-moment series in k,
beyond it through the sines at the nodes.  The part
over [b, R] is exact: in closed form from d/dr[G' sin(kr) - k G cos(kr)] =
(G'' + k^2 G) sin(kr) with G'' = -kappa^2 u there, and below
k (R - b) = 2 pi, where that form cancels, by a Gauss-Legendre rule whose
error is far below roundoff for these short sinusoidal arcs:

* eta_p = -w_hat(|p|/N) / N^2 with w = 1 - f on the ball,
* tau_p = -log(1 + 2 (V f)_hat(|p|/N) / |p|^2)/4 - eta_p,
* nu_p  = -log(1 + 16 pi a / |p|^2)/4.

They depend on |p|^2 only and are evaluated once per shell of
``lattice.shell_table``.

Momenta use the unit-torus convention p = 2*pi*n, energies |p|^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bogoliubov import _per_element, mode_coefficients
from .errors import BracketFailure, KernelError, QuadratureError, SolverError
from .lattice import shell_table

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
        """Radii where integration is split, the support radius last.

        Each piece between them starts as one Magnus step.  They are the
        radii where V may be non-smooth (the table's grid) and, for the
        Gaussian, support i/n with n = ceil(support/width): a first step no
        wider than the width cannot step over a narrow peak.
        """
        if self.kind == "tabulated":
            return tuple(x for x in self.grid if 0.0 < x <= self.support_radius)
        if self.kind == "gaussian_truncated":
            _, width, support = self.params
            n = max(1, math.ceil(support / width))
            return tuple(support * i / n for i in range(1, n)) + (support,)
        return (self.support_radius,)


def zero_potential(support_radius: float = 0.5) -> RadialPotential:
    """The identically-zero interaction (free gas)."""
    return RadialPotential.soft_sphere(0.0, support_radius)


# ---------------------------------------------------------------------------
# breakpoint pieces and their quadrature rules
# ---------------------------------------------------------------------------

def _pieces(potential: RadialPotential):
    """(cuts, lo_in, hi_in): the breakpoint pieces of [0, b].

    The cuts are 0 and the breakpoints.  Breakpoints sit exactly on piece
    boundaries, so V is read one piece at a time with r clipped into
    [lo_in, hi_in], the piece's ends moved one ulp inwards: sampling the
    raw potential there would leak the value from the neighbouring piece
    (e.g. the soft-sphere top at its own support radius).
    """
    cuts = np.array([0.0, *potential.breakpoints()])
    return cuts, np.nextafter(cuts[:-1], cuts[1:]), np.nextafter(cuts[1:], cuts[:-1])


# nodes per evaluation of a profile; this bounds the memory of a
# transform's sampling
_GROUP = 2**16


def _boole_nodes(lo: np.ndarray, hi: np.ndarray, n: np.ndarray):
    """Composite Boole rules with n[i] intervals on [lo[i], hi[i]], n[i]
    divisible by 4, concatenated.

    Returns the nodes, the weights and each node's index within its piece.
    Node i of a piece is i * step + lo and its last node is hi, as
    ``np.linspace`` makes them.  The weights are c * (2 step / 45),
    c = 7, 32, 12, 32, 14, ..., 32, 7, which are (16 S_h - S_2h) / 15 of
    the Simpson rules at steps h and 2h (Romberg's second column).
    """
    size = n + 1
    first = np.cumsum(size) - size
    local = np.arange(int(size.sum())) - np.repeat(first, size)
    step = (hi - lo) / n
    r = local * np.repeat(step, size) + np.repeat(lo, size)
    r[first + n] = hi
    factor = np.array((14.0, 32.0, 12.0, 32.0))[local & 3]  # local % 4, without a division
    factor[first] = factor[first + n] = 7.0
    return r, factor * np.repeat(2.0 * step / 45.0, size), local


def _sample(f: Callable, *nodes: np.ndarray) -> np.ndarray:
    """f of the node arrays, a pointwise function, evaluated on slices of at
    most _GROUP nodes and joined along the last axis."""
    size = len(nodes[0])
    return np.concatenate(
        [f(*(x[i:i + _GROUP] for x in nodes)) for i in range(0, size, _GROUP)], axis=-1
    )


# ---------------------------------------------------------------------------
# radial solutions
# ---------------------------------------------------------------------------

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


class _RadialSolution:
    """(u, u') of u'' = (V/2 - lam) u from u(0) = 0, u'(0) = 1, times ``scale``.

    A radius in [0, b) is reached by one Magnus step from the start of the
    step it lies in, so at a step's end it reproduces the propagated state
    bit for bit.  Every r >= b is free: there u continues in closed form,
    u(b) cos(kappa s) + u'(b) sin(kappa s)/kappa with s = r - b and
    kappa = sqrt(lam), affine at lam = 0.  ``error_estimate`` is the
    propagation's relative error estimate.
    """

    def __init__(self, potential, lam, starts, states, lo_in, hi_in, error_estimate):
        self._potential = potential
        self._lam = lam
        self._starts = starts  # n + 1 radii, the last one the support radius
        self._states = states  # (n + 1, 2): (u, u') at each radius
        self._lo_in = lo_in
        self._hi_in = hi_in
        self.error_estimate = error_estimate
        self.scale = 1.0

    def state(self, r) -> np.ndarray:
        """Rows (u, u') at the radii r >= 0, from one evaluation."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if not np.all(r >= 0.0):
            raise ValueError("radial solutions are defined for r >= 0 only")
        out = np.empty((2, len(r)))
        inside = r < self._starts[-1]
        j = np.searchsorted(self._starts, r[inside], side="right") - 1
        m = _magnus_steps(self._potential, self._lam, self._starts[j], r[inside],
                          self._lo_in[j], self._hi_in[j])
        u, du = self._states[j, 0], self._states[j, 1]
        out[0, inside] = m[:, 0, 0] * u + m[:, 0, 1] * du
        out[1, inside] = m[:, 1, 0] * u + m[:, 1, 1] * du
        s = r[~inside] - self._starts[-1]
        u, du = self._states[-1]
        kappa = math.sqrt(self._lam)
        if kappa == 0.0:
            out[0, ~inside] = u + du * s
            out[1, ~inside] = du
        else:
            c, sn = np.cos(kappa * s), np.sin(kappa * s)
            out[0, ~inside] = u * c + du * sn / kappa
            out[1, ~inside] = du * c - u * kappa * sn
        return out * self.scale

    def u(self, r) -> np.ndarray:
        return self.state(r)[0]

    def u_prime(self, r) -> np.ndarray:
        return self.state(r)[1]


def _integrate_radial(potential: RadialPotential, lam: float, tol: float) -> _RadialSolution:
    """Solve u'' = (V/2 - lam) u, u(0)=0, u'(0)=1 on r >= 0.

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
    cuts, lo_in, hi_in = _pieces(potential)
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
    return _RadialSolution(potential, lam, np.append(left[order], cuts[-1]), states,
                           lo_in[piece[order]], hi_in[piece[order]], error)


# ---------------------------------------------------------------------------
# zero-energy scattering
# ---------------------------------------------------------------------------

def default_r_max(potential: RadialPotential) -> float:
    """Outer radius of the scattering solve: twenty support radii.

    Past the support u is affine in closed form, so a does not depend on
    this radius beyond roundoff, and ``energy_functional`` not at all.
    """
    return 20.0 * potential.support_radius


def _profile(dense: _RadialSolution, r, length: float) -> np.ndarray:
    """f = u/r, with the limit u'(0) below 1e-12 of the problem's ``length``."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    u = dense.u(r)
    small = r < 1e-12 * length
    out = np.empty_like(r)
    out[~small] = u[~small] / r[~small]
    out[small] = dense.u_prime(0.0)[0]
    return out


@dataclass(frozen=True)
class ScatteringSolution:
    """Zero-energy scattering solution, normalized so u(r) = r - a outside the support."""

    a: float
    r_max: float
    potential: RadialPotential
    tol: float
    dense: _RadialSolution = field(repr=False)

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
    For a non-zero V, 0 < a <= a_B holds, a_B = v_hat(0) / (8 pi) the Born
    length; an a outside it, beyond the quadrature bound of v_hat(0) and
    the propagation's estimate, raises SolverError.
    Equal (potential, r_max, tol) share one solve per process.
    """
    return _solve_scattering(potential, float(r_max), float(tol))


@functools.lru_cache(maxsize=8)
def _solve_scattering(potential: RadialPotential, r_max: float, tol: float) -> ScatteringSolution:
    if tol <= 0:
        raise ValueError("tol must be positive")
    if r_max <= potential.support_radius:
        raise SolverError(
            "r_max must exceed the potential support to reach the affine regime"
        )
    dense = _integrate_radial(potential, lam=0.0, tol=tol)
    u, c = dense.state(r_max)[:, 0].tolist()
    if not (c > 0):
        raise SolverError("scattering solution failed to stay positive outward")
    a = r_max - u / c
    if a < 0.0:
        # non-negative potentials have non-negative length; only roundoff
        # from the free problem may dip below zero
        if a < -10.0 * tol * max(1.0, r_max):
            raise SolverError(f"negative scattering length {a:g} from the solver")
        a = 0.0
    dense.scale = 1.0 / c
    if not potential.is_zero:
        # error_estimate bounds u and u' relative to their largest values,
        # at most max(b, 1) with u' = 1 past b, so a = b - u(b) moves by at
        # most (1 + b) max(b, 1) times it
        b = potential.support_radius
        born, bound = _born_length(potential)
        if not 0.0 < a <= born + bound + dense.error_estimate * (1.0 + b) * max(b, 1.0):
            raise SolverError(f"scattering length a = {a!r} outside (0, a_B = {born!r}]: "
                              "the Magnus steps did not resolve V")

    sample = np.linspace(potential.support_radius, r_max, 17)
    affine_err = float(np.max(np.abs(dense.u(sample) - (sample - a))))
    if affine_err > 10.0 * tol * max(1.0, r_max):
        raise SolverError(f"affine regime not reached to tolerance ({affine_err:.3e})")
    return ScatteringSolution(a=a, r_max=r_max, potential=potential, tol=tol, dense=dense)


def energy_functional(sol: ScatteringSolution) -> float:
    """Scattering length via the radial energy integral, cross-checking the ODE route.

    Evaluates int_0^inf [ (u' - u/r)^2 + V u^2 / 2 ] dr.  Past the support
    b, V = 0 and u = u(b) + u'(b) (r - b), so the integrand is (a/r)^2 with
    a = b u'(b) - u(b), and that part is a^2/b in closed form; read at b,
    it does not depend on r_max.  The part over [0, b] is the zeroth moment
    of a radial transform of the energy density built on the solution's
    step radii, so every Magnus step boundary lies on a panel boundary of
    its Boole rules.
    """
    b = sol.potential.support_radius

    def density(r):
        u, du = sol.dense.state(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            defect = du - u / r
        defect[r == 0.0] = 0.0  # u ~ u'(0) r near the origin, the defect vanishes
        return defect * defect + 0.5 * sol.potential(r) * u * u

    inner = _RadialTransform(density, _pieces(sol.potential)[0], _POINTS_PER_UNIT,
                             steps=sol.dense._starts).moments([0])[0]
    u, du = sol.dense.state(b)[:, 0].tolist()
    return inner + (b * du - u) ** 2 / b


# ---------------------------------------------------------------------------
# truncated-ball eigenproblem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeumannSolution:
    """Ground state of the truncated-ball problem, normalized to u(R) = R."""

    R: float
    lam: float
    potential: RadialPotential
    boundary_residual: float
    dense: _RadialSolution = field(repr=False)

    def f(self, r):
        """The ball profile f = u/r (f(0) is the limit u'(0))."""
        return _profile(self.dense, r, self.R)


def _interior_nodes(dense: _RadialSolution, R: float, lam: float) -> int:
    n = max(2001, int(20.0 * math.sqrt(max(lam, 1e-30)) * R / math.pi) | 1)
    r = np.linspace(R * 1e-6, R, n)
    sign = np.sign(dense.u(r))
    sign = sign[sign != 0]
    return int(np.count_nonzero(sign[1:] != sign[:-1]))


def _born_length(potential: RadialPotential) -> tuple[float, float]:
    """(a_B, bound): the Born length a_B = v_hat(0) / (8 pi) = int_0^b V r^2 dr / 2,
    the upper bound of the scattering length of a non-negative V, and the
    quadrature bound of v_hat(0) divided by 8 pi."""
    values, bounds = _v_transform(potential)(np.zeros(1))
    return float(values[0]) / (2.0 * _FOUR_PI), float(bounds[0]) / (2.0 * _FOUR_PI)


def _rayleigh_bound(potential: RadialPotential, R: float) -> float:
    """Rayleigh quotient (3/R^3) int_0^b (V/2) r^2 dr = 3 a_B / R^3 of the trial profile f = 1.

    f = 1 meets the reflecting condition f'(R) = 0, so the quotient bounds
    the ground eigenvalue from above.
    """
    return 3.0 * _born_length(potential)[0] / R**3


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


def _boundary_defect(dense: _RadialSolution, R: float) -> float:
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
        dense = _integrate_radial(potential, lam=0.0, tol=tol)
        return NeumannSolution(R=R, lam=0.0, potential=potential, boundary_residual=0.0,
                               dense=dense)

    def shoot(lam: float) -> tuple[float, int]:
        dense = _integrate_radial(potential, lam, tol)
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
        lambda x: _boundary_defect(_integrate_radial(potential, x, tol), R),
        lo, hi, xtol=np.finfo(float).tiny, rtol=4.0 * np.finfo(float).eps,
    )

    dense = _integrate_radial(potential, lam, tol)
    residual = _boundary_defect(dense, R)
    if abs(residual) > 1e-5 * max(1.0, abs(dense.u(R)[0]) / R):
        raise BracketFailure(f"shooting residual {residual:.3e} did not close")
    if _interior_nodes(dense, R, lam) > 0:
        raise BracketFailure("converged to an excited state (interior node present)")
    dense.scale = R / float(dense.u(R)[0])
    return NeumannSolution(R=R, lam=lam, potential=potential, boundary_residual=residual,
                           dense=dense)


# ---------------------------------------------------------------------------
# radial Fourier transforms
# ---------------------------------------------------------------------------

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
        self._u, self._du = neumann.dense.state(self.ends)
        self._g = c_r * self.ends + c_u * self._u
        self._dg = c_r + c_u * self._du
        x, w = leggauss(32)
        half = 0.5 * (self.ends[1] - self.ends[0])
        self._nodes = self.ends[0] + half * (x + 1.0)
        self._weighted_g = half * w * (c_r * self._nodes + c_u * neumann.dense.u(self._nodes))
        self.abs_integral = float(np.abs(self._weighted_g).sum())  # int_b^R |G| dr

    def _boundary(self, k, value, slope):
        """[G' sin(kr) - k G cos(kr)] between the ends for G = value, G' = slope,
        per wave number of ``k`` (a scalar or a column)."""
        kr = np.multiply.outer(k, self.ends)
        t = slope * np.sin(kr) - np.multiply.outer(k, value) * np.cos(kr)
        return t[..., 1] - t[..., 0]

    def sine(self, k: np.ndarray) -> np.ndarray:
        """int_b^R G sin(kr) dr per wave number of the column ``k``."""
        out = np.empty(len(k))
        gauss = k * (self.ends[1] - self.ends[0]) < 2.0 * math.pi
        sines = np.sin(np.multiply.outer(k[gauss], self._nodes))
        out[gauss] = (sines * self._weighted_g).sum(axis=1)
        k = k[~gauss]
        kappa_sq = self.kappa * self.kappa
        u_sine = self._boundary(k, self._u, self._du) / (k * k - kappa_sq)
        out[~gauss] = (self._boundary(k, self._g, self._dg)
                       + self._c_u * kappa_sq * u_sine) / (k * k)
        return out

    def moment(self, power: int) -> float:
        """int_b^R G r^power dr."""
        return float(self._weighted_g @ self._nodes**power)


# terms of the odd-moment series of a transform's quadrature part, taken
# where k r_end <= 1: the first term left out is below (k r_end)^22 / 23! <
# 4e-23 of the |G|-moment, far below the rounding term
_SERIES_TERMS = 11

# Boole intervals per unit length in every transform (at least 64 per
# piece); the resolution k_max = 0.6 / h is then 2,400 per unit length
_POINTS_PER_UNIT = 4000.0

_EPS = np.finfo(float).eps
# rounding of one sum of products w G s, relative to sum |w G|: the two
# products and the sine (within 1 ulp) per term, and the dot's additions,
# which stayed within 1 eps at 2,001 terms and 2.5 eps at 130,000 in
# trials with all-positive terms; 8 eps covers these and the factor
# sinh(1) = 1.18 by which the moment series' terms can exceed the sines'
_ROUNDING = 8.0 * _EPS


def _boole_intervals(cuts: np.ndarray, points_per_unit: float,
                     steps: np.ndarray | None = None) -> np.ndarray:
    """Intervals of each piece's Boole rule: ``points_per_unit`` per unit
    length, at least 64, and a multiple of 8, so that the rule at twice the
    step on every second node is Boole's too.

    ``steps`` are the step radii of a radial solution, whose steps halve
    each piece d times at most.  Its profile is smooth within a step, not
    across one: a kink inside a panel costs both rules alike, and their
    difference does not show it.  So n is a multiple of 8 * 2^d, which puts
    every step boundary on a panel boundary of both rules.
    """
    lo, hi = cuts[:-1], cuts[1:]
    n = np.maximum(64, ((hi - lo) * points_per_unit).astype(int))
    multiple = np.full(len(n), 8)
    if steps is not None:
        piece = np.searchsorted(cuts, steps[:-1], side="right") - 1
        halvings = np.rint(np.log2((hi - lo)[piece] / np.diff(steps))).astype(int)
        np.maximum.at(multiple, piece, 8 << halvings)
    return n + (-n) % multiple


class _RadialTransform:
    """Sine transforms (4 pi / k) int_0^R G(r) sin(kr) dr of a column of wave
    numbers, each with an error bound.

    Each piece between the ``cuts`` gets a composite Boole rule of n
    intervals (``_boole_intervals``: ``points_per_unit`` per unit length,
    at least 64, a multiple of 8, and every step boundary of the radial
    solution ``steps`` on a panel boundary); the rules form one node set,
    where G is sampled once, at most 2^16 nodes per evaluation.  The Boole
    rule at twice the step on every second node of each piece gives a
    second value, and the difference of the two estimates the quadrature
    error.  Both rules are kept as two rows of weights times G over the
    whole node set (the coarse row 0 on the odd nodes) and evaluated in
    one of two ways, split by k r_end, r_end the last node:

    * k r_end <= 1: by the odd-moment series
      4 pi sum_j (-1)^j k^(2j) M_(2j+1) / (2j+1)!, M_q = sum w G r^q, in
      ``_SERIES_TERMS`` terms, whose moments are computed once, on first
      use.  The first term left out, with the |G|-moment, is added to the
      estimate.  k = 0 gives 4 pi M_1.
    * k r_end > 1: by the sines at the nodes, one wave number at a time.

    An optional ``exterior`` carries G exactly from the last cut on to R.
    A column with a wave number beyond the nodes' resolution, k above
    ``k_max`` = 0.6 / h, raises QuadratureError before anything is
    evaluated.

    The estimate also bounds the rounding, all that is left where the two
    rules agree bit for bit.  Every sum of products w G s, over the nodes
    or over the exterior's, rounds by at most ``_ROUNDING`` sum |w G|;
    |sin(kr) / k| <= min(1/k, R), the series' terms add up to at most
    sinh(k r_end) / k <= 1.18 r_end there, and the rounded argument k r
    moves a sine by at most eps/2 k R.  So the rounding is below
    4 pi A (_ROUNDING min(1/k, R) + eps/2 R), A = sum |w G| plus
    int_b^R |G| dr, R the transform's last radius.  The rounding of the
    profile's own samples (of w = r - u, say) is not part of it.
    """

    def __init__(self, profile: Callable, cuts: np.ndarray, points_per_unit: float,
                 exterior: _Exterior | None = None, steps: np.ndarray | None = None):
        lo, hi = cuts[:-1], cuts[1:]
        n = _boole_intervals(cuts, points_per_unit, steps)
        self._r, fine, local = _boole_nodes(lo, hi, n)
        coarse = np.zeros_like(fine)
        coarse[local % 2 == 0] = _boole_nodes(lo, hi, n // 2)[1]
        self._g = _sample(profile, self._r)
        self._wg = np.stack((fine, coarse)) * self._g  # each rule's weights times G
        self._abs_sum = float(np.abs(self._wg[0]).sum())  # A of the rounding bound
        self._radius = self._r[-1]
        if exterior is not None:
            self._abs_sum += exterior.abs_integral
            self._radius = exterior.ends[1]
        self.h = float(np.diff(self._r).max())
        self.k_max = 0.6 / self.h
        self._exterior = exterior

    def _sums(self, s: np.ndarray) -> tuple[float, float]:
        """sum w G s of the fine and of the coarse rule, one dot each: a
        two-row matrix-vector product rounds worse than two dots."""
        return float(self._wg[0] @ s), float(self._wg[1] @ s)

    def moments(self, powers: Sequence[int]) -> list[float]:
        out = []
        for q in powers:
            value = self._sums(self._r**q)[0]
            if self._exterior is not None:
                value += self._exterior.moment(q)
            out.append(value)
        return out

    @functools.cached_property
    def _series_terms(self) -> tuple[np.ndarray, float]:
        """((2, _SERIES_TERMS) coefficients of k^(2j), (-1)^j M_(2j+1) / (2j+1)!
        for the fine and the coarse rule; the first term left out as a
        coefficient of k^(2 _SERIES_TERMS), from the fine |G|-moment)."""
        r_sq = self._r * self._r
        power = self._r.copy()  # r^(2j + 1)
        terms = np.empty((2, _SERIES_TERMS))
        for j in range(_SERIES_TERMS):
            terms[:, j] = (-1) ** j / math.factorial(2 * j + 1) * np.array(self._sums(power))
            power *= r_sq
        left_out = float(np.abs(self._wg[0]) @ power) / math.factorial(2 * _SERIES_TERMS + 1)
        return terms, left_out

    def __call__(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values, estimates), one entry per wave number k >= 0 of the column ``k``."""
        k = np.asarray(k, dtype=float)
        beyond = k > self.k_max
        if beyond.any():
            raise QuadratureError(
                f"wave number {k[beyond][0]:g} beyond quadrature resolution (h = {self.h:g})"
            )
        rules = np.empty((len(k), 2))  # the fine and the coarse rule's value
        left_out = np.zeros(len(k))
        series = k * self._r[-1] <= 1.0
        if series.any():
            terms, bound = self._series_terms
            k_sq = k[series] * k[series]
            both = np.zeros((2, len(k_sq)))
            for coefficient in terms.T[::-1]:  # Horner's rule in k^2, entry by entry
                both = both * k_sq + coefficient[:, None]
            rules[series] = _FOUR_PI * both.T
            left_out[series] = _FOUR_PI * k_sq**_SERIES_TERMS * bound
        direct = np.flatnonzero(~series)
        for i in direct:
            rules[i] = self._sums(np.sin(k[i] * self._r))
        rules[direct] *= (_FOUR_PI / k[direct])[:, None]
        reach = self._radius / np.maximum(1.0, k * self._radius)  # min(1/k, R)
        rounding = _FOUR_PI * self._abs_sum * (_ROUNDING * reach + 0.5 * _EPS * self._radius)
        values = rules[:, 0]
        if self._exterior is not None:
            # (4 pi / k) int_b^R G sin(kr) dr, whose limit at k = 0 is 4 pi int_b^R G r dr
            values = values + _FOUR_PI * np.divide(
                self._exterior.sine(k), k, where=k > 0.0,
                out=np.full(len(k), self._exterior.moment(1)),
            )
        return values, np.abs(rules[:, 0] - rules[:, 1]) + left_out + rounding


def _radial_transform(
    potential: RadialPotential,
    c_r: float,
    c_u: float = 0.0,
    neumann: NeumannSolution | None = None,
    times_v: bool = False,
) -> _RadialTransform:
    """Transform of the profile G = (c_r r + c_u u) V^times_v, u from ``neumann``.

    The function transformed is G/r.  With a ball solution, (c_r, c_u) =
    (1, -1) gives w = 1 - f and (0, 1) gives f on the ball; with times_v,
    (0, 1) gives V f and, without a ball solution, (1, 0) gives V.
    Every profile is sampled at ``_POINTS_PER_UNIT`` Boole intervals per
    unit length of the support; profiles with the factor V vanish past it,
    the others run on exactly over the ball.  The transform is built once
    and called on a column of wave numbers; it returns a column of values
    and one of error bounds.
    """

    def profile(r):
        g = c_r * r if neumann is None else c_r * r + c_u * neumann.dense.u(r)
        return g * potential(r) if times_v else g

    exterior = None if neumann is None or times_v else _Exterior(neumann, c_r, c_u)
    steps = None if neumann is None else neumann.dense._starts
    return _RadialTransform(profile, _pieces(potential)[0], _POINTS_PER_UNIT, exterior, steps)


@functools.lru_cache(maxsize=8)
def _v_transform(potential: RadialPotential) -> _RadialTransform:
    """The transform of V, built once per potential: a_B and ``potential_fourier`` read it."""
    return _radial_transform(potential, 1.0, times_v=True)


def potential_fourier(potential: RadialPotential):
    """Radial Fourier transform of the bare potential as a callable of k: a
    column of wave numbers gives a column of values, a single k a float."""
    transform = _v_transform(potential)

    def v_hat(k):
        values = transform(np.abs(np.atleast_1d(np.asarray(k, dtype=float))))[0]
        return values if np.ndim(k) else float(values[0])

    return v_hat


# ---------------------------------------------------------------------------
# correlation kernels
# ---------------------------------------------------------------------------

def eta_coefficients(neumann: NeumannSolution, N: int, p_sq: np.ndarray) -> np.ndarray:
    """Pair-correlation kernel eta_p = -w_hat(|p|/N)/N^2, one value per |p|^2.

    w = 1 - f is the ball solution's defect from 1, extended by zero; its
    radial transform is taken on the whole column at once, by Boole
    quadrature on the support (the moment series where k b <= 1) and
    exactly over the rest of the ball.  ``p_sq`` is typically the column of
    ``shell_table``.
    """
    transform = _radial_transform(neumann.potential, 1.0, -1.0, neumann)
    return -transform(np.sqrt(p_sq) / N)[0] / (N * N)


def tau_coefficients(
    eta: np.ndarray, neumann: NeumannSolution, N: int, p_sq: np.ndarray
) -> np.ndarray:
    """Residual kernel tau_p = -log(1 + 2 (Vf)_hat(|p|/N)/|p|^2)/4 - eta_p per |p|^2."""
    transform = _radial_transform(neumann.potential, 0.0, 1.0, neumann, times_v=True)
    p_sq = np.asarray(p_sq, dtype=float)
    arg = 2.0 * transform(np.sqrt(p_sq) / N)[0] / p_sq
    bad = np.flatnonzero(1.0 + arg <= 0.0)
    if len(bad):
        i = bad[0]
        raise KernelError(
            f"log argument {1.0 + arg[i]:g} <= 0 at p_sq = {p_sq[i]:g}; quadrature failure"
        )
    # log1p through math, as nu's: numpy's differs from it in the last bit on some arguments
    return -0.25 * _per_element(math.log1p, arg) - np.asarray(eta, dtype=float)


def nu_coefficients(a: float, p_sq: np.ndarray) -> np.ndarray:
    """Limit kernel nu_p = -log(1 + 16 pi a/|p|^2)/4 <= 0 per |p|^2."""
    return mode_coefficients(p_sq, a).nu


def kernel_identity_residuals(
    neumann: NeumannSolution, N: int, p_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual of |p|^2 eta_p + (Vf)_hat/2 - lambda (chi f)_hat per |p|^2.

    Both sides are evaluated by independent quadratures; the second return
    value is the accumulated quadrature tolerance against which the
    residual should be judged.
    """
    w_tr = _radial_transform(neumann.potential, 1.0, -1.0, neumann)
    u_tr = _radial_transform(neumann.potential, 0.0, 1.0, neumann)
    vf_tr = _radial_transform(neumann.potential, 0.0, 1.0, neumann, times_v=True)
    k = np.sqrt(p_sq) / N
    w_hat, w_err = w_tr(k)
    vf_hat, vf_err = vf_tr(k)
    chif_hat, chif_err = u_tr(k)
    res = -k * k * w_hat + 0.5 * vf_hat - neumann.lam * chif_hat
    tol = 10.0 * (k * k * w_err + 0.5 * vf_err + neumann.lam * chif_err)
    return res, tol + 1e-9 * np.abs(0.5 * vf_hat)


@dataclass(frozen=True)
class KernelTable:
    """Kernel values per shell, ascending |n|^2, as columns of ``shell_table``."""

    N: int
    norm_sq: np.ndarray
    p_sq: np.ndarray
    eta: np.ndarray
    tau: np.ndarray
    nu: np.ndarray


def kernel_table(
    scattering: ScatteringSolution,
    neumann: NeumannSolution,
    N: int,
    cutoff_norm_sq: int,
) -> KernelTable:
    """eta, tau and nu on the shells up to the cutoff, from both radial solutions.

    eta and tau come from the ball solution at radius N*ell, nu from the
    scattering length.
    """
    norm_sq, _, p_sq = shell_table(cutoff_norm_sq)
    eta = eta_coefficients(neumann, N, p_sq)
    tau = tau_coefficients(eta, neumann, N, p_sq)
    nu = nu_coefficients(scattering.a, p_sq)
    return KernelTable(N=N, norm_sq=norm_sq, p_sq=p_sq, eta=eta, tau=tau, nu=nu)
