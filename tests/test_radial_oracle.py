"""The full-domain radial solvers as the reference for the closed-form exterior.

The package propagates the radial equation by Magnus transfer matrices
only across the support of V and continues it in closed form beyond; it
finds the ball eigenvalue by its own port of Brent's method and takes the
exterior part of every ball transform exactly; its quadrature rules are
built for all breakpoint pieces at once, and its transforms use Boole's
rule at one node density.  The references below are the earlier paths:
DOP853 over the whole domain (split at the breakpoints, held by a general
segment evaluator), 80 steps of bisection on the monotone shooting
predicate, composite Simpson quadrature over the whole ball, one Simpson
or Boole rule and one energy-integral term per piece, the two-density
Simpson transform, and ``scipy.optimize.brentq``.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import bosegas.scattering as scattering
from bosegas.errors import BracketFailure, KernelError, QuadratureError
from bosegas.lattice import shell_table
from bosegas.scattering import (
    _GROUP,
    _POINTS_PER_UNIT,
    _ROUNDING,
    _SERIES_TERMS as SERIES_TERMS,
    RadialPotential,
    _boole_nodes,
    _boundary_defect,
    _Exterior,
    _integrate_radial,
    _interior_nodes,
    _pieces,
    _radial_transform,
    _RadialTransform,
    _sample,
    _simpson_nodes,
    energy_functional,
    eta_coefficients,
    solve_neumann,
    solve_scattering,
    tau_coefficients,
    zero_potential,
)

SOFT = RadialPotential.soft_sphere(100.0, 0.5)
FOUR_PI = 4.0 * math.pi
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# reference: the full-domain path
# ---------------------------------------------------------------------------

class SegmentSolution:
    """Dense evaluator for u, u' assembled from per-segment solutions.

    Each segment is ``(lo, hi, sol)`` with ``sol(r)`` returning the rows
    (u, u') at radii in [lo, hi]; radii outside every segment read NaN.
    """

    def __init__(self, segments, scale=1.0):
        self._segments = segments
        self._scale = scale

    def rescaled(self, scale):
        return SegmentSolution(self._segments, self._scale * scale)

    def _eval(self, r, row):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.full_like(r, np.nan)
        for lo, hi, sol in self._segments:
            mask = (r >= lo) & (r <= hi)
            if mask.any():
                out[mask] = sol(r[mask])[row]
        return out * self._scale

    def u(self, r):
        return self._eval(r, 0)

    def u_prime(self, r):
        return self._eval(r, 1)


def segment_potential(potential, lo, hi):
    """Potential restricted to (lo, hi): endpoint values are one-sided limits."""
    lo_in = np.nextafter(lo, hi)
    hi_in = np.nextafter(hi, lo)

    def v(r):
        return potential(np.clip(r, lo_in, hi_in))

    return v


def simpson_rule(lo, hi, n_intervals):
    r = np.linspace(lo, hi, n_intervals + 1)
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (hi - lo) / n_intervals / 3.0
    return r, w


def boole_rule(lo, hi, n_intervals):
    r = np.linspace(lo, hi, n_intervals + 1)
    w = np.full(n_intervals + 1, 14.0)
    w[0] = w[-1] = 7.0
    w[1::2] = 32.0
    w[2::4] = 12.0
    w *= 2.0 * (hi - lo) / n_intervals / 45.0
    return r, w


def ref_integrate_radial(potential, r_end, lam, tol):
    """DOP853 from u(0)=0, u'(0)=1 to r_end, split at the breakpoints."""
    cuts = [0.0] + [b for b in potential.breakpoints() if b < r_end] + [r_end]
    y = [0.0, 1.0]
    segments = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        v_seg = segment_potential(potential, lo, hi)

        def rhs(r, y, v_seg=v_seg):
            return [y[1], (0.5 * v_seg(r) - lam) * y[0]]

        res = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=tol,
                        atol=tol * 1e-3, dense_output=True)
        assert res.success
        segments.append((lo, hi, res.sol))
        y = [res.y[0][-1], res.y[1][-1]]
    return SegmentSolution(segments)


def ref_scattering_length(potential, r_max, tol):
    dense = ref_integrate_radial(potential, r_max, 0.0, tol)
    c = float(dense.u_prime(r_max)[0])
    return r_max - float(dense.u(r_max)[0]) / c


def ref_solve_neumann(potential, R, tol):
    """(lambda, dense u normalized to u(R) = R) by 80 steps of bisection."""

    def above_ground(lam):
        dense = ref_integrate_radial(potential, R, lam, tol)
        return _boundary_defect(dense, R) < 0.0 or _interior_nodes(dense, R, lam) > 0

    lo, hi = 0.0, math.pi**2 / (R * R) + 0.5 * potential.max_value
    assert not above_ground(lo) and above_ground(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if above_ground(mid):
            hi = mid
        else:
            lo = mid
    lam = 0.5 * (lo + hi)
    dense = ref_integrate_radial(potential, R, lam, tol)
    return lam, dense.rescaled(R / float(dense.u(R)[0]))


def ref_pieces(profile, R, breaks, points_per_unit, rule=simpson_rule, steps=None):
    """(r, w, G, wc) of each breakpoint piece of [0, R]: the nodes and
    weights of ``rule``, the profile sampled there and the half-resolution
    weights.  Simpson's n is a multiple of 4, Boole's of 8, so that the
    half-resolution rule is the same rule; with the step radii ``steps``
    of a radial solution, Boole's n is a multiple of 8 times the piece's
    width over its shortest step."""
    cuts = [0.0] + sorted(b for b in breaks if 0.0 < b < R) + [R]
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        n = max(64, int((b - a) * points_per_unit))
        multiple = 8 if rule is boole_rule else 4
        if steps is not None:
            edges = [x for x in steps if a <= x < b] + [b]
            multiple *= round((b - a) / min(np.diff(edges)))
        n += (-n) % multiple
        r, w = rule(a, b, n)
        _, wc = rule(a, b, n // 2)
        pieces.append((r, w, np.asarray(profile(r), dtype=float), wc))
    return pieces


def ref_transform(profile, R, breaks, k, points_per_unit=4000.0, rule=simpson_rule,
                  steps=None):
    """(4 pi / k) int_0^R G sin(kr) dr by ``rule`` over the whole ball, one
    piece at a time, with the fine-minus-coarse estimate; the moment series
    below k R = 1e-3."""
    pieces = ref_pieces(profile, R, breaks, points_per_unit, rule, steps)

    def moment(q):
        return math.fsum(float(w @ (g * r**q)) for r, w, g, _ in pieces)

    if k * R < 1e-3:
        value = FOUR_PI * (moment(1) - k * k * moment(3) / 6.0 + k**4 * moment(5) / 120.0)
        return value, abs(FOUR_PI * k**6 * moment(7) / 5040.0)
    fine = sum(float(w @ (g * np.sin(k * r))) for r, w, g, _ in pieces)
    coarse = sum(float(wc @ (g[::2] * np.sin(k * r[::2]))) for r, _, g, wc in pieces)
    return FOUR_PI / k * fine, abs(FOUR_PI / k * (fine - coarse))


def ref_eta(dense, potential, R, N, p_sq):
    """eta per shell with its quadrature estimate, ascending |n|^2."""
    out = []
    for p in p_sq.tolist():
        k = math.sqrt(p) / N
        value, err = ref_transform(lambda r: r - dense.u(r), R, potential.breakpoints(), k)
        out.append((-value / (N * N), err / (N * N)))
    return out


# ---------------------------------------------------------------------------
# properties: closed-form exterior + Brent against the full-domain path
# ---------------------------------------------------------------------------

@st.composite
def potentials(draw, max_points=6):
    kind = draw(st.sampled_from(["soft_sphere", "gaussian_truncated", "tabulated"]))
    height = draw(st.floats(1.0, 200.0))
    radius = draw(st.floats(0.2, 1.0))
    if kind == "soft_sphere":
        return RadialPotential.soft_sphere(height, radius)
    if kind == "gaussian_truncated":
        width = draw(st.floats(0.1, 1.0))
        return RadialPotential.gaussian_truncated(height, width, radius)
    n = draw(st.integers(2, max_points))
    first = draw(st.floats(0.1, 1.0))  # keeps the potential well away from zero
    rest = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1))
    values = height * np.array([first, *rest])
    return RadialPotential.tabulated(np.linspace(0.0, radius, n), values)


@settings(max_examples=25, deadline=None)
@given(potential=potentials(), r_factor=st.floats(2.0, 20.0))
def test_scattering_length_matches_full_domain(potential, r_factor):
    r_max = r_factor * potential.support_radius
    a = solve_scattering(potential, r_max=r_max, tol=1e-10).a
    # the reference runs at tol 1e-12: at tol 1e-10 DOP853 misses the
    # 30-digit length of a weak Gaussian by 1.3e-9 relative (see
    # test_weak_gaussian_length_matches_30_digit_solution)
    ref = ref_scattering_length(potential, r_max, 1e-12)
    assert a == pytest.approx(ref, rel=1e-9, abs=1e-13)


@settings(max_examples=10, deadline=None)
@given(potential=potentials(), R=st.floats(2.0, 10.0), N=st.integers(10, 60))
def test_eigenvalue_and_eta_match_full_domain(potential, R, N):
    ours = solve_neumann(potential, R=R, tol=1e-12)
    lam, dense = ref_solve_neumann(potential, R, 1e-12)
    assert ours.lam == pytest.approx(lam, rel=1e-9)

    shells = shell_table(6)[2]
    eta = eta_coefficients(ours, N, shells)
    by_shell = dict(zip(shells.tolist(), eta))
    # the exact exterior against Simpson over the whole ball, both on this
    # ball solution: within the quadrature estimate, plus the roundoff of
    # w = r - u itself (eps r pointwise, up to eps R^2 / 2 integrated),
    # which dominates when a weak potential leaves u close to r
    same_ball = ref_eta(ours.dense, potential, R, N, shells)
    for p_sq, (value, err) in zip(sorted(by_shell), same_ball):
        roundoff = FOUR_PI * N / math.sqrt(p_sq) * EPS * R * R / 2.0 / (N * N)
        assert abs(by_shell[p_sq] - value) <= err + roundoff + 1e-12 * abs(value)
    # end to end: the full-domain solution also carries the DOP853 error of
    # the exterior, up to 5e-12 relative in eta at tol 1e-12 (measured
    # against the 40-digit soft-sphere solution)
    reference = ref_eta(dense, potential, R, N, shells)
    for p_sq, (value, err) in zip(sorted(by_shell), reference):
        assert abs(by_shell[p_sq] - value) <= err + 1e-10 * abs(value)


# ---------------------------------------------------------------------------
# one flat node set against the per-piece Boole rules
# ---------------------------------------------------------------------------

# (c_r, c_u, times_v) of the three ball transforms: w = r - u, u and V u
PROFILES = ((1.0, -1.0, False), (0.0, 1.0, False), (0.0, 1.0, True))


def ball_profile(neumann, c_r, c_u, times_v):
    def profile(r):
        g = c_r * r + c_u * neumann.dense.u(r)
        return g * neumann.potential(r) if times_v else g

    return profile


def rounding_bound(abs_sum, r_end, exterior, k):
    """The rounding term of the estimate, 4 pi A (_ROUNDING min(1/k, R) +
    eps/2 R), A = ``abs_sum`` (sum |w G| over the nodes) plus
    int_b^R |G| dr, R the last radius: r_end, or the exterior's end."""
    R = r_end
    if exterior is not None:
        abs_sum += exterior.abs_integral
        R = exterior.ends[1]
    return FOUR_PI * abs_sum * (_ROUNDING * R / np.maximum(1.0, k * R) + 0.5 * EPS * R)


def boole_pieces(neumann, c_r, c_u, times_v):
    """The per-piece Boole rules of a ball transform, as the package sizes them."""
    potential = neumann.potential
    return ref_pieces(ball_profile(neumann, c_r, c_u, times_v), potential.support_radius,
                      potential.breakpoints(), _POINTS_PER_UNIT, boole_rule,
                      neumann.dense._starts)


@settings(max_examples=15, deadline=None)
@given(potential=potentials(max_points=50), R=st.floats(2.0, 10.0),
       k_share=st.floats(0.0, 1.0))
def test_flat_nodes_match_the_per_piece_rules(potential, R, k_share):
    # the package concatenates the pieces' Boole nodes and weights,
    # multiplies each rule's weights by G once and sums each rule in one
    # dot; the reference sums w (G s) piece by piece.  Nodes, weights and
    # samples are the same, so only the order of the products and of the
    # sum differs: each order is within gamma_{n+1} S of the exact sum of
    # n products w G s, two roundings per product and n - 1 additions
    # (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    # section 3.1), S = sum |w G|, and each of the final additions and
    # products rounds by at most eps of its terms.  The estimate is the
    # fine-minus-coarse difference plus the rounding term.
    neumann = solve_neumann(potential, R=R, tol=1e-10)
    b, breaks = potential.support_radius, potential.breakpoints()
    for c_r, c_u, times_v in PROFILES:
        ours = _radial_transform(potential, c_r, c_u, neumann, times_v=times_v)
        profile = ball_profile(neumann, c_r, c_u, times_v)
        pieces = boole_pieces(neumann, c_r, c_u, times_v)
        n = sum(len(r) for r, _, _, _ in pieces)
        gamma = (n + 1) * EPS / (1.0 - (n + 1) * EPS)
        fine_sum = sum(float(np.abs(w * g).sum()) for _, w, g, _ in pieces)
        coarse_sum = sum(float(np.abs(wc * g[::2]).sum()) for _, _, g, wc in pieces)
        exterior = ours._exterior

        h = max(r[1] - r[0] for r, _, _, _ in pieces)
        k = 1e-3 / b * (0.5 / h / (1e-3 / b)) ** k_share
        (value,), (estimate,) = ours(np.array([k]))
        ref_value, ref_estimate = ref_transform(profile, b, breaks, k, _POINTS_PER_UNIT,
                                                boole_rule, neumann.dense._starts)
        ext = 0.0 if exterior is None else exterior.sine(np.array([k]))[0]
        scale = FOUR_PI / k
        value_tol = scale * (2.0 * gamma * fine_sum + 6.0 * EPS * (fine_sum + abs(ext)))
        assert abs(value - (ref_value + scale * ext)) <= value_tol
        estimate_tol = scale * (2.0 * gamma + 4.0 * EPS) * (fine_sum + coarse_sum)
        rounding = rounding_bound(fine_sum, pieces[-1][0][-1], exterior, k)
        assert abs(estimate - (ref_estimate + rounding)) <= estimate_tol

        powers = [1, 3, 5, 7]
        for q, moment in zip(powers, ours.moments(powers)):
            ref = math.fsum(float(w @ (g * r**q)) for r, w, g, _ in pieces)
            ext = 0.0 if exterior is None else exterior.moment(q)
            moment_sum = sum(float(np.abs(w * g * r**q).sum()) for r, w, g, _ in pieces)
            tol = 2.0 * gamma * moment_sum + 3.0 * EPS * (moment_sum + abs(ext))
            assert abs(moment - (ref + ext)) <= tol


def series_truncation(pieces, k):
    """The first term the transform's moment series leaves out, from the
    |G|-moment; 0 where k r_end > 1 and the sines are summed directly."""
    r_end = pieces[-1][0][-1]
    if k * r_end > 1.0:
        return 0.0
    q = 2 * SERIES_TERMS + 1
    abs_moment = math.fsum(float(np.abs(w * g * r**q).sum()) for r, w, g, _ in pieces)
    return FOUR_PI * k ** (q - 1) * abs_moment / math.factorial(q)


# the shrunk example of a failure: two of its transforms have h =
# 2.501043180933027e-4, where (0.6 / h) * h rounds above 0.6
@example(potential=RadialPotential.soft_sphere(1.0, 0.5002086361865683), R=2.0, shares=[0.0])
@settings(max_examples=15, deadline=None)
@given(potential=potentials(max_points=50), R=st.floats(2.0, 10.0),
       shares=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_column_call_matches_the_per_piece_reference(potential, R, shares):
    # one column of wave numbers, through the moment series up to
    # k r_end = 1 and the sines beyond, against the direct per-piece
    # Boole sums of ref_transform at each k; the tolerances are those of
    # test_flat_nodes_match_the_per_piece_rules, plus the series' truncation
    # bound.  k = 0 has no reference sum; test_zero_wave_number_is_the_first_moment
    # covers it.
    neumann = solve_neumann(potential, R=R, tol=1e-10)
    b, breaks = potential.support_radius, potential.breakpoints()
    for c_r, c_u, times_v in PROFILES:
        ours = _radial_transform(potential, c_r, c_u, neumann, times_v=times_v)
        profile = ball_profile(neumann, c_r, c_u, times_v)
        pieces = boole_pieces(neumann, c_r, c_u, times_v)
        n = sum(len(r) for r, _, _, _ in pieces)
        gamma = (n + 1) * EPS / (1.0 - (n + 1) * EPS)
        fine_sum = sum(float(np.abs(w * g).sum()) for _, w, g, _ in pieces)
        coarse_sum = sum(float(np.abs(wc * g[::2]).sum()) for _, _, g, wc in pieces)
        exterior = ours._exterior

        # from k b = 1e-3, below which ref_transform takes its own series,
        # to the resolution limit k_max = 0.6 / h that the guard reads, with
        # the threshold k b = 1 on both sides and 0 in front; the powers are
        # clipped at k_max, which a power of 1 can round past
        low, high = 1e-3 / b, ours.k_max
        k = np.array([0.0, np.nextafter(1.0 / b, 0.0), 1.0 / b, np.nextafter(1.0 / b, 2.0 / b),
                      high, *(min(high, low * (high / low) ** share) for share in shares)])
        values, estimates = ours(k)
        for ki, value, estimate in zip(k[1:].tolist(), values[1:], estimates[1:]):
            ref_value, ref_estimate = ref_transform(profile, b, breaks, ki, _POINTS_PER_UNIT,
                                                    boole_rule, neumann.dense._starts)
            ext = 0.0 if exterior is None else exterior.sine(np.array([ki]))[0]
            scale = FOUR_PI / ki
            trunc = series_truncation(pieces, ki)
            value_tol = scale * (2.0 * gamma * fine_sum + 6.0 * EPS * (fine_sum + abs(ext)))
            assert abs(value - (ref_value + scale * ext)) <= value_tol + trunc
            estimate_tol = scale * (2.0 * gamma + 4.0 * EPS) * (fine_sum + coarse_sum)
            rounding = rounding_bound(fine_sum, pieces[-1][0][-1], exterior, ki)
            assert abs(estimate - (ref_estimate + rounding)) <= estimate_tol + trunc
        # each entry is evaluated on its own: a wave number's value does not
        # depend on the rest of the column
        for ki, value, estimate in zip(k, values, estimates):
            (one_value,), (one_estimate,) = ours(np.array([ki]))
            assert (one_value, one_estimate) == (value, estimate)


# ---------------------------------------------------------------------------
# the two-density Simpson transform as the reference for Boole's rule
# ---------------------------------------------------------------------------

class SimpsonTransform:
    """The transform before Boole's rule: composite Simpson rules on the
    pieces, n intervals each (at least 64, a multiple of 4), and the
    half-resolution Simpson rule on every second node for the estimate,
    which has no rounding term.  Summed as the package sums them: the
    moment series where k r_end <= 1, the sines beyond."""

    def __init__(self, profile, cuts, points_per_unit, exterior=None):
        lo, hi = cuts[:-1], cuts[1:]
        n = np.maximum(64, ((hi - lo) * points_per_unit).astype(int))
        n += (-n) % 4
        self._r, self._w, local = _simpson_nodes(lo, hi, n)
        self._coarse = np.flatnonzero(local % 2 == 0)
        self._wc = _simpson_nodes(lo, hi, n // 2)[1]
        self._g = _sample(profile, self._r)
        self._gc = self._g[self._coarse]
        self.h = float(np.diff(self._r).max())
        self.k_max = 0.6 / self.h
        self._exterior = exterior

    def _series_terms(self):
        r_coarse = self._r[self._coarse]
        fine, coarse = self._g * self._r, self._gc * r_coarse
        terms = np.empty((2, SERIES_TERMS))
        for j in range(SERIES_TERMS):
            scale = (-1) ** j / math.factorial(2 * j + 1)
            terms[:, j] = scale * (self._w @ fine), scale * (self._wc @ coarse)
            fine *= self._r * self._r
            coarse *= r_coarse * r_coarse
        left_out = float(self._w @ np.abs(fine)) / math.factorial(2 * SERIES_TERMS + 1)
        return terms, left_out

    def __call__(self, k):
        rules = np.empty((len(k), 2))
        left_out = np.zeros(len(k))
        series = k * self._r[-1] <= 1.0
        if series.any():
            terms, bound = self._series_terms()
            k_sq = k[series] * k[series]
            both = np.zeros((2, len(k_sq)))
            for coefficient in terms.T[::-1]:
                both = both * k_sq + coefficient[:, None]
            rules[series] = FOUR_PI * both.T
            left_out[series] = FOUR_PI * k_sq**SERIES_TERMS * bound
        direct = np.flatnonzero(~series)
        for i in direct:
            s = np.sin(k[i] * self._r)
            rules[i] = self._w @ (self._g * s), self._wc @ (self._gc * s[self._coarse])
        rules[direct] *= (FOUR_PI / k[direct])[:, None]
        values = rules[:, 0]
        if self._exterior is not None:
            values = values + FOUR_PI * np.divide(
                self._exterior.sine(k), k, where=k > 0.0,
                out=np.full(len(k), self._exterior.moment(1)),
            )
        return values, np.abs(rules[:, 0] - rules[:, 1]) + left_out


def simpson_transform(neumann, c_r, c_u, times_v):
    """The ball transform of ``_radial_transform`` by the Simpson reference:
    40,000 intervals per unit length for profiles carrying V, 4,000 for
    the others."""
    exterior = None if times_v else _Exterior(neumann, c_r, c_u)
    return SimpsonTransform(ball_profile(neumann, c_r, c_u, times_v),
                            _pieces(neumann.potential)[0], 40000.0 if times_v else 4000.0,
                            exterior)


@settings(max_examples=15, deadline=None)
@given(potential=potentials(max_points=50), R=st.floats(2.0, 10.0),
       shares=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_boole_transform_matches_the_two_density_simpson_reference(potential, R, shares):
    # a column through the moment series (k b <= 1) and the sines beyond,
    # up to the resolution both transforms share: the two differ by no more
    # than the Boole bound and the Simpson estimate together.  The Simpson
    # estimate has no rounding term, and its rule rounds over up to 10x
    # more nodes, so it gets the package's term with its own sum |w G|.
    neumann = solve_neumann(potential, R=R, tol=1e-10)
    b = potential.support_radius
    for c_r, c_u, times_v in PROFILES:
        ours = _radial_transform(potential, c_r, c_u, neumann, times_v=times_v)
        ref = simpson_transform(neumann, c_r, c_u, times_v)
        low, high = 1e-3 / b, min(ours.k_max, ref.k_max)
        k = np.array([0.0, low, np.nextafter(1.0 / b, 0.0), 1.0 / b,
                      np.nextafter(1.0 / b, 2.0 / b), high,
                      *(min(high, low * (high / low) ** share) for share in shares)])
        values, bounds = ours(k)
        ref_values, ref_estimates = ref(k)
        ref_rounding = rounding_bound(float(np.abs(ref._w * ref._g).sum()), ref._r[-1],
                                      ref._exterior, k)
        assert np.all(np.abs(values - ref_values) <= bounds + ref_estimates + ref_rounding)


@pytest.fixture(scope="module")
def default_ball():
    """The ball of the default configuration: soft sphere (100, 0.5),
    R = N ell = 100 * 0.495, tol 1e-10."""
    return solve_neumann(SOFT, R=100 * 0.495, tol=1e-10)


@pytest.mark.parametrize("cutoff", [100, 10_000])
@pytest.mark.parametrize("c_r, c_u, times_v", PROFILES)
def test_estimate_bounds_the_error_at_the_default_config(default_ball, cutoff, c_r, c_u,
                                                         times_v):
    # the wave numbers |p| / N of the shells up to the cutoff (every tenth
    # and the last at 10^4), and 0, against the same profile and exterior
    # at 8x the node density, whose quadrature error is 8^6 times smaller
    N = 100
    k = np.sqrt(shell_table(cutoff)[2]) / N
    k = np.concatenate(([0.0], k[::10] if cutoff > 100 else k, k[-1:]))
    ours = _radial_transform(SOFT, c_r, c_u, default_ball, times_v=times_v)
    fine = _RadialTransform(ball_profile(default_ball, c_r, c_u, times_v), _pieces(SOFT)[0],
                            8.0 * _POINTS_PER_UNIT, ours._exterior, default_ball.dense._starts)
    values, bounds = ours(k)
    error = np.abs(values - fine(k)[0])
    assert np.all(error <= bounds)
    if (c_r, c_u) == (1.0, -1.0):  # eta's transform, to 1e-14 of its value
        assert np.all(error <= 1e-14 * np.abs(values))


def test_estimate_bounds_the_error_across_magnus_steps():
    # a ball solution is smooth within each Magnus step, not across one.
    # On this table (256 steps over 3 pieces) rules with step boundaries
    # inside their panels miss (V f)_hat at k b = 1.83 by 2.3e-14 with the
    # fine and coarse rule bit-equal, twice the bound; with every step
    # boundary on a panel boundary the error is 0.17 of the bound
    potential = RadialPotential.tabulated(
        np.linspace(0.0, 0.4319801996235513, 4),
        [41.28120814993625, 103.12728451304226, 69.03059765357796, 50.903364530209885],
    )
    neumann = solve_neumann(potential, R=2.8225662642360634, tol=1e-10)
    k = np.linspace(0.0, 4.0, 81) / potential.support_radius
    ours = _radial_transform(potential, 0.0, 1.0, neumann, times_v=True)
    fine = _RadialTransform(ball_profile(neumann, 0.0, 1.0, True), _pieces(potential)[0],
                            8.0 * _POINTS_PER_UNIT, None, neumann.dense._starts)
    values, bounds = ours(k)
    assert np.all(np.abs(values - fine(k)[0]) <= bounds)


def assert_build_is_the_per_piece_rules(build, rule, cuts, n):
    r, w, local = build(cuts[:-1], cuts[1:], n)
    rules = [rule(a, b, k) for a, b, k in zip(cuts[:-1].tolist(), cuts[1:].tolist(), n.tolist())]
    assert r.tobytes() == np.concatenate([x for x, _ in rules]).tobytes()
    assert w.tobytes() == np.concatenate([x for _, x in rules]).tobytes()
    assert np.array_equal(local, np.concatenate([np.arange(k + 1) for k in n.tolist()]))


@settings(max_examples=200, deadline=None)
@given(start=st.floats(0.0, 5.0), widths=st.lists(st.floats(1e-9, 2.0), min_size=1, max_size=8),
       data=st.data())
def test_simpson_build_is_the_per_piece_rules_bit_for_bit(start, widths, data):
    cuts = start + np.concatenate(([0.0], np.cumsum(widths)))
    assume(np.all(np.diff(cuts) > 0.0))
    halves = data.draw(st.lists(st.integers(1, 400), min_size=len(widths), max_size=len(widths)))
    assert_build_is_the_per_piece_rules(_simpson_nodes, simpson_rule, cuts, 2 * np.array(halves))


@settings(max_examples=100, deadline=None)
@given(start=st.floats(0.0, 5.0), widths=st.lists(st.floats(1e-9, 2.0), min_size=1, max_size=8),
       data=st.data())
def test_boole_build_is_the_per_piece_rules_bit_for_bit(start, widths, data):
    cuts = start + np.concatenate(([0.0], np.cumsum(widths)))
    assume(np.all(np.diff(cuts) > 0.0))
    quarters = data.draw(st.lists(st.integers(1, 200), min_size=len(widths),
                                  max_size=len(widths)))
    assert_build_is_the_per_piece_rules(_boole_nodes, boole_rule, cuts, 4 * np.array(quarters))


def ref_energy_functional(sol):
    """The energy integral piece by piece: one Simpson rule, u and u' and a
    one-sided V per breakpoint piece of [0, r_max]."""
    segs = [0.0, *sol.potential.breakpoints(), sol.r_max]
    pieces = []
    for lo, hi in zip(segs[:-1], segs[1:]):
        n = max(512, 2 * int(64 * (hi - lo) / max(sol.potential.support_radius, 1e-6)))
        r, w = simpson_rule(lo, hi, n)
        u = sol.dense.u(r)
        up = sol.dense.u_prime(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            defect = up - u / r
        defect[r == 0.0] = 0.0
        integrand = defect * defect + 0.5 * segment_potential(sol.potential, lo, hi)(r) * u * u
        pieces.append(float(w @ integrand))
    return math.fsum(pieces) + sol.a * sol.a / sol.r_max


@settings(max_examples=15, deadline=None)
@given(potential=potentials(max_points=200), r_factor=st.floats(2.0, 20.0))
def test_energy_functional_is_the_per_piece_loop_bit_for_bit(potential, r_factor):
    # same nodes, weights, samples and per-piece dots, summed by fsum
    sol = solve_scattering(potential, r_max=r_factor * potential.support_radius)
    assert energy_functional(sol) == ref_energy_functional(sol)


# the 2,001-point tabulated soft sphere: 2,000 pieces, each short
TABLE = RadialPotential.tabulated(np.linspace(0.0, 0.5, 2001), np.full(2001, 100.0))


def sampled_sizes(potential, points_per_unit):
    """Sizes of the profile evaluations of a transform over the potential's pieces."""
    sizes = []

    def profile(r):
        sizes.append(len(r))
        return np.sin(r) * r

    transform = _RadialTransform(profile, _pieces(potential)[0], points_per_unit)
    # sampling is pointwise: the slices join to one evaluation on every node
    assert transform._g.tobytes() == (np.sin(transform._r) * transform._r).tobytes()
    assert sum(sizes) == len(transform._r)
    return sizes


@pytest.mark.parametrize("points_per_unit", [4000.0, 40000.0])
def test_transform_samples_in_bounded_groups(points_per_unit):
    sizes = sampled_sizes(TABLE, points_per_unit)
    assert max(sizes) <= _GROUP < sum(sizes)


def test_transform_samples_a_long_piece_in_bounded_slices():
    # a radius-5 soft sphere is one piece of 200,001 nodes at 40,000 per unit
    sizes = sampled_sizes(RadialPotential.soft_sphere(100.0, 5.0), 40000.0)
    assert max(sizes) <= _GROUP and sum(sizes) == 200_001


def energy_sample_sizes(potential, r_max):
    """Sizes of the potential evaluations of ``energy_functional``, which
    must equal the per-piece loop."""
    sizes = []

    class Recording(RadialPotential):
        def __call__(self, r):
            sizes.append(np.size(r))
            return super().__call__(r)

    recording = Recording(kind=potential.kind, support_radius=potential.support_radius,
                          params=potential.params, grid=potential.grid,
                          values=potential.values)
    sol = solve_scattering(recording, r_max=r_max)
    sizes.clear()
    value = energy_functional(sol)
    recorded = list(sizes)
    assert value == ref_energy_functional(sol)
    return recorded


def test_energy_functional_samples_in_bounded_groups():
    sizes = energy_sample_sizes(TABLE, 10.0)
    assert max(sizes) <= _GROUP < sum(sizes)


def test_energy_functional_samples_a_long_piece_in_bounded_slices():
    # at r_max = 1,000 b the exterior piece alone has 127,873 nodes
    sizes = energy_sample_sizes(SOFT, 1000.0 * SOFT.support_radius)
    assert max(sizes) <= _GROUP < 127_873 < sum(sizes)


@settings(max_examples=20, deadline=None)
@given(potential=potentials(max_points=50), lam_share=st.floats(0.0, 1.0))
def test_state_at_the_step_ends_is_the_propagated_state(potential, lam_share):
    dense = _integrate_radial(potential, lam_share * 0.5 * potential.max_value, 1e-10)
    assert dense.state(dense._starts).T.tobytes() == dense._states.tobytes()


# ---------------------------------------------------------------------------
# the Magnus propagation against DOP853 and closed forms
# ---------------------------------------------------------------------------

# DOP853's dense output at tol 1e-13 is off a 25-digit solution by up to
# 6.9e-12 of the amplitude between its steps (weak Gaussian, v0 = width = 1)
REF_ERROR = 1e-11


def error_against(dense, exact, r):
    """Largest error of (u, u') on the ascending radii r, relative to the
    largest |u|, |u'| of ``exact`` (rows u, u') reached so far."""
    ours = np.array([dense.u(r), dense.u_prime(r)])
    amplitude = np.maximum.accumulate(np.abs(exact).max(axis=0))
    return float((np.abs(ours - exact).max(axis=0) / amplitude).max())


def soft_sphere_state(q, r):
    """(u, u') of u'' = q u, u(0) = 0, u'(0) = 1, to 30 digits."""
    with mpmath.workdps(30):
        q = mpmath.mpf(q)
        k = mpmath.sqrt(abs(q))
        rows = []
        for x in map(mpmath.mpf, r):
            if q > 0:
                rows.append((mpmath.sinh(k * x) / k, mpmath.cosh(k * x)))
            elif q < 0:
                rows.append((mpmath.sin(k * x) / k, mpmath.cos(k * x)))
            else:
                rows.append((x, mpmath.mpf(1)))
        return np.array(rows, dtype=float).T


@settings(max_examples=20, deadline=None)
@given(potential=potentials(max_points=200), lam_share=st.floats(0.0, 1.0))
def test_propagation_matches_dop853_within_its_estimate(potential, lam_share):
    # lambda up to max(V)/2 covers growing and oscillating stretches
    lam = lam_share * 0.5 * potential.max_value
    b = potential.support_radius
    dense = _integrate_radial(potential, lam, 1e-10)
    ref = ref_integrate_radial(potential, 2.0 * b, lam, 1e-13)
    r = np.linspace(0.0, b, 401)
    exact = np.array([ref.u(r), ref.u_prime(r)])
    assert error_against(dense, exact, r) <= dense.error_estimate + REF_ERROR
    # the closed-form exterior carries the state at b on: over s <= b it
    # grows an error of (u, u') by at most 1 + s + lambda s, and so the
    # amplitude the reference's error is relative to
    outside = np.linspace(b, 2.0 * b, 51)
    growth = 1.0 + b * (1.0 + lam)
    bound = (dense.error_estimate + 2.0 * REF_ERROR) * np.abs(exact).max() * growth
    for ours, theirs in ((dense.u, ref.u), (dense.u_prime, ref.u_prime)):
        assert np.max(np.abs(ours(outside) - theirs(outside))) <= bound


@pytest.mark.parametrize("v0, radius", [(100.0, 0.5), (200.0, 1.0), (1.0, 0.2)])
@pytest.mark.parametrize("lam_share", [0.0, 0.5, 1.0, 2.0])
def test_estimate_bounds_the_soft_sphere_error(v0, radius, lam_share):
    # one exact step across a constant potential leaves only roundoff
    lam = lam_share * 0.5 * v0
    dense = _integrate_radial(RadialPotential.soft_sphere(v0, radius), lam, 1e-10)
    r = np.linspace(0.0, radius, 501)
    exact = soft_sphere_state(0.5 * v0 - lam, r)
    assert error_against(dense, exact, r) <= dense.error_estimate < 1e-13


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize("v0, width, lam", [
    (1.0, 1.0, 0.0), (200.0, 1.0, 0.0), (50.0, 0.3, 25.0), (200.0, 0.1, 30.0),
])
def test_estimate_bounds_the_gaussian_error(v0, width, lam, tol):
    potential = RadialPotential.gaussian_truncated(v0, width, 0.8)
    dense = _integrate_radial(potential, lam, tol)
    ref = ref_integrate_radial(potential, 1.6, lam, 1e-13)
    r = np.linspace(0.0, 0.8, 401)
    error = error_against(dense, np.array([ref.u(r), ref.u_prime(r)]), r)
    assert error <= dense.error_estimate + REF_ERROR
    # and it is an estimate, not just a bound
    assert dense.error_estimate <= 100.0 * max(error, REF_ERROR)


def test_weak_gaussian_length_matches_30_digit_solution():
    # a = 0.018 against a support of 0.5: the step test relative to the
    # departure from free motion keeps a to 8e-11 here, where DOP853 at
    # tol 1e-10 misses it by 1.3e-9
    potential = RadialPotential.gaussian_truncated(1.0, 1.0, 0.5)
    with mpmath.workdps(30):
        exact = mpmath.odefun(lambda r, y: [y[1], mpmath.exp(-r * r / 2) / 2 * y[0]], 0, [0, 1])
        u, du = exact(mpmath.mpf("0.5"))
        a = float(mpmath.mpf("0.5") - u / du)
    assert solve_scattering(potential, r_max=1.0, tol=1e-10).a == pytest.approx(a, rel=1e-9)


def test_tabulated_constant_potential_is_crossed_exactly():
    # every piece of a constant table is one exact step, so the estimate is
    # the roundoff allowance, 64 eps per step: 2.8e-12 for 200 steps
    grid = np.linspace(0.0, 0.5, 201)
    table = _integrate_radial(RadialPotential.tabulated(grid, np.full_like(grid, 100.0)),
                              0.0, 1e-10)
    r = np.linspace(0.0, 0.5, 301)
    exact = soft_sphere_state(50.0, r)
    assert error_against(table, exact, r) <= table.error_estimate < 1e-11


# ---------------------------------------------------------------------------
# explicit cases of the exterior transform
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def soft_ball():
    return solve_neumann(SOFT, R=10.0, tol=1e-12)


def simpson_over_ball(neumann, c_r, c_u, k):
    """The same profile transformed by Simpson over the whole ball."""
    return ref_transform(lambda r: c_r * r + c_u * neumann.dense.u(r), neumann.R,
                         neumann.potential.breakpoints(), k)


@pytest.mark.parametrize("c_r, c_u", [(1.0, -1.0), (0.0, 1.0)])
@pytest.mark.parametrize("ratio", [1.0, 1.0 + 1e-9, 1.0 - 1e-7, 1.3, 0.75])
def test_transform_near_resonance_matches_simpson(soft_ball, c_r, c_u, ratio):
    # at k = kappa = sqrt(lambda) the closed form's denominator vanishes;
    # there k (R - b) < 2 pi, and the exterior is taken by Gauss-Legendre
    k = ratio * math.sqrt(soft_ball.lam)
    assert k * soft_ball.R > 1e-3
    ours = _radial_transform(SOFT, c_r, c_u, soft_ball)(np.array([k]))[0][0]
    ref, err = simpson_over_ball(soft_ball, c_r, c_u, k)
    assert abs(ours - ref) <= err + 1e-12 * abs(ref)


@pytest.mark.parametrize("c_r, c_u", [(1.0, -1.0), (0.0, 1.0)])
@pytest.mark.parametrize("k", [0.8, 2.0, 7.5])
def test_closed_form_exterior_matches_simpson(soft_ball, c_r, c_u, k):
    assert k * (soft_ball.R - SOFT.support_radius) > 2.0 * math.pi
    ours = _radial_transform(SOFT, c_r, c_u, soft_ball)(np.array([k]))[0][0]
    ref, err = simpson_over_ball(soft_ball, c_r, c_u, k)
    assert abs(ours - ref) <= err + 1e-12 * abs(ref)


@pytest.mark.parametrize("c_r, c_u", [(1.0, -1.0), (0.0, 1.0)])
def test_gauss_and_closed_form_exterior_agree(soft_ball, c_r, c_u):
    # on either side of k (R - b) = 2 pi, where the exterior switches from
    # Gauss-Legendre to the closed form, both rules give the same integral
    exterior = _radial_transform(SOFT, c_r, c_u, soft_ball)._exterior
    span = exterior.ends[1] - exterior.ends[0]
    for kL in (3.0, 2.0 * math.pi, 9.0):
        k = kL / span
        gauss = float(exterior._weighted_g @ np.sin(k * exterior._nodes))
        kappa_sq = exterior.kappa**2
        closed = exterior._boundary(k, exterior._g, exterior._dg) + c_u * kappa_sq * (
            exterior._boundary(k, exterior._u, exterior._du) / (k * k - kappa_sq)
        )
        assert closed / (k * k) == pytest.approx(gauss, rel=1e-12, abs=1e-14)


def test_affine_exterior_at_zero_energy():
    # lambda = 0: the continuation is u(b) + u'(b) (r - b), and the
    # scattering profile matches the full-domain integration
    sol = solve_scattering(SOFT, r_max=10.0, tol=1e-10)
    dense = ref_integrate_radial(SOFT, 10.0, 0.0, 1e-10)
    r = np.linspace(0.5, 10.0, 50)
    c = float(dense.u_prime(10.0)[0])
    assert np.allclose(sol.dense.u(r), dense.u(r) / c, rtol=1e-12, atol=1e-13)
    b = SOFT.support_radius
    affine = sol.dense.u(b) + sol.dense.u_prime(b) * (r - b)
    assert np.allclose(sol.dense.u(r), affine, rtol=1e-14, atol=0.0)
    assert np.all(sol.dense.u_prime(r) == sol.dense.u_prime(b))


def test_free_ball_transforms_are_closed_form():
    # zero potential: lambda = 0, u = r on the ball, so w = 0 and f = 1
    neumann = solve_neumann(zero_potential(0.5), R=6.0)
    R = neumann.R
    for k in (0.05, 0.7, 3.0):
        w_hat = _radial_transform(neumann.potential, 1.0, -1.0, neumann)(np.array([k]))[0][0]
        f_hat = _radial_transform(neumann.potential, 0.0, 1.0, neumann)(np.array([k]))[0][0]
        exact = FOUR_PI / k * (math.sin(k * R) / k**2 - R * math.cos(k * R) / k)
        assert abs(w_hat) < 1e-12
        assert f_hat == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("c_r, c_u", [(1.0, -1.0), (0.0, 1.0)])
def test_small_k_series_branch_matches_simpson(soft_ball, c_r, c_u):
    transform = _radial_transform(SOFT, c_r, c_u, soft_ball)
    for kR in (1e-6, 5e-4, 0.999e-3):
        k = kR / soft_ball.R
        (ours,), (trunc,) = transform(np.array([k]))
        ref, _ = simpson_over_ball(soft_ball, c_r, c_u, k)
        assert abs(ours - ref) <= trunc + 1e-12 * abs(ref)


def test_transform_is_continuous_across_the_series_threshold(soft_ball):
    transform = _radial_transform(SOFT, 1.0, -1.0, soft_ball)
    below = transform(np.array([0.9999e-3 / soft_ball.R]))[0][0]
    above = transform(np.array([1.0001e-3 / soft_ball.R]))[0][0]
    assert above == pytest.approx(below, rel=1e-9)


def test_transform_is_continuous_at_k_r_end_one(soft_ball):
    # at k r_end = 1 the Simpson part switches from the moment series to the
    # sines; on either side of it the two agree to roundoff (up to 8.7e-15
    # relative for the f profile, whose exterior part moves with k by as
    # much; the property test holds each side to the reference sums)
    for c_r, c_u, times_v in ((1.0, -1.0, False), (0.0, 1.0, False), (0.0, 1.0, True)):
        transform = _radial_transform(SOFT, c_r, c_u, soft_ball, times_v=times_v)
        at = 1.0 / SOFT.support_radius
        values, _ = transform(np.array([np.nextafter(at, 0.0), at, np.nextafter(at, 2.0 * at)]))
        assert np.all(np.abs(values - values[1]) <= 1e-12 * abs(values[1]))


def test_zero_wave_number_is_the_first_moment(soft_ball):
    # the series at k = 0 is its first term, 4 pi M_1, with no division by
    # k; the exterior adds 4 pi times its own first moment.  The estimate is
    # the fine-minus-coarse difference of the first moments plus the
    # rounding term at min(1/k, R) = R
    vf = _radial_transform(SOFT, 0.0, 1.0, soft_ball, times_v=True)
    (value,), (estimate,) = vf(np.array([0.0]))
    assert value == FOUR_PI * vf.moments([1])[0]
    R = vf._r[-1]
    rounding = FOUR_PI * vf._abs_sum * (_ROUNDING * R + 0.5 * EPS * R)
    assert estimate == abs(value - FOUR_PI * vf._sums(vf._r)[1]) + rounding
    for c_r, c_u in ((1.0, -1.0), (0.0, 1.0)):
        transform = _radial_transform(SOFT, c_r, c_u, soft_ball)
        (value,), _ = transform(np.array([0.0]))
        interior = transform._sums(transform._r)[0]
        outside = transform._exterior.moment(1)
        expected = FOUR_PI * interior + FOUR_PI * outside
        assert value == expected
        assert value == pytest.approx(FOUR_PI * transform.moments([1])[0], rel=4.0 * EPS)


def test_resolution_guard_refuses_the_whole_column(soft_ball):
    # one wave number beyond resolution refuses the column before any
    # branch runs (the lazily built series moments stay unbuilt), naming the
    # first offending k
    transform = _radial_transform(SOFT, 1.0, -1.0, soft_ball)
    first, second = 0.61 / transform.h, 0.7 / transform.h
    column = np.array([0.0, 0.5, first, 1.0 / SOFT.support_radius, second, 3.0])
    with pytest.raises(QuadratureError, match=f"wave number {first:g} beyond"):
        transform(column)
    assert "_series_terms" not in vars(transform)


def test_tau_refusal_names_the_first_offending_shell(soft_ball, monkeypatch):
    # a transform whose value drives 1 + 2 (Vf)_hat/|p|^2 to 0 or below on
    # the third and fifth shells: tau refuses the column, naming the third
    N = 100
    p_sq = shell_table(6)[2]
    bad = np.isin(np.arange(len(p_sq)), [2, 4])

    def broken(*args, **kwargs):
        return lambda k: (np.where(bad, -(N * k) ** 2, 1.0), np.zeros_like(k))

    monkeypatch.setattr(scattering, "_radial_transform", broken)
    with pytest.raises(KernelError, match=f"at p_sq = {p_sq[2]:g};"):
        tau_coefficients(np.zeros(len(p_sq)), soft_ball, N, p_sq)


def test_resolution_guard_still_applies(soft_ball):
    transform = _radial_transform(SOFT, 1.0, -1.0, soft_ball)
    with pytest.raises(QuadratureError):
        transform(np.array([0.61 / transform.h]))


# ---------------------------------------------------------------------------
# every BracketFailure path of solve_neumann
# ---------------------------------------------------------------------------

def test_attractive_potential_fails_at_lambda_zero():
    # direct construction skips the sign check; V < 0 makes g(0) < 0
    attractive = RadialPotential(kind="soft_sphere", support_radius=0.5, params=(-100.0, 0.5))
    with pytest.raises(BracketFailure, match="not positive at lambda = 0"):
        solve_neumann(attractive, R=10.0)


def test_upper_end_below_the_eigenvalue_is_reported(monkeypatch):
    lam = solve_neumann(SOFT, R=10.0).lam
    monkeypatch.setattr(scattering, "_rayleigh_bound", lambda potential, R: 0.25 * lam)
    with pytest.raises(BracketFailure, match="no eigenvalue below"):
        solve_neumann(SOFT, R=10.0)


def test_bisection_without_a_node_free_upper_end_is_reported(monkeypatch):
    monkeypatch.setattr(scattering, "_interior_nodes",
                        lambda dense, R, lam: 1 if lam > 0.0 else 0)
    with pytest.raises(BracketFailure, match="no node-free upper end"):
        solve_neumann(SOFT, R=10.0)


def test_unclosed_shooting_residual_is_reported(monkeypatch):
    monkeypatch.setattr(scattering, "brentq", lambda f, lo, hi, **kwargs: lo)
    with pytest.raises(BracketFailure, match="did not close"):
        solve_neumann(SOFT, R=10.0)


def test_excited_state_root_is_rejected(monkeypatch):
    # find a bracket of the first excited state (one node, g changes sign)
    R = 10.0
    grid = np.linspace(0.05, 0.5, 46)
    shots = []
    for lam in grid:
        dense = _integrate_radial(SOFT, lam, 1e-10)
        shots.append((_boundary_defect(dense, R), _interior_nodes(dense, R, lam)))
    bracket = next(
        (grid[i], grid[i + 1])
        for i in range(len(grid) - 1)
        if shots[i][1] == shots[i + 1][1] == 1 and shots[i][0] * shots[i + 1][0] < 0.0
    )
    real_brentq = scattering.brentq
    monkeypatch.setattr(scattering, "brentq",
                        lambda f, lo, hi, **kwargs: real_brentq(f, *bracket, **kwargs))
    with pytest.raises(BracketFailure, match="excited state"):
        solve_neumann(SOFT, R=R)


# ---------------------------------------------------------------------------
# Brent's method against scipy.optimize.brentq
# ---------------------------------------------------------------------------

TINY = np.finfo(float).tiny


@st.composite
def monotone_functions(draw):
    """A monotone f with one sign change at ``root``, as (f, root)."""
    root = draw(st.floats(-10.0, 10.0))
    scale = draw(st.floats(1e-6, 1e6)) * draw(st.sampled_from([1.0, -1.0]))
    shape = draw(st.sampled_from(["linear", "cubic", "tanh", "exp", "knots"]))
    if shape == "knots":
        # piecewise linear through (root, 0), flat beyond its outer knots
        below = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=4))
        above = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=4))
        rises = draw(st.lists(st.floats(1e-3, 10.0), min_size=len(below) + len(above),
                              max_size=len(below) + len(above)))
        knots = np.concatenate((-np.cumsum(below)[::-1], [0.0], np.cumsum(above)))
        values = np.concatenate(([0.0], np.cumsum(rises)))
        values -= values[len(below)]

        def g(t):
            return float(np.interp(t, knots, values))
    else:
        g = {
            "linear": lambda t: t,
            "cubic": lambda t: t**3 + 0.1 * t,
            "tanh": math.tanh,
            "exp": math.expm1,
        }[shape]
        if shape == "exp":
            assume(root < 5.0)  # expm1 of the bracket stays finite

    def f(x):
        return scale * g(x - root)

    return f, root


@settings(max_examples=300, deadline=None)
@given(problem=monotone_functions(), below=st.floats(1e-9, 20.0), above=st.floats(1e-9, 20.0),
       swap=st.booleans(),
       tols=st.sampled_from([(2e-12, 4.0 * EPS), (TINY, 4.0 * EPS), (1e-6, 1e-3)]))
def test_brent_port_is_bit_identical_to_scipy(problem, below, above, swap, tols):
    # (TINY, 4 eps) is the call solve_neumann makes
    f, root = problem
    a, b = root - below, root + above
    if swap:
        a, b = b, a
    xtol, rtol = tols
    try:
        theirs = scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            scattering.brentq(f, a, b, xtol=xtol, rtol=rtol)
        return
    ours = scattering.brentq(f, a, b, xtol=xtol, rtol=rtol)
    assert np.float64(ours).tobytes() == np.float64(theirs).tobytes()


@settings(max_examples=50, deadline=None)
@given(problem=monotone_functions(), start=st.floats(1e-6, 10.0), width=st.floats(1e-6, 10.0),
       side=st.sampled_from([1.0, -1.0]))
def test_brent_port_refuses_a_bracket_without_a_sign_change(problem, start, width, side):
    f, root = problem
    a, b = root + side * start, root + side * (start + width)
    assume(f(a) != 0.0 and f(b) != 0.0)
    with pytest.raises(ValueError):
        scipy.optimize.brentq(f, a, b)
    with pytest.raises(ValueError, match="different signs"):
        scattering.brentq(f, a, b)
