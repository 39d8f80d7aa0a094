"""Pendulum trajectories in four equivalent representations, and the
canonical map between phase coordinates (B, beta) and hyperbolic normal
coordinates (p, q).

Representations: closed form through the real-modulus Jacobi functions, the
arctan-resummed nome series, normal coordinates with exponential flow, and a
plain adaptive reference integrator of the bare equations of motion: DOP853,
run on Python floats by the private module _dop853 step for step, and bit for
bit, as scipy's solve_ivp(method="DOP853") runs it on numpy, so the package
loads neither.  Angles are tracked unwrapped, so beta grows without bound
along librations.

Convention: the expanding direction of the flow is q (and the contracting
one p), matching the substitutions q' = e sqrt(x'), p' = sqrt(x') / e with
e = exp(g0 t) at the orbit's rate g0(x').  With B(0) > 0 the angle then
increases from 0, as Hamilton's equations demand.  The chart functions take
these as plain floats: the nome and the time, or the scaled pair (p', q').
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import NamedTuple

from . import _dop853, elliptic, normal_form
from .elliptic import Modulus

__all__ = [
    "PendulumParams",
    "PhaseState",
    "NormalCoords",
    "TrajectoryRecord",
    "FactorizationReport",
    "wrap_angle",
    "hamiltonian",
    "energy_from_nome",
    "closed_form_state",
    "series_state",
    "hyperbolic_state",
    "nome_from_action",
    "action_from_nome",
    "canonical_from_normal",
    "normal_flow",
    "jacobian_det",
    "normal_energy",
    "normal_energy_slope",
    "factorization_check",
    "stable_scaled_state",
    "stable_state",
    "rk_oracle",
    "trajectory",
]

# truncation order of the float a^2(x') series, and the nome range
# |x'| <= _NOME_BOUND the action is inverted on
_ORDER = 48
_NOME_BOUND = 0.5

_TERM_RTOL = 1e-15
_TAIL_EPS = 1e-16
_MAX_TERMS = 10_000
_POLE_EPS = 1e-9
# the least normal float; the logs of the largest float and of it
_FLOAT_MIN = sys.float_info.min
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_MIN = math.log(_FLOAT_MIN)
TRAJECTORY_METHODS = ("closed", "series", "normal", "rk")
_MAX_SAMPLES = 1_000_000    # samples in a trajectory; the CLI's peak is near 500 bytes each, 0.5 GB
# builds a NamedTuple from the tuple of its fields, without the Python-level
# __new__ the class generates: _new(PhaseState, (B, beta))
_new = tuple.__new__


@dataclass(frozen=True)
class PendulumParams:
    """Inertia moment I (energy*time^2) and gravity rate g (1/time)."""

    I: float
    g: float

    def __post_init__(self):
        if not self.I > 0:
            raise ValueError(f"inertia moment must be positive, got {self.I}")
        if not self.g > 0:
            raise ValueError(f"gravity rate must be positive, got {self.g}")
        # the action scale 32 I g and the energy scale 32 I g^2, which every
        # chart multiplies or divides by
        if not all(0.0 < s < math.inf for s in (self.action_scale, self.action_scale * self.g)):
            raise ValueError(
                f"32*I*g and 32*I*g^2 must be finite and positive, got I = {self.I}, g = {self.g}"
            )
        # I g^2 as _energies and _rk_batch form it (g**2 raises OverflowError from 2^512 on)
        if not (self.g < 2.0**512 and 0.0 < self.I * self.g**2 < math.inf):
            raise ValueError(f"I*g^2 must be finite and positive, got I = {self.I}, g = {self.g}")
        # the cached charts look their params up once or twice per sample
        object.__setattr__(self, "_hash", hash((self.I, self.g)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def action_scale(self) -> float:
        """32*I*g: the phase-area factor at the separatrix."""
        return 32.0 * self.I * self.g


class PhaseState(NamedTuple):
    """Canonical pair: momentum B = I*dbeta/dt and unwrapped angle beta."""

    B: float
    beta: float


class NormalCoords(NamedTuple):
    """Canonical normal coordinates (p, q), square roots of action; x = p*q."""

    p: float
    q: float

    @property
    def x(self) -> float:
        return self.p * self.q


class TrajectoryRecord(NamedTuple):
    t: float
    B: float
    beta: float
    energy: float
    method: str


class FactorizationReport(NamedTuple):
    energy_factored: float
    energy_direct: float
    rel_diff: float


def wrap_angle(beta: float) -> float:
    """The unwrapped angle reduced to (-pi, pi]."""
    if not math.isfinite(beta):
        raise ValueError(f"angle must be finite, got {beta}")
    wrapped = math.remainder(beta, 2.0 * math.pi)       # exact, in [-pi, pi]
    return math.pi if wrapped == -math.pi else wrapped


def hamiltonian(state: PhaseState, par: PendulumParams) -> float:
    """H = B^2/(2I) - I g^2 (1 - cos beta); zero at the unstable point,
    positive for librations, -2 I g^2 at the bottom.  The kinetic term is
    formed as B (B/(2I)), which stays finite where B^2 would overflow while H
    does not, and at I = 1 is B^2/2 correctly rounded.
    """
    return _energies((state,), par)[0]


def _energies(states: Iterable[PhaseState], par: PendulumParams) -> list[float]:
    """hamiltonian of each state, with 2I and I g^2 formed once."""
    two_i = 2.0 * par.I
    igg = par.I * par.g**2
    return [B * (B / two_i) - igg * (1.0 - math.cos(beta)) for B, beta in states]


def energy_from_nome(x_prime: float, par: PendulumParams) -> float:
    """Energy 32 I g^2 x' prod((1+x'^2n)/(1-x'^(2n-1)))^8 of the signed nome,
    |x'| < 1: librations for x' >= 0, oscillations below the separatrix for x' < 0.
    A libration energy past the largest float (above x' = 0.9862 at
    I = g = 1) raises an OverflowError that names the nome."""
    if not -1.0 < x_prime < 1.0:
        raise ValueError(f"nome must satisfy |x'| < 1, got {x_prime}")
    prod = 1.0
    odd = x_prime                        # x'^(2n-1)
    for _ in range(_MAX_TERMS):
        prod *= ((1.0 + odd * x_prime) / (1.0 - odd)) ** 8
        odd *= x_prime * x_prime
        if abs(odd) < _TAIL_EPS:
            break
    else:
        if prod < math.inf:
            raise RuntimeError(f"energy product did not converge at x' = {x_prime}")
    energy = par.action_scale * par.g * x_prime * prod
    if energy == math.inf:
        raise OverflowError(f"energy exceeds the float range at x' = {x_prime}")
    return energy


def closed_form_state(t: float, mod: Modulus, par: PendulumParams) -> PhaseState:
    """Libration state at time t from the closed elliptic-function solution,
    for the orbit that crosses beta = 0 at t = 0 with B(0) = 2 I g / k > 0.

    Everything is evaluated through real-modulus Jacobi functions of
    argument v = t g / h'; the angle stays unwrapped.
    """
    if not mod.h > 0.0:
        raise ValueError("closed form needs energy above the separatrix (h > 0)")
    v = t * par.g / mod.h_prime
    am, sn, cn, dn = elliptic.jacobi_elliptic(v, mod.h_prime)
    B = 2.0 * par.I * par.g / (mod.k * dn)
    # bounded angle between the unit vectors (cn, sn) and (cn, h*sn)/dn;
    # adding it to the unwrapped amplitude keeps beta continuous
    correction = math.atan2((mod.h - 1.0) * sn * cn, cn * cn + mod.h * sn * sn)
    return _new(PhaseState, (B, 2.0 * (am + correction)))


def series_state(x_prime: float, t: float, par: PendulumParams) -> PhaseState:
    """State at time t from the arctan-resummed nome series, on the orbit of
    nome x' that crosses beta = 0 at t = 0 with B(0) > 0.

    B = 4 I g0 sum_m [ za/(1+za^2) + zb/(1+zb^2) ],
    beta = 4 sum_m [ atan(za) - atan(zb) ],
    with za = x'^m e sqrt(x'), zb = x'^m sqrt(x') / e and e = exp(g0 t) at the
    rate g0 = g0(x'); converges for any t as long as 0 <= x' < 1.  Where
    exp(g0 |t|) would overflow, whole periods come off t first.
    """
    if not 0.0 <= x_prime < 1.0:
        raise ValueError(f"series representation needs 0 <= x' < 1, got {x_prime}")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if x_prime == 0.0:
        return _new(PhaseState, (0.0, 0.0))
    g0 = elliptic.g0_from_nome(x_prime, par.g)
    if abs(g0 * t) > _LOG_FLOAT_MAX:
        return _whole_periods(lambda s: series_state(x_prime, s, par), x_prime, g0, t)
    e = math.exp(g0 * t)
    root = math.sqrt(x_prime)
    s_sum, r_sum = _arctan_sums((1.0 / e) * root, e * root, x_prime)
    return _new(PhaseState, (4.0 * par.I * g0 * r_sum, 4.0 * s_sum))


def _whole_periods(chart: Callable, x_prime: float, g0: float, t: float) -> PhaseState:
    """The state chart(t) of an exponential chart of nome x' and rate g0, from
    chart(s) at s = t less whole periods T = ln(1/x') / g0, |s| <= T / 2: over
    a period e -> e / x' shifts the sums by a term and beta gains 2 pi."""
    period = -math.log(x_prime) / g0
    reduced = math.remainder(t, period)
    state = chart(reduced)
    turns = round((t - reduced) / period)
    return _new(PhaseState, (state.B, state.beta + 2.0 * math.pi * turns))


def hyperbolic_state(p: float, q: float, par: PendulumParams) -> PhaseState:
    """State from the scaled hyperbolic coordinates (p', q'), for |p'q'| < 1.

    Same sums as series_state but written in (p', q'); valid for either sign
    of the coordinates.  The rate g0 is taken at the conserved product p'q'.
    """
    x = p * q
    if not abs(x) < 1.0:
        raise ValueError(f"the hyperbolic sums require |p'q'| < 1, got {x}")
    g0 = elliptic.g0_from_nome(x, par.g)
    s_sum, r_sum = _arctan_sums(p, q, x)
    return _new(PhaseState, (4.0 * par.I * g0 * r_sum, 4.0 * s_sum))


def _arctan_sums(p: float, q: float, x: float) -> tuple[float, float]:
    """The angle and momentum sums of the hyperbolic chart,
    sum_m [atan(x^m q) - atan(x^m p)] and sum_m [z/(1+z^2)] over z = x^m p
    and z = x^m q, for the nome x = p q.  The nome comes as its own argument
    so that series_state sums in x' itself, not in the rounded product.
    """
    s_sum = 0.0
    r_sum = 0.0
    xm = 1.0
    for _ in range(_MAX_TERMS):
        zp = xm * p
        zq = xm * q
        s_sum += math.atan(zq) - math.atan(zp)
        r_sum += zp / (1.0 + zp * zp) + zq / (1.0 + zq * zq)
        xm *= x
        if abs(xm) * (abs(p) + abs(q)) < _TERM_RTOL * (1.0 + abs(s_sum) + abs(r_sum)):
            return s_sum, r_sum
    raise RuntimeError(f"nome series did not converge within the term cap at x' = {x}")


@functools.cache
def _rescale_sq_coeffs() -> tuple[tuple[float, float], ...]:
    """The normalized a^2(x') series truncated at _ORDER, in floats, as the
    pairs (c_n, (n+1) c_n) from the highest order down: the Horner terms of
    a^2 and of the slope of x' a^2."""
    coeffs = [float(c) for c in normal_form.rescale_sq_series(_ORDER).coeffs]
    return tuple((c, (n + 1) * c) for n, c in reversed(list(enumerate(coeffs))))


def _rescale_sq(y: float) -> tuple[float, float]:
    """The normalized a^2(y) of the truncated series and the slope of
    y a^2(y), by one Horner pass."""
    acc = 0.0
    slope = 0.0
    for c, dc in _rescale_sq_coeffs():
        slope = slope * y + dc
        acc = acc * y + c
    return acc, slope


@functools.cache
def _action_range() -> tuple[float, float]:
    """The normalized actions y a^2(y) at y = -_NOME_BOUND and _NOME_BOUND."""
    return tuple(y * _rescale_sq(y)[0] for y in (-_NOME_BOUND, _NOME_BOUND))


def nome_from_action(x: float, par: PendulumParams) -> float:
    """Invert the map x = x' a^2(x') for the nome on |x'| <= 0.5: Newton in
    the bracket [0, +-0.5], bisecting where it leaves it or cycles, to a step
    of 1e-14 on x'.  The polynomial inverted is exactly the one action_from_nome
    evaluates, x' times the truncated a^2 series.

    Results are cached on (x, par), so a map query that needs the nome for
    x', the phase state and the normal energy solves once.  The rounding of
    (p/e)(q e) moves a normal trajectory's action through 3-4 values, so the
    cache holds four: a 1001-sample orbit (h in [1e-8, 0.99]) solves 2-4
    times.  An error is not cached.
    """
    return _action_orbit(x, par)[0]


@functools.lru_cache(maxsize=4)
def _action_orbit(x: float, par: PendulumParams) -> tuple[float, float, float]:
    """The orbit of action x = p q from one bracketed solve: its nome x'
    (nome_from_action), the rescale a(x') = sqrt(32 I g a^2(x')), g0(x')."""
    if not math.isfinite(x):
        raise ValueError(f"action x = p q must be finite, got {x}")
    target = x / par.action_scale
    y = 0.0
    if target != 0.0:
        # y a^2(y) increases on [-_NOME_BOUND, _NOME_BOUND] (slope >= 6.5e-4, least at -0.454)
        low, high = _action_range()
        if not low <= target <= high:
            raise ValueError(f"action {x} is outside the invertible range (|x'| <= {_NOME_BOUND})")
        lo, hi = (0.0, _NOME_BOUND) if target > 0.0 else (-_NOME_BOUND, 0.0)
        # Newton inside [lo, hi], bisecting where a step leaves it or returns to the
        # iterate before last (y_back, NaN at first).  No cap is needed: each iterate
        # becomes lo or hi, a float bracket narrows finitely often, and while it stands
        # still the iterates sit on its ends: a repeat stops the loop, a 2-cycle bisects.
        y, y_back = min(max(target, lo), hi), math.nan
        while not abs(y - y_back) <= 1e-14:         # |y| <= 0.5: an absolute step
            a2, slope = _rescale_sq(y)
            val = y * a2 - target
            lo, hi = (lo, y) if val > 0.0 else (y, hi)
            y_next = y - val / slope
            if y_next == y_back or not lo <= y_next <= hi:
                y_next = 0.5 * (lo + hi)
            y_back, y = y, y_next
    return y, math.sqrt(par.action_scale * _rescale_sq(y)[0]), elliptic.g0_from_nome(y, par.g)


def action_from_nome(x_prime: float, par: PendulumParams) -> float:
    """The action x = x' a^2(x') of the nome x', from the truncated series,
    on the map's domain |x'| <= 0.5."""
    if not -_NOME_BOUND <= x_prime <= _NOME_BOUND:
        raise ValueError(f"nome must satisfy |x'| <= {_NOME_BOUND}, got {x_prime}")
    return par.action_scale * (x_prime * _rescale_sq(x_prime)[0])


def canonical_from_normal(n: NormalCoords, par: PendulumParams) -> PhaseState:
    """Phase state (B, beta) of normal coordinates (p, q): solve the nome
    from x = p*q, divide out the rescale a(x'), and sum the hyperbolic
    series.  The map has unit Jacobian determinant by construction.
    """
    _, a, _ = _action_orbit(n.x, par)
    return hyperbolic_state(n.p / a, n.q / a, par)


def normal_flow(n: NormalCoords, t: float, par: PendulumParams) -> NormalCoords:
    """Time-t flow in normal coordinates: q expands and p contracts at the
    energy-dependent rate g0(x'); the product p*q is invariant.  Where
    exp(g0 t) or a nonzero flowed coordinate leaves the normal float range
    (turns inf, or falls below sys.float_info.min) an OverflowError names t
    and g0.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    g0 = _action_orbit(n.x, par)[2]
    try:
        # exp overflows past g0 t = 709.78 and turns 0 below -745.13 (p / e
        # divides by 0); where g0 t itself overflows, e is inf and p / e is 0
        e = math.exp(g0 * t)
        p, q = n.p / e, n.q * e
        if (n.p and not _FLOAT_MIN <= abs(p) < math.inf) or (n.q and not _FLOAT_MIN <= abs(q) < math.inf):
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise OverflowError(f"the flow leaves the normal float range at t = {t}, g0 = {g0}") from None
    return _new(NormalCoords, (p, q))


def jacobian_det(n: NormalCoords, par: PendulumParams) -> float:
    """Central-difference Jacobian determinant d(B, beta)/d(p, q) of the
    canonical map at (p, q), with step 1e-5 sqrt(32 I g); the construction
    forces the value 1.
    """
    step = 1e-5 * math.sqrt(par.action_scale)

    def at(p: float, q: float) -> PhaseState:
        return canonical_from_normal(_new(NormalCoords, (p, q)), par)

    p_hi, p_lo = at(n.p + step, n.q), at(n.p - step, n.q)
    q_hi, q_lo = at(n.p, n.q + step), at(n.p, n.q - step)
    dB_dp = (p_hi.B - p_lo.B) / (2.0 * step)
    dB_dq = (q_hi.B - q_lo.B) / (2.0 * step)
    db_dp = (p_hi.beta - p_lo.beta) / (2.0 * step)
    db_dq = (q_hi.beta - q_lo.beta) / (2.0 * step)
    return dB_dp * db_dq - dB_dq * db_dp


def normal_energy(x: float, par: PendulumParams) -> float:
    """The normal-form energy at action x = p*q, evaluated through its
    definition: solve the nome from x, then take the product-formula energy.

    The Taylor series of this function around 0 (normal_energy_series) has a
    small convergence radius, about 0.066 * 32*I*g, set by the zero of the
    phase-area factor on the negative axis; the composed route works on the
    whole invertible domain.
    """
    return energy_from_nome(nome_from_action(x, par), par)


def normal_energy_slope(x_prime: float, par: PendulumParams) -> tuple[float, float]:
    """Central-difference slope, with step 1e-5 * 32 I g, of the normal-form
    energy at x = x' a^2(x'), paired with the rate g0(x') it must equal
    (canonical conjugacy).  Returns (slope, g0).
    """
    step = 1e-5 * par.action_scale
    x = action_from_nome(x_prime, par)
    slope = (normal_energy(x + step, par) - normal_energy(x - step, par)) / (2.0 * step)
    return slope, elliptic.g0_from_nome(x_prime, par.g)


def _lattice_sums(x_prime: float, z: float) -> tuple[float, float]:
    """The even and odd nome-power sums of the energy factorization:
    sum_l x'^(2l) / (1 + (x'^(2l) z)^2) and the same with odd powers."""
    even = 0.0
    odd = 0.0
    xp = 1.0
    for _ in range(_MAX_TERMS):
        even += xp / (1.0 + (xp * z) ** 2)
        xo = xp * x_prime
        odd += xo / (1.0 + (xo * z) ** 2)
        xp *= x_prime * x_prime
        if xp < _TAIL_EPS:
            break
    else:
        raise RuntimeError(f"factorization sums did not converge at x' = {x_prime}")
    return even, odd


def factorization_check(
    x_prime: float, gamma: float, par: PendulumParams
) -> FactorizationReport:
    """Evaluate the two-bracket product form of the libration energy at the
    phase point (gamma, 1/gamma) and compare it against the direct product
    formula; the result must be independent of gamma.
    """
    if not 0.0 < x_prime < 1.0:
        raise ValueError(f"factorization check needs 0 < x' < 1, got {x_prime}")
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    root = math.sqrt(x_prime)
    p = root / gamma
    q = root * gamma
    u_p, v_p = _lattice_sums(x_prime, p)
    u_q, v_q = _lattice_sums(x_prime, q)
    g0 = elliptic.g0_from_nome(x_prime, par.g)
    factored = 32.0 * par.I * g0 * g0 * (p * u_p + q * v_q) * (p * v_p + q * u_q)
    direct = energy_from_nome(x_prime, par)
    rel = abs(factored - direct) / abs(direct)
    return _new(FactorizationReport, (factored, direct, rel))


def stable_scaled_state(p: float, q: float, par: PendulumParams) -> PhaseState:
    """Stable-chart state from the scaled coordinates (p', q'), amplitude
    x_s' = p'^2 + q'^2 < 1: the hyperbolic chart at imaginary rate, which turns
    atan into atanh and keeps B = I dbeta/dt.  Its alternating sums run over
    the conjugate pairs of w = x_s'^m (p' + i q'), whose imaginary parts cancel,
    so each pair adds 2 Im atanh(w) and 2 Re w/(1 - w^2): only w is evaluated.
    The rate's product converges for x_s' below about 0.99586 (measured); past
    it, a RuntimeError names the nome.  From about 0.9966 (0.9972 on the p'
    axis) the sums, taken first, pass their term cap instead, naming x_s'.
    """
    xs = p * p + q * q
    if not xs < 1.0:
        raise ValueError(f"stable sums require p'^2 + q'^2 < 1, got {xs}")
    w0 = complex(p, q)
    s_sum = 0.0
    r_sum = 0.0
    rho_pow = 1.0
    sign = 1.0
    for _ in range(_MAX_TERMS):
        w = rho_pow * w0
        den = 1.0 - w * w
        # |1 - conj(w)^2| = |1 - w^2|, so one test covers the pair
        if abs(den) < _POLE_EPS:
            raise ValueError(f"stable sum too close to a pole (|1 - w^2| = {abs(den):.2e})")
        s_sum += sign * 2.0 * cmath.atanh(w).imag
        r_sum += sign * 2.0 * (w / den).real
        rho_pow *= xs
        sign = -sign
        if rho_pow * abs(w0) < _TERM_RTOL * (1.0 + abs(s_sum) + abs(r_sum)):
            break
    else:
        raise RuntimeError(f"stable sums did not converge within the term cap at x_s' = {xs}")
    g0s = elliptic.g0_from_nome(-xs, par.g)
    # 0.0 - ... keeps an angle of zero at +0.0
    return _new(PhaseState, (-4.0 * par.I * g0s * r_sum, 0.0 - 4.0 * s_sum))


def stable_state(x_s_prime: float, t: float, par: PendulumParams) -> PhaseState:
    """Small-oscillation state at time t for amplitude x_s': the scaled
    coordinates rotate at the rate g0_s, p' = sqrt(x_s') cos(g0_s t) and
    q' = sqrt(x_s') sin(g0_s t).  The params' rate g plays the stable g_s.
    Works for x_s' below about 0.99586, as stable_scaled_state.
    """
    if not 0.0 <= x_s_prime < 1.0:
        raise ValueError(f"amplitude must lie in [0, 1), got {x_s_prime}")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    g0s = elliptic.g0_from_nome(-x_s_prime, par.g)
    root = math.sqrt(x_s_prime)
    return stable_scaled_state(root * math.cos(g0s * t), root * math.sin(g0s * t), par)


def rk_oracle(
    state0: PhaseState, par: PendulumParams, t: float, tol: float = 1e-10
) -> PhaseState:
    """Reference endpoint at time t (either sign) from adaptive high-order
    integration of the bare equations of motion dbeta/dt = B/I,
    dB/dt = +I g^2 sin(beta): the last sample of _rk_batch on [0, t].

    The momentum equation carries a plus sign because the angle origin sits
    at the unstable equilibrium: the potential -I g^2 (1 - cos beta) falls
    away from beta = 0, so the momentum grows as the bob drops.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return _rk_batch(state0, par, [0.0, t], tol)[-1]


def _time_grid(t0: float, t1: float, dt: float) -> list[float]:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    span = (t1 - t0) / dt
    if not math.isfinite(span):
        raise ValueError(f"no finite sample count from t0 = {t0} to t1 = {t1} in steps dt = {dt}")
    # a t1 formed as t0 + n dt, and t1 - t0 in turn, round by up to 2.5 ulps
    # of the larger endpoint in all; allow for that (never for more than half
    # a step), so far from t = 0 the t1 sample is kept
    slack = min(4.0 * math.ulp(max(abs(t0), abs(t1))) / dt, 0.5)
    steps = int(math.floor(span + 1e-9 + slack))
    if steps >= _MAX_SAMPLES:
        raise ValueError(f"{steps + 1} samples exceed the cap of {_MAX_SAMPLES} (t0 = {t0}, t1 = {t1}, dt = {dt})")
    return [t0 + i * dt for i in range(steps + 1)]


def trajectory(
    method: str,
    mod: Modulus,
    par: PendulumParams,
    t0: float,
    t1: float,
    dt: float,
    tol: float = 1e-10,
) -> list[TrajectoryRecord]:
    """Sample the libration that crosses beta = 0 at t = 0 with B(0) > 0,
    on a uniform time grid, in the requested representation.
    """
    if method not in TRAJECTORY_METHODS:
        raise ValueError(f"unknown trajectory method {method!r}")
    times = _time_grid(t0, t1, dt)
    if method != "rk" and mod.h_prime == 1.0:
        raise ValueError(
            f"h = {mod.h} is too small for the {method} method: its complement h' rounds to 1, as "
            f"sqrt(1 - h^2) does for every h <= 2^-27 = 7.45e-09; the rk method (--method rk) answers there"
        )
    if method == "closed":
        states = [closed_form_state(t, mod, par) for t in times]
    elif method == "series":
        x_prime = elliptic.nome_from_h(mod)
        states = [series_state(x_prime, t, par) for t in times]
    elif method == "normal":
        x_prime = elliptic.nome_from_h(mod)
        if x_prime > _NOME_BOUND:
            raise ValueError(
                f"the normal chart needs the nome x' <= {_NOME_BOUND}, i.e. h <= "
                f"{elliptic.h_from_nome(_NOME_BOUND):.9f}; h = {mod.h} has the nome "
                f"{x_prime}: use the closed or series method"
            )
        a = math.sqrt(par.action_scale * _rescale_sq(x_prime)[0])
        start = _new(NormalCoords, (a * math.sqrt(x_prime), a * math.sqrt(x_prime)))
        # the nome and rate normal_flow takes; the flowed coordinates
        # start.p / e and start.q e stay normal floats while g0 |t| <= limit
        flow_nome, _, g0 = _action_orbit(start.x, par)
        limit = -_LOG_FLOAT_MIN - abs(math.log(start.p)) if start.p else math.inf

        def state(t: float) -> PhaseState:
            return canonical_from_normal(normal_flow(start, t, par), par)

        states = [state(t) if abs(g0 * t) <= limit else _whole_periods(state, flow_nome, g0, t)
                  for t in times]
    else:
        start = _new(PhaseState, (2.0 * par.I * par.g / mod.k, 0.0))
        states = _rk_batch(start, par, times, tol)
    return [_new(TrajectoryRecord, (t, B, beta, energy, method))
            for t, (B, beta), energy in zip(times, states, _energies(states, par))]


def _rk_batch(
    state0: PhaseState, par: PendulumParams, times: list[float], tol: float
) -> list[PhaseState]:
    """The states at the given times from DOP853 on dbeta/dt = B/I,
    dB/dt = I g^2 sin(beta), started at t = 0: a grid of nonnegative
    increasing times, or [0, t] with t of either sign for one endpoint.
    The equations are reversible, so a negative t is the forward solve from
    (-B0, beta0) to -t with B negated: scipy's backward endpoint, bit for bit."""
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError(f"tolerance must lie in [1e-13, 1e-6], got {tol}")
    if times[0] < 0.0:
        raise ValueError("reference trajectories start at t = 0; need t0 >= 0")
    # a NaN or infinite state makes the step size NaN, which no comparison
    # finds too small: the first step, never accepted, would be retried forever
    if not (math.isfinite(state0.B) and math.isfinite(state0.beta)):
        raise ValueError(f"the reference integration needs a finite start state, got {state0}")
    if times[-1] == 0.0:
        return [state0] * len(times)
    if times[-1] < 0.0:
        mirrored = _rk_batch(_new(PhaseState, (-state0.B, state0.beta)), par, [-t for t in times], tol)
        # 0.0 - B, not -B: an exact-zero endpoint keeps scipy's +0.0
        return [_new(PhaseState, (0.0 - B, beta)) for B, beta in mirrored]

    # built-in floats in, built-in floats out
    I, igg = float(par.I), float(par.I * par.g**2)

    def rhs(beta, B):
        return B / I, igg * math.sin(beta)

    ys = _dop853.dop853(rhs, [state0.beta, state0.B], times,
                        rtol=float(tol), atol=float(tol * max(1.0, par.I * par.g)))
    return [_new(PhaseState, (B, beta)) for beta, B in ys]
