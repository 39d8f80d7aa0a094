"""Pendulum trajectories in four equivalent representations, and the
canonical map between phase coordinates (B, beta) and hyperbolic normal
coordinates (p, q).

Representations: closed form through the real-modulus Jacobi functions, the
arctan-resummed nome series, normal coordinates with exponential flow, and a
plain adaptive reference integrator.  Angles are tracked unwrapped, so beta
grows without bound along librations.

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
from dataclasses import dataclass

from scipy.integrate import solve_ivp

from . import elliptic, normal_form
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
    "series_state_partial_sums",
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
# the largest |y| with exp(y) and 1 / exp(-|y|) finite
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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

    @property
    def action_scale(self) -> float:
        """32*I*g: the phase-area factor at the separatrix."""
        return 32.0 * self.I * self.g


@dataclass(frozen=True)
class PhaseState:
    """Canonical pair: momentum B = I*dbeta/dt and unwrapped angle beta."""

    B: float
    beta: float


@dataclass(frozen=True)
class NormalCoords:
    """Canonical normal coordinates (p, q), square roots of action; x = p*q."""

    p: float
    q: float

    @property
    def x(self) -> float:
        return self.p * self.q


@dataclass(frozen=True)
class TrajectoryRecord:
    t: float
    B: float
    beta: float
    energy: float
    method: str


@dataclass(frozen=True)
class FactorizationReport:
    energy_factored: float
    energy_direct: float
    rel_diff: float


def wrap_angle(beta: float) -> float:
    """The unwrapped angle reduced to (-pi, pi]."""
    wrapped = math.fmod(beta, 2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    elif wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def hamiltonian(state: PhaseState, par: PendulumParams) -> float:
    """H = B^2/(2I) - I g^2 (1 - cos beta); zero at the unstable point,
    positive for librations, -2 I g^2 at the bottom.
    """
    return state.B**2 / (2.0 * par.I) - par.I * par.g**2 * (1.0 - math.cos(state.beta))


def energy_from_nome(x_prime: float, par: PendulumParams) -> float:
    """Energy 32 I g^2 x' prod((1+x'^2n)/(1-x'^(2n-1)))^8 of the signed nome,
    |x'| < 1: librations for x' >= 0, oscillations below the separatrix for x' < 0."""
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
        raise RuntimeError("energy product did not converge")
    return par.action_scale * par.g * x_prime * prod


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
    return PhaseState(B=B, beta=2.0 * (am + correction))


def series_state(x_prime: float, t: float, par: PendulumParams) -> PhaseState:
    """State at time t from the arctan-resummed nome series, on the orbit of
    nome x' that crosses beta = 0 at t = 0 with B(0) > 0.

    B = 4 I g0 sum_m [ za/(1+za^2) + zb/(1+zb^2) ],
    beta = 4 sum_m [ atan(za) - atan(zb) ],
    with za = x'^m e sqrt(x'), zb = x'^m sqrt(x') / e and e = exp(g0 t) at the
    rate g0 = g0(x'); converges for any t as long as 0 <= x' < 1.

    e -> e / x' shifts the sums by a term: the period is T = ln(1/x') / g0,
    over which beta gains 2 pi, so where exp(g0 |t|) would overflow, t is
    first reduced by whole periods.
    """
    if not 0.0 <= x_prime < 1.0:
        raise ValueError(f"series representation needs 0 <= x' < 1, got {x_prime}")
    if x_prime == 0.0:
        return PhaseState(B=0.0, beta=0.0)
    g0 = elliptic.g0_from_nome(x_prime, par.g)
    if abs(g0 * t) > _LOG_FLOAT_MAX:
        period = -math.log(x_prime) / g0
        reduced = math.fmod(t, period)
        reduced -= period * round(reduced / period)
        state = series_state(x_prime, reduced, par)
        turns = round((t - reduced) / period)
        return PhaseState(B=state.B, beta=state.beta + 2.0 * math.pi * turns)
    e = math.exp(g0 * t)
    root = math.sqrt(x_prime)
    s_sum, r_sum = _arctan_sums((1.0 / e) * root, e * root, x_prime)
    return PhaseState(B=4.0 * par.I * g0 * r_sum, beta=4.0 * s_sum)


def series_state_partial_sums(x_prime: float, t: float, par: PendulumParams) -> PhaseState:
    """Direct partial sums (80 terms) of the alternating nome series, before
    the arctan resummation.  Converges only where exp(2 g0 |t|) x' < 1; kept
    as the cross-check companion of series_state.
    """
    if not 0.0 < x_prime < 1.0:
        raise ValueError(f"partial sums need 0 < x' < 1, got {x_prime}")
    g0 = elliptic.g0_from_nome(x_prime, par.g)
    gamma = math.exp(g0 * t)
    delta = 1.0 / gamma
    if gamma**2 * x_prime >= 1.0 or delta**2 * x_prime >= 1.0:
        raise ValueError(f"partial sums diverge unless exp(2 g0 |t|) x' < 1, got g0 t = {g0 * t}")
    root = math.sqrt(x_prime)
    r_sum = 0.0
    s_sum = 0.0
    for n in range(1, 81):
        sign = -1.0 if n % 2 else 1.0
        xpow = root * x_prime ** (n - 1)          # x'^(n - 1/2)
        gpow = gamma ** (2 * n - 1)
        dpow = delta ** (2 * n - 1)
        den = 1.0 - x_prime ** (2 * n - 1)
        r_sum += sign * xpow * (gpow + dpow) / den
        s_sum += sign * xpow / den * (gpow - dpow) / (2 * n - 1)
    return PhaseState(B=-4.0 * g0 * par.I * r_sum, beta=-4.0 * s_sum)


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
    return PhaseState(B=4.0 * par.I * g0 * r_sum, beta=4.0 * s_sum)


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
    raise RuntimeError("nome series did not converge within the term cap")


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


@functools.lru_cache(maxsize=2)
def nome_from_action(x: float, par: PendulumParams) -> float:
    """Invert the map x = x' a^2(x') for the nome on |x'| <= 0.5, by
    safeguarded Newton (absolute tolerance 1e-14 on x').  The polynomial
    inverted is exactly the one action_from_nome evaluates, x' times the
    truncated a^2 series.

    Results are cached on (x, par), so a map query that needs the nome for
    x', the phase state and the normal energy solves once.  The cache holds
    two entries: a normal trajectory alternates between the start action
    and the flowed one, which the rounding of (p/e)(q e) can move off it.
    An action that raises is not cached and raises again on every call.
    """
    if not math.isfinite(x):
        raise ValueError(f"action x = p q must be finite, got {x}")
    target = x / par.action_scale

    def f_and_slope(y: float) -> tuple[float, float]:
        a2, slope = _rescale_sq(y)
        return y * a2 - target, slope

    if target == 0.0:
        return 0.0
    # bracket the root: y a^2(y) is increasing on [-_NOME_BOUND, _NOME_BOUND],
    # its slope nowhere below 6.5e-4 (the least is near y = -0.454), so the
    # end of the range on the target's side and 0 bracket any root in range
    if target > 0.0:
        lo, hi = 0.0, min(target, _NOME_BOUND)
        outside = f_and_slope(hi)[0] < 0.0
    else:
        lo, hi = -_NOME_BOUND, 0.0
        outside = f_and_slope(lo)[0] > 0.0
    if outside:
        raise ValueError(f"action {x} is outside the invertible range (|x'| <= {_NOME_BOUND})")
    y = min(max(target, lo), hi)
    for _ in range(200):
        val, slope = f_and_slope(y)
        if val > 0.0:
            hi = y
        else:
            lo = y
        step = -val / slope if slope != 0.0 else math.nan
        y_new = y + step
        if not lo <= y_new <= hi:
            y_new = 0.5 * (lo + hi)
        if abs(y_new - y) <= 1e-14 * max(1.0, abs(y_new)):
            return y_new
        y = y_new
    raise RuntimeError("nome inversion did not converge")


def action_from_nome(x_prime: float, par: PendulumParams) -> float:
    """The action x = x' a^2(x') of the nome x', from the truncated series."""
    return par.action_scale * (x_prime * _rescale_sq(x_prime)[0])


def _rescale_factor(x_prime: float, par: PendulumParams) -> float:
    return math.sqrt(par.action_scale * _rescale_sq(x_prime)[0])


def canonical_from_normal(n: NormalCoords, par: PendulumParams) -> PhaseState:
    """Phase state (B, beta) of normal coordinates (p, q): solve the nome
    from x = p*q, divide out the rescale a(x'), and sum the hyperbolic
    series.  The map has unit Jacobian determinant by construction.
    """
    x_prime = nome_from_action(n.x, par)
    a = _rescale_factor(x_prime, par)
    return hyperbolic_state(n.p / a, n.q / a, par)


def normal_flow(n: NormalCoords, t: float, par: PendulumParams) -> NormalCoords:
    """Time-t flow in normal coordinates: q expands and p contracts at the
    energy-dependent rate g0(x'); the product p*q is invariant.
    """
    x_prime = nome_from_action(n.x, par)
    g0 = elliptic.g0_from_nome(x_prime, par.g)
    e = math.exp(g0 * t)
    return NormalCoords(p=n.p / e, q=n.q * e)


def jacobian_det(n: NormalCoords, par: PendulumParams) -> float:
    """Central-difference Jacobian determinant d(B, beta)/d(p, q) of the
    canonical map at (p, q), with step 1e-5 sqrt(32 I g); the construction
    forces the value 1.
    """
    step = 1e-5 * math.sqrt(par.action_scale)

    def at(p: float, q: float) -> PhaseState:
        return canonical_from_normal(NormalCoords(p, q), par)

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
        raise RuntimeError("factorization sums did not converge")
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
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    root = math.sqrt(x_prime)
    p = root / gamma
    q = root * gamma
    u_p, v_p = _lattice_sums(x_prime, p)
    u_q, v_q = _lattice_sums(x_prime, q)
    g0 = elliptic.g0_from_nome(x_prime, par.g)
    factored = (
        32.0 * par.I * g0 * g0 * (p * u_p + q * v_q) * (p * v_p + q * u_q)
    )
    direct = energy_from_nome(x_prime, par)
    rel = abs(factored - direct) / abs(direct)
    return FactorizationReport(energy_factored=factored, energy_direct=direct, rel_diff=rel)


def stable_scaled_state(p: float, q: float, par: PendulumParams) -> PhaseState:
    """Stable-chart state from the scaled coordinates (p', q'), amplitude
    x_s' = p'^2 + q'^2 < 1: the hyperbolic chart at imaginary rate, which turns
    atan into atanh and keeps B = I dbeta/dt.  Its alternating sums run over
    the conjugate pairs of w = x_s'^m (p' + i q'), whose imaginary parts cancel,
    so each pair adds 2 Im atanh(w) and 2 Re w/(1 - w^2): only w is evaluated.
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
        raise RuntimeError("stable sums did not converge within the term cap")
    g0s = elliptic.g0_from_nome(-xs, par.g)
    # 0.0 - ... keeps an angle of zero at +0.0
    return PhaseState(B=-4.0 * par.I * g0s * r_sum, beta=0.0 - 4.0 * s_sum)


def stable_state(x_s_prime: float, t: float, par: PendulumParams) -> PhaseState:
    """Small-oscillation state at time t for amplitude x_s': the scaled
    coordinates rotate at the rate g0_s, p' = sqrt(x_s') cos(g0_s t) and
    q' = sqrt(x_s') sin(g0_s t).  The params' rate g plays the stable g_s.
    """
    if not 0.0 <= x_s_prime < 1.0:
        raise ValueError(f"amplitude must lie in [0, 1), got {x_s_prime}")
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
    times = _time_grid(t0, t1, dt)
    if method == "closed":
        states = [closed_form_state(t, mod, par) for t in times]
    elif method == "series":
        x_prime = elliptic.nome_from_h(mod)
        states = [series_state(x_prime, t, par) for t in times]
    elif method == "normal":
        x_prime = elliptic.nome_from_h(mod)
        a = _rescale_factor(x_prime, par)
        start = NormalCoords(a * math.sqrt(x_prime), a * math.sqrt(x_prime))
        states = [canonical_from_normal(normal_flow(start, t, par), par) for t in times]
    elif method == "rk":
        start = PhaseState(B=2.0 * par.I * par.g / mod.k, beta=0.0)
        states = _rk_batch(start, par, times, tol)
    else:
        raise ValueError(f"unknown trajectory method {method!r}")
    return [
        TrajectoryRecord(t=t, B=s.B, beta=s.beta, energy=hamiltonian(s, par), method=method)
        for t, s in zip(times, states)
    ]


def _rk_batch(
    state0: PhaseState, par: PendulumParams, times: list[float], tol: float
) -> list[PhaseState]:
    """The states at the given times from DOP853 on dbeta/dt = B/I,
    dB/dt = I g^2 sin(beta), started at t = 0: a grid of nonnegative
    increasing times, or [0, t] with t of either sign for one endpoint."""
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError(f"tolerance must lie in [1e-13, 1e-6], got {tol}")
    if times[0] < 0.0:
        raise ValueError("reference trajectories start at t = 0; need t0 >= 0")
    if times[-1] == 0.0:
        return [state0] * len(times)

    def rhs(_t, y):
        return [y[1] / par.I, par.I * par.g**2 * math.sin(y[0])]

    sol = solve_ivp(
        rhs,
        (0.0, times[-1]),
        [state0.beta, state0.B],
        method="DOP853",
        rtol=tol,
        atol=tol * max(1.0, par.I * par.g),
        t_eval=times,
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return [PhaseState(B=B, beta=beta) for beta, B in sol.y.T]
