"""Every recorded digest, float-hex pin and CLI text of the tests, in one keyed store.

The recorded values live in pins.json next to this file.  This module owns
the producer of each key (the inputs a test checks and the text whose
SHA-256 it records) and the one outcome helper the producers share.  A test
calls check(key).

    python tests/pins.py           recompute every key and list those that
                                   differ from pins.json; rewrites nothing
    python tests/pins.py KEY...    recompute the named keys and rewrite only
                                   those (a shell pattern such as 'verify/*'
                                   names every key it matches)

A change that moves float output on purpose regenerates only the keys it
moves, and states the oracle error before and after (README, "Pinned
outputs").
"""

import contextlib
import fnmatch
import functools
import hashlib
import inspect
import io
import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from helpers import newton_nome  # noqa: E402
from pendnf import cli, dynamics as dyn, elliptic as el, normal_form as nf  # noqa: E402
from pendnf.dynamics import NormalCoords, PendulumParams, PhaseState  # noqa: E402
from pendnf.elliptic import Modulus  # noqa: E402
from pendnf.series import RationalSeries  # noqa: E402

STORE = Path(__file__).resolve().parent / "pins.json"
PRODUCERS = {}


def outcome(fn, *args) -> str:
    """What fn(*args) gives, as text: the repr of its result (exact for every
    float), or the type and message of the error it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def digest(lines, sep: str = "\n") -> str:
    """SHA-256 of the lines joined by sep."""
    return hashlib.sha256(sep.join(lines).encode()).hexdigest()


def check(key: str) -> None:
    """Assert that the producer of key reproduces the value recorded for it."""
    got, want = PRODUCERS[key](), _stored().get(key)
    if got != want:             # not an assert: it must hold under python -O too
        raise AssertionError(f"{key}: recorded {want!r}, computed {got!r}; if the change is meant, "
                             f"`python tests/pins.py {key}` records it")


@functools.cache
def _stored() -> dict:
    return json.loads(STORE.read_text())


def _pin(key, *args):
    """Register fn(*args) as the producer of key: the value is what fn
    returns, or the digest of the lines it yields."""
    def register(fn):
        lines = inspect.isgeneratorfunction(fn)
        PRODUCERS[key] = lambda: digest(fn(*args)) if lines else fn(*args)
        return fn
    return register


# ---------------------------------------------------------------------------
# inputs shared with the tests

PARAMS = {"unit": PendulumParams(I=1.0, g=1.0), "b": PendulumParams(I=0.37, g=2.3)}
SCAN_PARAMS = (PendulumParams(1.0, 1.0), PendulumParams(0.37, 2.3), PendulumParams(2.5, 0.7))
# (h, params, t0) of eight 1001-sample orbits
ORBITS = ((1e-8, "unit", 0.0), (1e-3, "b", 2.5), (0.05, "unit", 2.5), (0.3, "b", 0.0),
          (0.6, "unit", 0.0), (0.9, "b", 2.5), (0.97, "unit", 2.5), (0.99, "b", 0.0))

# the same orbits started far out, where the charts take whole periods off t
FAR_ORBITS = tuple((h, which, t0) for h, which, _ in ORBITS for t0 in (1e3, 1e5))
# params at which an orbit's momentum squared passes the largest float while
# its energy does not
SCALE_PARAMS = PendulumParams(I=1e300, g=1e-5)

# `verify --suite all` at (I, g) with one option -> key
VERIFY = {(I, g, option): f"verify/{I}/{g}" + (f"/{option[2:].replace(' ', '=')}" if option else "")
          for I, g in (("0.37", "2.3"), ("2.5", "0.7"), ("1e-3", "40"), ("123", "0.013"), ("3", "3"))
          for option in ("", "--tol 1e-9", "--order 30")}
# normal trajectories on [0, 10] in steps of 0.05: (h, params) -> key
NORMAL_TRAJECTORIES = {(h, which): f"normal_trajectory/{which}/{h!r}"
                       for h in (1e-6, 0.3, 0.9) for which in PARAMS}
# seed of 100 map points per params
MAP_SEEDS = {"unit": 60, "b": 61}


def agm_moduli(seed, count):
    """The edges, then seeded moduli: uniform, near 1 and down to 5e-324."""
    rng = random.Random(seed)
    ms = [0.0, 5e-324, 1e-300, 1e-16, 1e-15, 2e-15, 0.5, 1.0 - 2.0**-53]
    for i in range(count):
        ms.append((rng.random(), 1.0 - 10 ** rng.uniform(-16.0, 0.0),
                   10 ** rng.uniform(-323.0, 0.0))[i % 3])
    return [m for m in ms if 0.0 <= m < 1.0]


@functools.cache
def horner_cases():
    """Seeded rational series up to degree 39, each with a float, a Fraction
    and an int argument."""
    rng = random.Random(4242)
    cases = []
    for _ in range(5000):
        s = RationalSeries.from_coeffs(
            [Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)) for _ in range(rng.randint(1, 40))]
        )
        x = rng.choice((rng.uniform(-2.0, 2.0), 0.0, -0.0, rng.choice((1, -1)) * 10 ** rng.uniform(-300, 300)))
        cases.append((s, x, Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-5, 5)))
    return cases


# ---------------------------------------------------------------------------
# pins recorded in earlier tables, with their digest text unchanged


def _verify(I, g, option):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--suite", "all", "--I", I, "--g", g, *option.split()])
    if code != 0:
        raise AssertionError(f"verify --I {I} --g {g} {option} exited {code}")
    return digest([out.getvalue()])


def _records(recs):
    return [f"{r.t!r} {r.B!r} {r.beta!r} {r.energy!r}" for r in recs]


def _normal_trajectory(h, which):
    return digest(_records(dyn.trajectory("normal", Modulus.from_h(h), PARAMS[which], 0.0, 10.0, 0.05)))


def _map_points(par, seed, count):
    """Seeded normal coordinates over |x'| <= 0.5: uneven splits of the
    action, random signs, and one point in ten on an axis."""
    rng = random.Random(seed)
    for _ in range(count):
        x = dyn.action_from_nome(rng.uniform(-0.5, 0.5), par)
        if rng.random() < 0.1:
            root = math.sqrt(par.action_scale) * rng.uniform(-0.7, 0.7)
            yield NormalCoords(root, 0.0) if rng.random() < 0.5 else NormalCoords(0.0, root)
            continue
        p = math.copysign(math.sqrt(abs(x)) * rng.uniform(0.25, 4.0), rng.uniform(-1, 1))
        yield NormalCoords(p, x / p)


def _map(which):
    """The nome, the phase state with its energy, the normal energy and the
    Jacobian determinant at each map point, or the error each raises."""
    par = PARAMS[which]

    def phase(n):
        state = dyn.canonical_from_normal(n, par)
        return state, dyn.hamiltonian(state, par)

    return digest(" ".join((
        repr(n.p), repr(n.q),
        outcome(dyn.nome_from_action, n.x, par),
        outcome(phase, n),
        outcome(dyn.normal_energy, n.x, par),
        outcome(dyn.jacobian_det, n, par),
    )) for n in _map_points(par, MAP_SEEDS[which], 100))


def _orbits(method, orbits=ORBITS):
    return digest([line for h, which, t0 in orbits for line in _records(
        dyn.trajectory(method, Modulus.from_h(h), PARAMS[which], t0, t0 + 10.0, 0.01))])


def _orbit_scale(method):
    """One orbit of h = 0.3 through about two turns at SCALE_PARAMS."""
    return digest(_records(dyn.trajectory(method, Modulus.from_h(0.3), SCALE_PARAMS, 0.0, 1e6, 1e4)))


for _args, _key in VERIFY.items():
    _pin(_key, *_args)(_verify)
for _args, _key in NORMAL_TRAJECTORIES.items():
    _pin(_key, *_args)(_normal_trajectory)
for _which in MAP_SEEDS:
    _pin(f"map/{_which}", _which)(_map)
for _method in ("closed", "series", "normal", "rk"):
    _pin(f"orbits/{_method}", _method)(_orbits)
    _pin(f"orbits_scale/{_method}", _method)(_orbit_scale)
for _method in ("closed", "series", "normal"):
    _pin(f"orbits_far/{_method}", _method, FAR_ORBITS)(_orbits)


@_pin("rk_oracle/endpoints")
def _rk_endpoints():
    """Endpoints of seeded forward, backward and t = 0 solves, by float hex,
    as computed when the endpoint had its own integration path."""
    rng = random.Random(8501)
    ends = []
    for i in range(10):
        par = PendulumParams(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
        state = PhaseState(rng.uniform(-3.0, 3.0), rng.uniform(-3.5, 3.5))
        t = (0.0, rng.uniform(-15.0, 0.0), rng.uniform(0.0, 15.0))[i % 3]
        tol = 10.0 ** rng.uniform(-12.0, -8.0)
        end = dyn.rk_oracle(state, par, t, tol)
        ends.append(f"{end.B.hex()} {end.beta.hex()}")
    return ends


@_pin("rk/scan")
def _rk_scan():
    """States of 301 seeded reference solves, by float hex, as scipy's
    solve_ivp(method="DOP853") computed them: tol from 1e-13 to 1e-6, I in
    e^(+-3), g in e^(+-2) and h from 1e-8 to 0.99; grids from t = 0 of up to
    1001 samples, grids of up to 301 samples from an offset start, and
    endpoints of either sign from a seeded state."""
    rng = random.Random(2024)
    for case in range(301):
        tol = 10 ** rng.uniform(-13, -6)
        par = PendulumParams(math.exp(rng.uniform(-3, 3)), math.exp(rng.uniform(-2, 2)))
        mod = Modulus.from_h(10 ** rng.uniform(-8, math.log10(0.99)))
        if case % 3 == 2:
            state = PhaseState(rng.uniform(-3, 3) * par.I * par.g, rng.uniform(-4, 4))
            times = [0.0, rng.uniform(-10, 10) / par.g]
        else:
            state = PhaseState(2.0 * par.I * par.g / mod.k, 0.0)
            count = rng.randint(1, 1000 if case % 3 == 0 else 300)
            dt = rng.uniform(0.001, 0.05) / par.g
            t0 = 0.0 if case % 3 == 0 else rng.uniform(0, 5) / par.g
            times = dyn._time_grid(t0, t0 + count * dt, dt)
        yield " ".join(f"{s.B.hex()} {s.beta.hex()}" for s in dyn._rk_batch(state, par, times, tol))


@_pin("rk/extremes")
def _rk_extremes():
    """Outcomes of 140 seeded reference solves at the edges of the float
    range, by float hex, as the numpy port computed them: I from 4.9e-308
    to 1e300, g from 1e-150 to 1e70, h from 1e-300 to 0.999999 and tol from
    1e-13 to 1e-6; grids from t = 0, and endpoints of either sign from
    seeded, signed-zero and equilibrium starts. Each solve stops at 500 steps:
    at I near 1e-307 a subnormal momentum takes some 10^4."""
    with mock.patch.object(dyn._dop853, "MAX_STEPS", 500):
        yield from _rk_extreme_solves(random.Random(2810))


def _rk_extreme_solves(rng):
    for solve in range(140):
        par = _extreme_params(rng, solve)
        tol = 10 ** rng.uniform(-13, -6)
        t = rng.uniform(0.1, 3.0) / par.g
        if solve % 4 == 0:
            mod = Modulus.from_h(10 ** rng.uniform(-300, math.log10(0.999999)))
            state = PhaseState(2.0 * par.I * par.g / mod.k, 0.0)
            times = dyn._time_grid(0.0, t, t / rng.randint(1, 40))
        else:
            state = (PhaseState(rng.uniform(-3, 3) * par.I * par.g, rng.uniform(-4, 4)),
                     PhaseState(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0))),
                     PhaseState(rng.choice((0.0, -0.0, 5e-324, -5e-324)), rng.choice((math.pi, -math.pi))),
                     )[solve % 4 - 1]
            times = [0.0, rng.choice((t, -t))]
        yield outcome(lambda: " ".join(f"{s.B.hex()} {s.beta.hex()}" for s in dyn._rk_batch(state, par, times, tol)))


def _extreme_params(rng, solve):
    """I from 4.9e-308 to 1e300 and g from 1e-150 to 1e70, with 32 I g and
    32 I g^2 floats. Two seeded solves in eight sit at an edge: I = 4.9e-308,
    where the slopes I g^2 sin(beta) reach the subnormals, and I = 1e300,
    where they pass 2^997."""
    while True:
        if solve % 8 == 1:
            I, g = 4.9e-308, 10 ** rng.uniform(-8, 0)
        elif solve % 8 == 5:
            I, g = 1e300, 10 ** rng.uniform(0, 3)
        else:
            I, g = 10 ** rng.uniform(math.log10(4.9e-308), 300), 10 ** rng.uniform(-150, 70)
        with contextlib.suppress(ValueError):
            return PendulumParams(I, g)


K_E_GRID = [m for m in [i / 1000 for i in range(1000)] + [1 - 10.0**-k for k in range(4, 17)]
            + [10.0**-k for k in range(1, 300, 7)] if m < 1]


def _k_e_grid(name):
    return digest((getattr(el, name)(m).hex() for m in K_E_GRID), ",")


for _name in ("complete_k", "complete_e"):
    _pin(f"{_name}/grid", _name)(_k_e_grid)


def _exact(s, order):
    assert s.order == order, (s.order, order)
    return digest((str(c) for c in s.coeffs), ",")


# every exact table from the undecorated function, so the reversion and
# composition run at exactly this order
_pin("calU/200")(lambda: _exact(nf.normal_energy_series.__wrapped__(200), 200))
_pin("W/200")(lambda: _exact(nf.stable_bundle.__wrapped__(200).normal_energy, 200))


def _product(name, order):
    return _exact(getattr(nf, name).__wrapped__(order), order)


for _name in ("g0_series", "energy_series"):
    for _order in (240, 400):
        _pin(f"{_name}/{_order}", _name, _order)(_product)


# ---------------------------------------------------------------------------
# pins of outcomes over seeded inputs, each recorded while the function
# matched, bit for bit, the kernel it replaced (named in each docstring)


@_pin("hamiltonian/square_below_limit")
def _hamiltonian_square():
    """B (B/(2I)) - I g^2 (1 - cos beta) where B^2 is finite."""
    rng = random.Random(1515)
    limit = math.sqrt(sys.float_info.max)
    with np.errstate(over="ignore"):
        for _ in range(20_000):
            par = PendulumParams(10 ** rng.uniform(-100, 100), 10 ** rng.uniform(-50, 50))
            B = rng.choice((limit, math.nextafter(limit, 0.0), rng.uniform(-2.0, 2.0),
                            rng.choice((1, -1)) * 10 ** rng.uniform(-300, math.log10(limit))))
            for state in (PhaseState(B, rng.uniform(-20.0, 20.0)), PhaseState(np.float64(-B), 1.0)):
                yield outcome(lambda s: float(dyn.hamiltonian(s, par)), state)


@_pin("series_state/flow_factors")
def _series_state_flow_factors():
    """The series chart as each caller formed g0 and the flow factors
    exp(g0 t), exp(-g0 t) and passed them in; g0 t spans [-20, 20]."""
    rng = random.Random(9001)
    for i in range(5000):
        par = PendulumParams(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
        x = (0.0, rng.uniform(0.0, 1e-6), rng.uniform(0.0, 0.5), rng.uniform(0.5, 0.95))[i % 4]
        t = 0.0 if i % 7 == 0 else rng.uniform(-20.0, 20.0) / el.g0_from_nome(x, par.g)
        yield outcome(dyn.series_state, x, t, par)


@_pin("series_state/float_range")
def _series_state_float_range():
    """The same up to the largest |g0 t| with exp(g0 t) and 1/exp(-|g0 t|)
    finite, where no period is taken off."""
    bound = math.log(sys.float_info.max)
    par = PARAMS["unit"]
    for h in (0.3, 0.9):
        x = el.nome_from_h(Modulus.from_h(h))
        g0 = el.g0_from_nome(x, par.g)
        for gt in (700.0, -700.0, bound, -bound):
            t = gt / g0
            if abs(g0 * t) > bound:
                t = math.nextafter(t, 0.0)
            yield outcome(dyn.series_state, x, t, par)


@_pin("nome_from_action/negative_side")
def _negative_side():
    """Fresh solves, two thirds near the saturated negative end of the map:
    where Newton alone converges, the bits or the range error of the search
    that widened the bracket by 1.5 from the target; where it does not, the
    bisection step that breaks its 2-cycle leads to an answer inside the
    bracket [-_NOME_BOUND, 0]."""
    rng = random.Random(8401)
    stalled = 0
    for i in range(5000):
        par = SCAN_PARAMS[i % 3]
        x_prime = rng.uniform(-0.5, -0.25) if i % 3 else rng.uniform(-0.25, 0.0)
        x = dyn.action_from_nome(x_prime, par) * (1.0 + rng.uniform(-1e-3, 1e-3))
        line = outcome(lambda: dyn._action_orbit.__wrapped__(x, par)[0])
        if outcome(newton_nome, x, par) == "RuntimeError: nome inversion did not converge":
            stalled += 1
            y = float(line)
            assert -dyn._NOME_BOUND <= y <= 0.0, (x, y)
        yield line
    # the inputs reach the solves where Newton alone cycles
    assert stalled > 20, stalled


def _stable_scan_point(rng, i):
    kind = i % 8
    if kind == 0:
        r = math.sqrt(rng.uniform(0.0, 0.99))
        return rng.choice((r, -r, 0.0, -0.0)), rng.choice((0.0, -0.0))
    if kind == 1:
        r = math.sqrt(rng.uniform(0.0, 0.99))
        return rng.choice((0.0, -0.0)), rng.choice((r, -r))
    if kind == 2:
        r, a = 10 ** rng.uniform(-200, 0), rng.uniform(-math.pi, math.pi)
        return r * math.cos(a), r * math.sin(a)
    if kind == 3:
        # |1 - w^2| just below the pole threshold at w = +-1 (beyond it the
        # sums run to the term cap, as the boundary points below do)
        return rng.choice((1.0, -1.0)) * (1.0 - 10 ** rng.uniform(-13, -9.31)), rng.uniform(-1e-10, 1e-10)
    if kind == 4:
        return rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)
    r, a = math.sqrt(rng.uniform(0.0, 0.9)), rng.uniform(-math.pi, math.pi)
    return r * math.cos(a), r * math.sin(a)


@_pin("stable_scaled_state/scan")
def _stable_scan():
    """The stable chart as it summed both members of every conjugate pair in
    complex arithmetic: axis points, signed zeros, radii down to 1e-200,
    points next to the poles and outside the disk."""
    rng = random.Random(10_007)
    for i in range(20_000):
        par = SCAN_PARAMS[i % 3]
        yield outcome(dyn.stable_scaled_state, *_stable_scan_point(rng, i), par)
    for p, q in ((1.0 - 4.9e-10, 0.0), (-1.0 + 5.1e-10, 1e-12), (0.0, 1.0 - 5e-10)):
        yield outcome(dyn.stable_scaled_state, p, q, SCAN_PARAMS[0])


@_pin("normal_energy/signed_scan")
def _normal_energy_signed():
    """The energy as it took the libration product for x' >= 0 and a
    separate oscillation product with a sign flag for x' < 0."""
    rng = random.Random(10_009)
    for i in range(20_000):
        par = SCAN_PARAMS[i % 3]
        kind = i % 5
        if kind == 0:
            x = rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-300, -3) * par.action_scale
        elif kind == 1:
            x = rng.choice((0.0, -0.0))
        elif kind == 2:
            # out past the negative saturation and the positive bound
            x = rng.uniform(-0.2, 0.4) * par.action_scale
        else:
            x = dyn.action_from_nome(rng.uniform(-0.5, 0.5), par)
        yield outcome(dyn.normal_energy, x, par)


@_pin("energy_from_nome/negative")
def _energy_negative():
    """The same oscillation product, down to |x'| = 1e-300."""
    rng = random.Random(10_011)
    for i in range(20_000):
        par = SCAN_PARAMS[i % 3]
        xs = 10 ** rng.uniform(-300, 0) * 0.998 if i % 2 else rng.uniform(0.0, 0.998)
        yield outcome(dyn.energy_from_nome, -xs, par)


@_pin("energy_from_nome/overflow")
def _energy_overflow():
    """The libration product near its overflow (x' = 0.9862 at I = g = 1):
    a finite energy, or an OverflowError that names x'."""
    rng = random.Random(14_007)
    overflows = 0
    for i in range(600):
        par = SCAN_PARAMS[i % 3]
        x = rng.uniform(0.984, 0.99)
        line = outcome(dyn.energy_from_nome, x, par)
        if line.startswith("OverflowError"):
            overflows += 1
            assert line == f"OverflowError: energy exceeds the float range at x' = {x!r}", line
        yield line
    assert 100 < overflows < 500, overflows


def _action_points(par, rng):
    """Normal coordinates: the action 0, -0.0, both ends of the range and
    their float neighbours on the p axis, then seeded actions, tiny, past
    the range and inside it, split unevenly with random signs."""
    scale = par.action_scale
    edges = [0.0, -0.0]
    for end in dyn._action_range():
        for direction in (-math.inf, math.inf):
            x = end * scale
            for _ in range(4):
                edges.append(x)
                x = math.nextafter(x, direction)
    yield from (NormalCoords(x, 1.0) for x in edges)
    for i in range(10_000 - len(edges)):
        kind = i % 4
        if kind == 0:
            x = rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-300, -2) * scale
        elif kind == 1:
            x = rng.uniform(-0.2, 0.4) * scale
        else:
            x = dyn.action_from_nome(rng.uniform(-0.5, 0.5), par)
        split = rng.choice((1.0, -1.0)) * math.exp(rng.uniform(-3.0, 3.0))
        root = math.sqrt(abs(x))
        yield NormalCoords(root * split, math.copysign(root, x) / split)


def _orbit_records(which):
    """The nome, the map and the flow from one record per action, as
    separate, uncached nome, rescale and rate lookups gave them, at every
    point where Newton alone answers."""
    par = PARAMS[which]
    rng = random.Random(14_005)
    answered = 0
    for n in _action_points(par, rng):
        if outcome(newton_nome, n.x, par) == "RuntimeError: nome inversion did not converge":
            continue
        answered += 1
        t = rng.uniform(-5.0, 5.0) / par.g
        yield outcome(dyn.nome_from_action, n.x, par)
        yield outcome(dyn.canonical_from_normal, n, par)
        yield outcome(dyn.normal_flow, n, t, par)
    assert answered > 9_900, answered


for _which in PARAMS:
    _pin(f"action_orbit/{_which}", _which)(_orbit_records)


@_pin("agm/k_and_e")
def _k_and_e():
    """K and E as the AGM computed them with its with_sum flag, K without
    the sum."""
    rng = random.Random(13_001)
    ms = [0.0, 5e-324, 1e-300, 1e-16, 1e-15, 0.5, 1.0 - 2.0**-53]
    for i in range(12_000):
        ms.append((rng.random(), 1.0 - 10 ** rng.uniform(-16.0, 0.0),
                   10 ** rng.uniform(-320.0, 0.0))[i % 3])
    assert len(ms) > 10_000
    for m in ms:
        if 0.0 <= m < 1.0:
            yield outcome(lambda: (el.complete_k(m), el.complete_e(m)))


@_pin("agm/one_pass")
def _one_agm_pass():
    """K, E and (am, sn, cn, dn) as the separate AGM and Landen loops
    computed them."""
    rng = random.Random(13_003)
    ms = agm_moduli(13_005, 100_000)
    assert len(ms) > 100_000
    for i, m in enumerate(ms):
        u = (0.0, -0.0, rng.uniform(-3.0, 3.0), rng.uniform(-1e6, 1e6))[i % 4]
        yield outcome(lambda: (el.complete_k(m), el.complete_e(m)) + el.jacobi_elliptic(u, m))


@_pin("rational_series/float_horner")
def _float_horner():
    """Float evaluation as its own Horner branch did it, rounding each
    coefficient before adding it."""
    for s, x, _, _ in horner_cases():
        yield outcome(s, x)


# ---------------------------------------------------------------------------
# the pend-nf command surface: help, usage errors and parsed values, at 80
# columns (argparse wraps to the terminal width) under Python 3.11

CLI_HELP = {"cli/help": ["--help"], "cli/help/h_before_command": ["-h", "map"]} | {
    f"cli/help/{command}": [command, "--help"] for command in ("verify", "coeffs", "trajectory", "map")}
CLI_USAGE_ERRORS = {f"cli/usage_error/{name}": argv for name, argv in (
    ("no_command", []),
    ("bogus", ["bogus"]),
    ("verify_without_suite", ["verify"]),
    ("coeffs_without_series", ["coeffs", "--order", "3"]),
    ("trajectory_without_dt", ["trajectory", "--method", "closed", "--h", "0.3", "--t1", "1"]),
    ("map_without_q", ["map", "--p", "0.3"]),
    ("verify_unknown_suite", ["verify", "--suite", "nonsense"]),
    ("trajectory_h_and_energy", ["trajectory", "--method", "closed", "--h", "0.3", "--energy", "1",
                                 "--t1", "1", "--dt", "1"]),
    ("map_extra_argument", ["map", "--p", "1", "--q", "1", "extra"]),
    ("coeffs_order_zero", ["coeffs", "--series", "calU", "--order", "0"]),
    ("double_dash_first", ["--", "map", "--p", "0.3", "--q", "0.2"]),
    ("unknown_option_first", ["--x", "coeffs", "--series", "g0"]),
    ("trajectory_energy_without_modulus", ["trajectory", "--method", "rk", "--energy", "1e-320",
                                           "--t1", "1", "--dt", "1"]),
)}
CLI_PARSED = {f"cli/parsed/{argv[0]}": argv for argv in (
    ["verify", "--suite", "theta", "--I", "2.5"],
    ["coeffs", "--series", "W", "--physical", "--I", "1/32", "--format", "csv"],
    ["trajectory", "--method", "rk", "--energy", "0.5", "--t1", "5", "--dt", "0.1"],
    ["map", "--p", "0.3", "--q", "0.2", "--output", "map.json"],
)}


def _cli(argv):
    """Exit code, stdout and stderr of pend-nf with these arguments."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_help(argv):
    code, out, err = _cli(argv)
    assert (code, err) == (0, ""), (code, err)
    yield out


def _cli_usage_error(argv):
    """The exit code and stderr, in full."""
    code, out, err = _cli(argv)
    assert out == "", out
    return f"exit {code}\n{err}"


def _cli_parsed(argv):
    """Every parsed value, defaults included, as the command's runner gets them."""
    seen = []
    with mock.patch.object(cli, f"run_{argv[0]}", lambda args: seen.append(args) or 0):
        code, out, err = _cli(argv)
    assert (code, out, err, len(seen)) == (0, "", "", 1), (code, out, err)
    return repr(sorted(vars(seen[0]).items()))


for _table, _producer in ((CLI_HELP, _cli_help), (CLI_USAGE_ERRORS, _cli_usage_error),
                          (CLI_PARSED, _cli_parsed)):
    for _key, _argv in _table.items():
        _pin(_key, _argv)(_producer)


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    stored = dict(_stored())
    keys = sorted(PRODUCERS)
    if argv:
        unknown = [p for p in argv if not any(fnmatch.fnmatchcase(k, p) for k in keys)]
        if unknown:
            print(f"no pin matches {', '.join(unknown)}", file=sys.stderr)
            return 2
        keys = [k for k in keys if any(fnmatch.fnmatchcase(k, p) for p in argv)]
    changed, failed = [], []
    for key in keys:
        try:
            value = PRODUCERS[key]()
        except Exception as exc:        # a producer's own check, e.g. an exit code
            failed.append(key)
            print(f"failed  {key}: {type(exc).__name__}: {exc}")
            continue
        if stored.get(key) != value:
            changed.append(key)
            stored[key] = value
            print(f"changed {key}")
    if argv:
        if changed:
            STORE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        print(f"{len(changed)} of {len(keys)} keys rewritten, {len(failed)} failed")
        return 1 if failed else 0
    print(f"{len(changed)} of {len(keys)} keys differ from {STORE.name}, {len(failed)} failed; nothing rewritten")
    return 1 if changed or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
