"""Command-line front end: verification suites, exact coefficient tables,
trajectory sampling and canonical-map queries.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import dynamics, elliptic, normal_form
from .dynamics import NormalCoords, PendulumParams, PhaseState
from .elliptic import Modulus
from .series import RationalSeries

SUITES = (
    "all",
    "dynamics",
    "elliptic",
    "factorization",
    "identity51",
    "jacobian",
    "legendre",
    "stable",
    "theta",
)

# name -> (the normalized series at an order, the factor that reinstates I
# and g in its n-th coefficient given s32 = 32*I*g and g); the argument scale
# of the normal-form energies folds into the coefficients.  The builders look
# normal_form's functions up per call, so a rebinding (the benchmark tracer's)
# reaches them.
_SERIES = {
    "g0": (lambda order: normal_form.g0_series(order), lambda n, s32, g: g),
    "U": (lambda order: normal_form.energy_series(order), lambda n, s32, g: s32 * g),
    "D": (lambda order: normal_form.jacobian_series(order), lambda n, s32, g: s32),
    "a2": (lambda order: normal_form.rescale_sq_series(order), lambda n, s32, g: s32),
    "calU": (
        lambda order: normal_form.normal_energy_series(order),
        lambda n, s32, g: s32 * g / s32**n,
    ),
    "W": (
        lambda order: normal_form.stable_bundle(order).normal_energy,
        lambda n, s32, g: s32 * g / (2 * s32) ** n,
    ),
    "Us": (lambda order: normal_form.stable_bundle(order).energy, lambda n, s32, g: s32 * g),
}
SERIES_NAMES = tuple(_SERIES)
TRAJECTORY_METHODS = ("closed", "series", "normal", "rk")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f"  [{self.note}]" if self.note else ""
        return f"{status}  {self.name}: measured {self.measured:.3e} vs tolerance {self.tolerance:.3e}{note}"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"order must be >= 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.linspace(start, stop, num) element for element, with its
    arithmetic: i * step + start, and the last point exactly stop."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


# ---------------------------------------------------------------------------
# verify suites


def jacobian_grid(par: PendulumParams) -> list[NormalCoords]:
    """Sample points for the unit-determinant check: nomes across |x'| <= 0.1
    on both sides of the separatrix, asymmetric splits of the product, and
    the axis points p = 0 and q = 0.

    Negative nomes are mapped through x(x'), which saturates near
    -0.08 * 32*I*g as x' -> -1, so the grid stays well inside that bound.
    """
    pts = []
    for x_prime in (-0.1, -0.05, 0.02, 0.05, 0.1):
        x = dynamics.action_from_nome(x_prime, par)
        t = math.sqrt(abs(x))
        pts.append(NormalCoords(t, x / t))
        t *= 1.4
        pts.append(NormalCoords(-t, x / -t))
    edge = 0.45 * math.sqrt(par.action_scale)
    pts.append(NormalCoords(0.0, edge))
    pts.append(NormalCoords(edge, 0.0))
    return pts


def _suite_elliptic(order: int, tol: float | None, par: PendulumParams) -> list[CheckResult]:
    tol = 1e-12 if tol is None else tol
    results = []
    us = _linspace(-3.0, 3.0, 13)
    ms = (0.1, 0.5, 0.9, 0.99)
    worst_sc = worst_dn = 0.0
    for m in ms:
        for u in us:
            _, sn, cn, dn = elliptic.jacobi_elliptic(u, m)
            worst_sc = max(worst_sc, abs(sn * sn + cn * cn - 1.0))
            worst_dn = max(worst_dn, abs(dn * dn + (m * sn) ** 2 - 1.0))
    results.append(CheckResult("jacobi_identity_sncn", worst_sc <= tol, worst_sc, tol))
    results.append(CheckResult("jacobi_identity_dn", worst_dn <= tol, worst_dn, tol))

    period_tol = max(tol, 1e-10)
    worst = 0.0
    for m in ms:
        period = 4.0 * elliptic.complete_k(m)
        for u in _linspace(-2.0, 2.0, 9):
            s0 = elliptic.jacobi_elliptic(u, m)[1]
            s1 = elliptic.jacobi_elliptic(u + period, m)[1]
            worst = max(worst, abs(s1 - s0))
    results.append(CheckResult("jacobi_periodicity", worst <= period_tol, worst, period_tol))

    hs = _linspace(0.01, 0.99, 100)
    nomes = [elliptic.nome_from_h(Modulus.from_h(h)) for h in hs]
    min_step = min(b - a for a, b in zip(nomes, nomes[1:]))
    results.append(
        CheckResult("nome_monotonic", min_step > 0.0, min_step, 0.0, "must exceed tolerance")
    )

    worst = max(
        abs(
            elliptic.lambda_from_h(Modulus.from_h(h))
            - elliptic.lambda_from_nome(elliptic.nome_from_h(Modulus.from_h(h)))
        )
        for h in _linspace(0.05, 0.9, 18)
    )
    results.append(CheckResult("lambda_theta_quotient", worst <= tol, worst, tol))

    worst = 0.0
    floor = 0.0
    for h in _linspace(0.05, 0.9, 18):
        mod = Modulus.from_h(h)
        a = elliptic.g0_eval(mod, 1.0)
        b = elliptic.g0_from_nome(elliptic.nome_from_h(mod), 1.0)
        worst = max(worst, abs(a - b) / a)
        floor = min(floor, a - 1.0)
    results.append(CheckResult("g0_product_consistency", worst <= tol, worst, tol))
    results.append(CheckResult("g0_at_least_g", floor >= 0.0, floor, 0.0, "must not go below 0"))
    return results


def _suite_legendre(order: int, tol: float | None, par: PendulumParams) -> list[CheckResult]:
    tol = 1e-12 if tol is None else tol
    worst = max(
        abs(elliptic.legendre_defect(Modulus.from_h(h)))
        for h in _linspace(0.05, 0.95, 50)
    )
    return [CheckResult("legendre_defect_grid", worst <= tol, worst, tol)]


def _suite_identity51(order: int, tol: float | None, par: PendulumParams) -> list[CheckResult]:
    return _exact_identity("rescaling_identity", normal_form.rescaling_identity_check(order))


def _suite_theta(order: int, tol: float | None, par: PendulumParams) -> list[CheckResult]:
    return _exact_identity("theta_logderiv", normal_form.theta_logderiv_check(order))


def _exact_identity(name: str, report: normal_form.IdentityReport) -> list[CheckResult]:
    measured = -1.0 if report.first_mismatch is None else float(report.first_mismatch)
    return [
        CheckResult(
            name,
            report.passed,
            measured,
            0.0,
            f"exact to order {report.order}; measured is the first mismatching power (-1 = none)",
        )
    ]


def _suite_factorization(order: int, tol: float | None, par: PendulumParams) -> list[CheckResult]:
    tol = 1e-8 if tol is None else tol
    gammas = _linspace(0.5, 2.0, 7)
    reports = [dynamics.factorization_check(0.1, g, par) for g in gammas]
    worst = max(r.rel_diff for r in reports)
    values = [r.energy_factored for r in reports]
    spread = (max(values) - min(values)) / abs(reports[0].energy_direct)
    return [
        CheckResult("factorization_vs_direct", worst <= tol, worst, tol),
        CheckResult("factorization_gamma_independent", spread <= 1e-10, spread, 1e-10),
    ]


def _suite_jacobian(order: int, tol: float | None, par: PendulumParams) -> list[CheckResult]:
    tol = 1e-6 if tol is None else tol
    worst = max(
        abs(dynamics.jacobian_det(n, par) - 1.0)
        for n in jacobian_grid(par)
    )
    results = [CheckResult("jacobian_determinant", worst <= tol, worst, tol)]
    worst_slope = 0.0
    for xp in (0.02, 0.05, 0.1):
        slope, g0 = dynamics.normal_energy_slope(xp, par)
        worst_slope = max(worst_slope, abs(slope - g0) / g0)
    results.append(CheckResult("normal_energy_slope", worst_slope <= tol, worst_slope, tol))
    return results


def _suite_dynamics(order: int, tol: float | None, par: PendulumParams) -> list[CheckResult]:
    results = []
    mod = Modulus.from_k(1.0)
    horizon = 10.0 / par.g
    times = _linspace(0.0, horizon, 101)
    start = PhaseState(B=2.0 * par.I * par.g / mod.k, beta=0.0)
    rk_states = dynamics._rk_batch(start, par, times, 1e-12)
    worst = max(
        abs(dynamics.closed_form_state(t, mod, par).beta - s.beta)
        for t, s in zip(times, rk_states)
    )
    rk_tol = 1e-8 if tol is None else tol
    results.append(CheckResult("closed_vs_rk_beta", worst <= rk_tol, worst, rk_tol))

    series_tol = 1e-10 if tol is None else tol
    worst = 0.0
    for h in (0.3, 0.9, 0.975):
        mod = Modulus.from_h(h)
        xp = elliptic.nome_from_h(mod)
        for t in _linspace(0.0, 5.0 / par.g, 41):
            c = dynamics.closed_form_state(t, mod, par)
            s = dynamics.series_state(xp, t, par)
            worst = max(worst, abs(c.B - s.B) / (par.I * par.g), abs(c.beta - s.beta))
    results.append(CheckResult("closed_vs_series", worst <= series_tol, worst, series_tol))

    energy_tol = 1e-11 if tol is None else tol
    worst = 0.0
    for h in (0.3, 0.7):
        mod = Modulus.from_h(h)
        energy = 2.0 * par.g**2 * par.I / mod.k**2
        for t in _linspace(0.0, horizon, 101):
            drift = abs(
                dynamics.hamiltonian(dynamics.closed_form_state(t, mod, par), par)
                - energy
            ) / energy
            worst = max(worst, drift)
    results.append(CheckResult("closed_energy_conservation", worst <= energy_tol, worst, energy_tol))
    return results


def _suite_stable(order: int, tol: float | None, par: PendulumParams) -> list[CheckResult]:
    tol_rel = 1e-8 if tol is None else tol
    results = []
    xs, t = 0.04, 0.6
    g0s = elliptic.g0_from_nome(-xs, par.g)
    root = math.sqrt(xs)
    pp, qq = root * math.cos(g0s * t), root * math.sin(g0s * t)
    eps = 1e-6

    def s_at(p, q):
        return dynamics.stable_scaled_state(p, q, par).beta

    lhs = dynamics.stable_scaled_state(pp, qq, par).B
    rhs = g0s * par.I * (
        pp * (s_at(pp, qq + eps) - s_at(pp, qq - eps)) / (2 * eps)
        - qq * (s_at(pp + eps, qq) - s_at(pp - eps, qq)) / (2 * eps)
    )
    rel = abs(lhs - rhs) / abs(lhs)
    results.append(CheckResult("stable_differential_relation", rel <= tol_rel, rel, tol_rel))

    freq_tol = 1e-6
    amp = 1e-7
    lo, hi = 0.9 * math.pi / par.g, 1.1 * math.pi / par.g
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dynamics.stable_state(amp, mid, par).beta < 0.0:
            lo = mid
        else:
            hi = mid
    freq = math.pi / (0.5 * (lo + hi))
    rel = abs(freq - par.g) / par.g
    results.append(CheckResult("stable_small_amplitude_frequency", rel <= freq_tol, rel, freq_tol))

    w_order = max(6, min(order, 24))
    calu = normal_form.normal_energy_series(w_order)
    w = normal_form.stable_bundle(w_order).normal_energy
    exact = all(
        calu.coeffs[n] == (-((-1) ** n)) * w.coeffs[n] for n in range(w_order + 1)
    )
    results.append(
        CheckResult(
            "stable_hyperbolic_energy_relation",
            exact,
            0.0 if exact else 1.0,
            0.0,
            f"exact coefficient relation to order {w_order}",
        )
    )
    return results


def run_verify(args: argparse.Namespace) -> int:
    par = PendulumParams(I=args.I, g=args.g)
    names = SUITES[1:] if args.suite == "all" else [args.suite]
    results: list[CheckResult] = []
    for name in names:
        # looked up per call, so a rebound _suite_* name (the benchmark tracer's) runs
        results.extend(globals()[f"_suite_{name}"](args.order, args.tol, par))
    results.sort(key=lambda r: r.name)
    lines = [r.line() for r in results]
    passed = all(r.passed for r in results)
    lines.append(f"{'OK' if passed else 'FAILED'}: {sum(r.passed for r in results)}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# coefficient tables


def run_coeffs(args: argparse.Namespace) -> int:
    build, factor = _SERIES[args.series]
    series = build(args.order)
    convention = "normalized (g = 1, 32*I*g = 1)"
    if args.physical:
        inertia, g = args.I_exact, args.g_exact
        s32 = 32 * inertia * g
        series = RationalSeries(
            tuple(c * factor(n, s32, g) for n, c in enumerate(series.coeffs)), series.var
        )
        convention = f"physical (I = {inertia}, g = {g})"

    if args.format == "json":
        _emit(series.to_json() + "\n", args.output)
    elif args.format == "csv":
        lines = [f"# series={args.series} convention={convention}", "power,numerator,denominator"]
        for n, c in enumerate(series.coeffs):
            lines.append(f"{n},{c.numerator},{c.denominator}")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        lines = [f"series {args.series}, {convention}", str(series)]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# trajectories and map queries


def run_trajectory(args: argparse.Namespace) -> int:
    par = PendulumParams(I=args.I, g=args.g)
    if args.h is not None:
        mod = Modulus.from_h(args.h)
    else:
        mod = Modulus.from_energy(args.energy, par.I, par.g)
    records = dynamics.trajectory(args.method, mod, par, args.t0, args.t1, args.dt, tol=args.tol)
    lines = ["t,B,beta,energy,method"]
    for r in records:
        lines.append(f"{r.t:.17g},{r.B:.17g},{r.beta:.17g},{r.energy:.17g},{r.method}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def run_map(args: argparse.Namespace) -> int:
    par = PendulumParams(I=args.I, g=args.g)
    n = NormalCoords(args.p, args.q)
    x_prime = dynamics.nome_from_action(n.x, par)
    state = dynamics.canonical_from_normal(n, par)
    payload = {
        "p": args.p,
        "q": args.q,
        "x": n.x,
        "x_prime": x_prime,
        "g0": elliptic.g0_from_nome(x_prime, par.g),
        "B": state.B,
        "beta": state.beta,
        "beta_mod_2pi": dynamics.wrap_angle(state.beta),
        "energy_phase": dynamics.hamiltonian(state, par),
        "energy_normal": dynamics.normal_energy(n.x, par),
    }
    if args.format == "json":
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.output)
    else:
        lines = [f"{key} = {payload[key]:.17g}" for key in sorted(payload)]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {output}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pend-nf",
        description="Pendulum normal-form toolkit: verification suites, exact "
        "coefficient tables, trajectories and canonical-map queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--I", type=_positive_float, default=1.0, help="inertia moment (default 1)")
    common.add_argument("--g", type=_positive_float, default=1.0, help="gravity rate (default 1)")
    common.add_argument("--output", help="write to this path instead of stdout")

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--order", type=_positive_int, default=200, help="series order for exact checks (default 200)")
    p.add_argument("--tol", type=_positive_float, default=None,
                   help="override the float checks' tolerances; jacobi_periodicity keeps a "
                   "1e-10 floor, factorization_gamma_independent (1e-10) and "
                   "stable_small_amplitude_frequency (1e-6) keep fixed bounds, and the "
                   "exact and sign checks ignore it")

    p = sub.add_parser("coeffs", help="emit exact series coefficients")
    p.add_argument("--series", choices=SERIES_NAMES, required=True)
    p.add_argument("--order", type=_positive_int, default=20)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--physical", action="store_true", help="rescale to physical I, g")
    p.add_argument("--I", type=_positive_fraction, default=Fraction(1), dest="I_exact",
                   help="inertia moment as an exact rational, e.g. 1/32 (with --physical)")
    p.add_argument("--g", type=_positive_fraction, default=Fraction(1), dest="g_exact",
                   help="gravity rate as an exact rational (with --physical)")
    p.add_argument("--output", help="write to this path instead of stdout")

    p = sub.add_parser("trajectory", parents=[common], help="sample a libration trajectory")
    p.add_argument("--method", choices=TRAJECTORY_METHODS, required=True)
    orbit = p.add_mutually_exclusive_group(required=True)
    orbit.add_argument("--h", type=_finite_float, help="modulus h in (0, 1)")
    orbit.add_argument("--energy", type=_finite_float, help="libration energy (> 0)")
    p.add_argument("--t0", type=_finite_float, default=0.0)
    p.add_argument("--t1", type=_finite_float, required=True)
    p.add_argument("--dt", type=_positive_float, required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-10, help="reference-integrator tolerance")

    p = sub.add_parser("map", parents=[common], help="query the canonical map at normal coordinates (p, q)")
    p.add_argument("--p", type=_finite_float, required=True)
    p.add_argument("--q", type=_finite_float, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    run = {"verify": run_verify, "coeffs": run_coeffs, "trajectory": run_trajectory, "map": run_map}
    try:
        return run[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:
        parser.exit(2, f"pend-nf: error: {exc}\n")
    except (ArithmeticError, RuntimeError) as exc:
        sys.stderr.write(f"pend-nf: check failed: {exc}\n")
        return 1


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
