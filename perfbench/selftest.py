"""Self-tests of the benchmark's own machinery (not of pendnf):

* the tracer gives every function of the per-layer table a span, through
  every binding a call can take (module attribute, `from`-imported names,
  methods on the class);
* parent links are correct: each span lies inside its parent, and known call
  paths have the expected parent;
* self times sum to the traced wall time, within SLACK;
* restore() puts back every original binding;
* the same seed yields an identical request list, another seed a different one.

    python3 perfbench/selftest.py      # exit 0 when every check passes
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# traced wall time may exceed the sum of self times by the cost of opening
# and closing the root span and of the calls around it
SLACK = 0.02

REQUIRED = (
    "elliptic.jacobi_elliptic", "elliptic.complete_k", "elliptic.nome_from_h",
    "elliptic.g0_from_nome", "elliptic.Modulus.from_h",
    "series.product_series", "series.RationalSeries.compose", "series.RationalSeries.revert",
    "series.RationalSeries.__mul__", "series.RationalSeries.__truediv__",
    "normal_form.normal_energy_series", "normal_form.stable_bundle",
    "normal_form.rescaling_identity_check", "normal_form.theta_logderiv_check",
    "normal_form.rescale_sq_series", "normal_form.g0_series",
    "dynamics.nome_from_action", "dynamics.canonical_from_normal", "dynamics.hyperbolic_state",
    "dynamics.series_state", "dynamics.closed_form_state", "dynamics.normal_flow",
    "dynamics.normal_energy", "dynamics.jacobian_det", "dynamics.trajectory",
    "dynamics._rk_batch", "dynamics.hamiltonian",
    "cli.main", "cli._suite_theta",
)
# (child, parent) pairs that a correct parent link must show
PARENTS = (
    ("elliptic.jacobi_elliptic", "dynamics.closed_form_state"),
    ("series.product_series", "normal_form.g0_series"),
    ("dynamics.hyperbolic_state", "dynamics.canonical_from_normal"),
    ("normal_form.theta_logderiv_check", "cli._suite_theta"),
)


def _bindings() -> dict:
    """Every attribute of every pendnf module and layer class, by identity."""
    snap = {}
    for mod in [importlib.import_module(name) for name in ("pendnf", *(f"pendnf.{x}" for x in LAYERS))]:
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__.startswith("pendnf"):
                for cattr, cobj in vars(obj).items():
                    snap[(f"{obj.__module__}.{obj.__qualname__}", cattr)] = cobj
    return snap


def _session(tracer: Tracer) -> float:
    from pendnf import cli, dynamics, elliptic, normal_form
    par = dynamics.PendulumParams(1.0, 1.0)
    start = time.perf_counter()
    with tracer.span("request.selftest"):
        mod = elliptic.Modulus.from_h(0.3)
        for method in ("closed", "series", "normal", "rk"):
            dynamics.trajectory(method, mod, par, 0.0, 0.03, 0.01)
        n = dynamics.NormalCoords(0.3, 0.2)
        dynamics.hamiltonian(dynamics.canonical_from_normal(n, par), par)
        dynamics.normal_energy(n.x, par)
        dynamics.jacobian_det(n, par)
        normal_form.normal_energy_series(9)
        normal_form.stable_bundle(9)
        normal_form.rescaling_identity_check(9)
        g0 = normal_form.g0_series(5)
        2 * (g0 * g0)                   # __rmul__ is an alias of __mul__
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "--suite", "theta", "--order", "11"])
    return time.perf_counter() - start


def tracer_checks() -> list[tuple[str, bool, str]]:
    from pendnf import normal_form, series
    before = _bindings()
    original = series.product_series
    tracer = Tracer(keep=1_000_000).install()
    try:
        rebound = normal_form.product_series is not original and series.product_series is not original
        wall = _session(tracer)
    finally:
        tracer.restore()
    after = _bindings()
    out = []
    missing = [name for name in REQUIRED if name not in tracer.stats]
    out.append(("every listed function gets a span", not missing, f"missing {missing}"))
    out.append(("from-imported names are rebound", rebound,
                "normal_form.product_series was not patched"))

    spans = {s[0]: s for s in tracer.spans}
    bad = [s for s in tracer.spans if s[4] and not (
        s[4] in spans and spans[s[4]][2] <= s[2] and s[3] <= spans[s[4]][3])]
    seen = {(s[1], spans[s[4]][1]) for s in tracer.spans if s[4] in spans}
    absent = [pair for pair in PARENTS if pair not in seen]
    out.append(("parent links nest and follow the call path", not bad and not absent,
                f"{len(bad)} spans outside their parent; missing parent pairs {absent}"))

    roots = [s for s in tracer.spans if s[4] == 0]
    self_total = sum(v[2] for v in tracer.stats.values())
    root_dur = roots[0][3] - roots[0][2] if len(roots) == 1 else float("nan")
    ok = (len(roots) == 1 and abs(self_total - root_dur) <= 1e-9 * max(1.0, root_dur)
          and 0.0 <= wall - self_total <= SLACK * wall + 1e-3)
    out.append((f"self times sum to the traced wall time (slack {SLACK:.0%})", ok,
                f"self {self_total:.6f} s, root {root_dur:.6f} s, wall {wall:.6f} s"))

    changed = [k for k, v in before.items() if after.get(k) is not v]
    out.append(("restore() puts back every binding", not changed, f"changed: {changed[:5]}"))
    return out


def repro_checks() -> list[tuple[str, bool, str]]:
    out = []
    for workload in ("exact-deep", "orbits", "cli"):
        first = json.dumps(list(islice(workloads.rounds(workload, 7), 3)))
        again = json.dumps(list(islice(workloads.rounds(workload, 7), 3)))
        other = json.dumps(list(islice(workloads.rounds(workload, 8), 3)))
        out.append((f"{workload}: same seed, same requests; new seed, new requests",
                    first == again and first != other, "request lists differ or coincide"))
    return out


def main() -> int:
    results = tracer_checks() + repro_checks()
    for name, ok, detail in results:
        print(f"selftest {'PASS' if ok else 'FAIL'}  {name}" + ("" if ok else f": {detail}"))
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
