"""pendnf benchmark: one command for the exact-deep, orbits and cli workloads.

    python3 perfbench/run.py --workload exact-deep|orbits|cli --seed N \
        --seconds S --trace 0|1

Run from anywhere; the program is imported from ../src next to this
directory.  Every request is a closed loop with one client, and at most one
worker process is alive at a time.  Each output is checked (checks.py).  The
report lines name every metric with its unit and sample count; the last line
of stdout is one JSON object with the gated metrics: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.

--trace 1 runs the workload twice for S/2 seconds each, untraced and then
traced, on the same seeded requests; trace_overhead_frac compares the two.
A full results record (environment, seed, per-metric sample counts, failure
causes, the spans of traced workers) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("exact-deep", "orbits", "cli")
MODES = {"exact-deep": "exact", "orbits": "orbits", "cli": "cli"}
# set-up probes per run: a worker's fresh-interpreter set-up, each paired
# with a reference set-up just before it (see setup_s in spec.json)
SETUP_PROBES = 6
# the reference set-up: a fresh interpreter importing the third-party modules
# pendnf imports, without pendnf; its spawn-to-ready time tracks the speed of
# interpreter start and imports on the machine at the moment
REF_SETUP = "import fractions, numpy, scipy.integrate; print('ready', flush=True)"
# median reference set-up time on the 2-vCPU Xeon machine the benchmark was
# written on: setup_s is in seconds at that machine's speed
REF_SETUP_S = 0.7
# a run must end within 180 s; stop the workers well before that
DEADLINE_S = 170
# classes whose medians make latency_gm_ref, per workload: (label, scale to ms);
# exact-deep uses its strata, so each median compares requests of one size,
# and splits tables by series, so a run's calU/W mix cannot move a median
CLASSES = {
    "exact-deep": [(f"{stratum}_s", 1e3) for stratum in (
        "table_fresh.calU", "table_fresh.W", "table_lower.calU", "table_lower.W",
        "identity_theta", "identity_rescaling")],
    "orbits": [("closed_us_per_sample", 1e-3), ("series_us_per_sample", 1e-3),
               ("normal_us_per_sample", 1e-3), ("rk_us_per_sample", 1e-3), ("map_us", 1e-3)],
    "cli": [("cli_verify_main_s", 1e3), ("cli_map_main_s", 1e3), ("cli_coeffs_main_s", 1e3)],
}
SUITES = workloads.CLI_SUITES


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("PEND_NF_MAX_ORDER", None)       # a cap would change every output
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """A fresh interpreter running worker.py; set-up time is spawn to ready."""

    def __init__(self, mode: str, trace: bool = False, spans: Path | None = None):
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode]
        if trace:
            cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT, env=_env())
        self._read()
        self.setup_s = time.perf_counter() - start

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise BenchError("worker exited without answering")
        return json.loads(line)

    def call(self, batch: list[dict]) -> list[dict]:
        self.proc.stdin.write(json.dumps(batch) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        self.proc.stdin.write("null\n")
        self.proc.stdin.flush()
        final = self._read()
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        return final

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


_LIVE: list[Worker] = []


def _spawn(mode, trace=False, spans=None) -> Worker:
    w = Worker(mode, trace, spans)
    _LIVE.append(w)
    return w


def _finish(w: Worker) -> dict:
    final = w.close()
    _LIVE.remove(w)
    return final


# ---------------------------------------------------------------------------
# one pass over a workload


class Pass:
    """Raw measurements of one pass: per-class samples, outcomes, traces."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.norm: dict[str, list[float]] = {}
        self.setup: list[float] = []          # raw, every fresh interpreter
        self.setup_ref: list[float] = []      # reference set-ups
        self.setup_norm: list[float] = []     # probe set-ups at REF_SETUP_S speed
        self.outcomes: list[tuple[str, str]] = []
        self.traces: list[dict] = []
        self.table_orders: list[tuple[int, str, int]] = []   # (session, series, order)
        self.traj_samples: dict[str, int] = {}
        self.maps = 0

    def add(self, label: str, seconds: float, ref: float):
        """One sample: raw in the label's unit (s, or us for *_us*), and
        normalized by the mean reference probe time during it (reference.py)."""
        scale = 1e6 if "_us" in label else 1.0
        self.samples.setdefault(label, []).append(seconds * scale)
        self.norm.setdefault(label, []).append(seconds / ref)


def _record(p: Pass, req: dict, resp: dict, golden: dict):
    p.outcomes.extend((kind, outcome, req) for kind, outcome in checks.check(req, resp, golden))
    op, ref = req["op"], resp["ref"]
    if "error" in resp:
        if op == "map":
            # a known failure still costs its time, so failing fast cannot
            # read as a speed-up
            p.add("map_us", resp["t"], ref)
        return
    if op in ("table", "identity"):
        p.add(f"{op}_s", resp["t"], ref)
        p.add(f"{req['stratum']}_s", resp["t"], ref)
        if op == "table":
            p.add(f"{req['stratum']}.{req['series']}_s", resp["t"], ref)
    elif op == "traj":
        p.add(f"{req['method']}_us_per_sample", resp["t"] / resp["samples"], ref)
        p.traj_samples[req["method"]] = p.traj_samples.get(req["method"], 0) + resp["samples"]
    elif op == "map":
        p.maps += 1
        p.add("map_us", resp["t"], ref)
        if "t_jac" in resp:
            p.add("jacobian_us", resp["t_jac"], ref)
    elif op == "cli":
        name = {"verify_all": "cli_verify", "map": "cli_map", "coeffs": "cli_coeffs",
                "coeffs_any": "cli_coeffs_any", "verify_suite": "cli_suite",
                "trajectory": "cli_trajectory"}[req["class"]]
        p.add(f"{name}_s", resp["process_t"], ref)         # spawn to exit
        p.add(f"{name}_main_s", resp["t"], ref)            # cli.main alone


def _ref_setup() -> float:
    """Spawn-to-ready time of one reference interpreter (REF_SETUP)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", REF_SETUP], stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, env=_env())
    ready = ""
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        if not ready:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if not ready:
        raise BenchError("reference set-up interpreter failed")
    return elapsed


def run_pass(workload: str, seed: int, seconds: float, trace: bool, golden: dict,
             probes: int, tag: str) -> Pass:
    p = Pass()
    mode = MODES[workload]
    for _ in range(probes):
        ref = _ref_setup()
        w = _spawn(mode)
        p.setup.append(w.setup_s)
        p.setup_ref.append(ref)
        p.setup_norm.append(w.setup_s / ref * REF_SETUP_S)
        _finish(w)
    start = time.perf_counter()
    stream = workloads.rounds(workload, seed)
    client = None
    if workload == "orbits":
        client = _spawn(mode, trace, OUT / f"spans-{tag}-orbits.jsonl" if trace else None)
        p.setup.append(client.setup_s)
    session = cli_n = 0
    # exact-deep alternates calU and W sessions and times each series apart,
    # so a pass serves at least one session of each
    while time.perf_counter() - start < seconds or (workload == "exact-deep" and session < 2):
        rnd = next(stream)
        if workload == "exact-deep":
            session += 1
            w = _spawn(mode, trace, OUT / f"spans-{tag}-s{session}.jsonl" if trace else None)
            p.setup.append(w.setup_s)
            resps = w.call(rnd)
            p.traces.append(_finish(w).get("trace"))
            for req, resp in zip(rnd, resps):
                _record(p, req, resp, golden)
                if req["op"] == "table":
                    p.table_orders.append((session, req["series"], req["order"]))
        elif workload == "orbits":
            for req, resp in zip(rnd, client.call(rnd)):
                _record(p, req, resp, golden)
        else:
            # a fresh interpreter per invocation runs cli.main, the function
            # `python -m pendnf.cli` runs: start-up lands in setup_raw_s, the
            # command itself is timed in-process while the reference probes run
            for req in rnd:
                start_t = time.perf_counter()
                cli_n += 1
                w = _spawn(mode, trace, OUT / f"spans-{tag}-cli{cli_n}.jsonl" if trace else None)
                resp = w.call([req])[0]
                p.traces.append(_finish(w).get("trace"))
                p.setup.append(w.setup_s)
                resp["process_t"] = time.perf_counter() - start_t
                _record(p, req, resp, golden)
    if client is not None:
        p.traces.append(_finish(client).get("trace"))
    return p


# ---------------------------------------------------------------------------
# metrics


def _summary(values: list[float]) -> dict:
    """Median, plus p90 when at least ten samples lie beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def reuse_share(p: Pass) -> float:
    """Share of table requests whose series was computed at a higher order
    earlier in the same session."""
    seen: dict[tuple[int, str], int] = {}
    reused = 0
    for session, series, order in p.table_orders:
        key = (session, series)
        if key in seen and seen[key] >= order:
            reused += 1
        seen[key] = max(seen.get(key, 0), order)
    return reused / len(p.table_orders) if p.table_orders else 0.0


def latency_gm(workload: str, p: Pass, normalized: bool) -> float:
    """Geometric mean of the class medians: in ms, or normalized by the
    reference probes (a request's time over the mean probe time during it)."""
    logs = []
    for label, to_ms in CLASSES[workload]:
        if not p.samples.get(label):
            raise BenchError(f"no successful {label} request in the run")
        if normalized:
            logs.append(math.log(statistics.median(p.norm[label])))
        else:
            logs.append(math.log(statistics.median(p.samples[label]) * to_ms))
    return math.exp(sum(logs) / len(logs))


def failures(p: Pass) -> dict:
    """fail_frac overall, by cause and by request kind; a few failing inputs
    per cause are kept as examples."""
    by_kind: dict[str, dict] = {}
    causes: dict[str, int] = {}
    examples: dict[str, list] = {}
    for kind, outcome, req in p.outcomes:
        k = by_kind.setdefault(kind, {"attempted": 0, "failed": 0, "causes": {}})
        k["attempted"] += 1
        if outcome == "ok":
            continue
        k["failed"] += 1
        k["causes"][outcome] = k["causes"].get(outcome, 0) + 1
        causes[outcome] = causes.get(outcome, 0) + 1
        if len(examples.setdefault(outcome, [])) < 5:
            examples[outcome].append(req)
    for k in by_kind.values():
        k["fail_frac"] = k["failed"] / k["attempted"]
    n = len(p.outcomes)
    failed = sum(causes.values())
    return {"attempted": n, "failed": failed,
            "unexpected": sum(v for c, v in causes.items() if c.startswith("unexpected:")),
            "fail_frac": failed / n if n else 0.0,
            "by_cause": {c: v / n for c, v in sorted(causes.items())},
            "by_kind": dict(sorted(by_kind.items())), "examples": examples}


def end_to_end(workload: str, p: Pass) -> tuple[dict, dict]:
    """(gated metrics, all named metrics with units and sample counts)."""
    named = {"setup_s": {"unit": "s", **_summary(p.setup_norm)},
             "setup_raw_s": {"unit": "s", **_summary(p.setup)},
             "setup_ref_s": {"unit": "s", **_summary(p.setup_ref)}}
    for label, values in sorted(p.samples.items()):
        unit = "s" if label.endswith("_s") else "us"
        named[label] = {"unit": unit, **_summary(values)}
        named[f"{label}.ref"] = {"unit": "ref", **_summary(p.norm[label])}
    if "map_us" in named:
        named["map_us_p50"] = {"unit": "us", "median": named["map_us"]["median"],
                               "n": named["map_us"]["n"]}
        if "p90" in named["map_us"]:
            named["map_us_p90"] = {"unit": "us", "median": named["map_us"]["p90"],
                                   "n": named["map_us"]["n"]}
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    named["rss_peak_mb"] = {"unit": "MB", "median": rss, "n": 1}
    gm = latency_gm(workload, p, normalized=True)
    named["latency_gm_ms"] = {"unit": "ms", "median": latency_gm(workload, p, normalized=False),
                              "n": len(CLASSES[workload])}
    named["latency_gm_ref"] = {"unit": "ref", "median": gm, "n": len(CLASSES[workload])}
    gated = {"latency_gm_ref": {"value": gm, "unit": "ref"},
             "setup_s": {"value": named["setup_s"]["median"], "unit": "s"},
             "rss_peak_mb": {"value": rss, "unit": "MB"}}
    return gated, named


def _import_breakdown() -> dict:
    """Self time by top-level package from python -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pendnf.cli"],
                          capture_output=True, text=True, cwd=ROOT, env=_env(), timeout=60)
    if proc.returncode != 0:
        raise BenchError("import pendnf.cli failed: " + proc.stderr.strip()[-200:])
    totals = {"scipy": 0, "numpy": 0, "pendnf": 0}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if m and m.group(2).split(".")[0] in totals:
            totals[m.group(2).split(".")[0]] += int(m.group(1))
    return {"cli.import.scipy_ms": totals["scipy"] / 1e3, "cli.import.numpy_ms": totals["numpy"] / 1e3,
            "cli.import.pendnf_self_ms": totals["pendnf"] / 1e3}


def per_layer(p: Pass, overhead: float) -> dict:
    stats: dict[str, list] = {}
    by_root: dict[tuple, list] = {}
    for tr in p.traces:
        if not tr:
            continue
        for name, (c, tot, self_t, err) in tr["stats"].items():
            s = stats.setdefault(name, [0, 0.0, 0.0, 0])
            s[0] += c
            s[1] += tot
            s[2] += self_t
            s[3] += err
        for root, name, c, tot in tr["by_root"]:
            b = by_root.setdefault((root, name), [0, 0.0])
            b[0] += c
            b[1] += tot

    def mean(names, scale):
        c = sum(stats.get(n, [0])[0] for n in names)
        return sum(stats[n][1] for n in names if n in stats) / c * scale if c else 0.0

    def layer(prefix, col):
        return sum(v[col] for n, v in stats.items() if n.startswith(prefix + "."))

    def per(root, name, denom, col=0, scale=1.0):
        v = by_root.get((root, name), [0, 0.0])[col]
        return v / denom * scale if denom else 0.0

    m = {}
    for f in ("jacobi_elliptic", "complete_k", "nome_from_h", "g0_from_nome"):
        m[f"elliptic.{f}.us"] = mean([f"elliptic.{f}"], 1e6)
    for lay in ("elliptic", "series", "normal_form", "dynamics"):
        m[f"{lay}.calls"] = layer(lay, 0)
        m[f"{lay}.self_s"] = layer(lay, 2)
        m[f"{lay}.errors"] = layer(lay, 3)
    m["series.product_series.s"] = mean(["series.product_series"], 1.0)
    m["series.compose.s"] = mean(["series.RationalSeries.compose"], 1.0)
    m["series.revert.s"] = mean(["series.RationalSeries.revert"], 1.0)
    m["series.mul.s"] = mean(["series.RationalSeries.__mul__", "series.RationalSeries.__truediv__"], 1.0)
    for f in ("normal_energy_series", "stable_bundle", "rescaling_identity_check", "theta_logderiv_check"):
        m[f"normal_form.{f}.s"] = mean([f"normal_form.{f}"], 1.0)
    m["normal_form.rescale_sq_series.calls_per_map"] = per(
        "request.map", "normal_form.rescale_sq_series", p.maps)
    for f in ("nome_from_action", "canonical_from_normal", "hyperbolic_state", "series_state",
              "closed_form_state", "normal_flow", "normal_energy", "jacobian_det"):
        m[f"dynamics.{f}.us"] = mean([f"dynamics.{f}"], 1e6)
    m["dynamics.nome_from_action.calls_per_sample"] = per(
        "request.traj.normal", "dynamics.nome_from_action", p.traj_samples.get("normal", 0))
    m["dynamics.nome_from_action.errors"] = stats.get("dynamics.nome_from_action", [0, 0, 0, 0])[3]
    m["dynamics.trajectory.rk.us_per_sample"] = per(
        "request.traj.rk", "dynamics.trajectory", p.traj_samples.get("rk", 0), col=1, scale=1e6)
    for suite in SUITES:
        m[f"cli.verify.{suite}.s"] = mean([f"cli._suite_{suite}"], 1.0)
    m.update(_import_breakdown())
    m["trace_overhead_frac"] = overhead
    return {k: {"value": float(v), "unit": _layer_unit(k)} for k, v in m.items()}


def _layer_unit(name: str) -> str:
    for suffix, unit in ((".us", "us"), (".us_per_sample", "us"), ("_ms", "ms"), (".s", "s"),
                         ("self_s", "s"), (".calls", "count"), (".errors", "count"),
                         ("calls_per_map", "count"), ("calls_per_sample", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"


# ---------------------------------------------------------------------------


def _environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


def _selftest() -> bool:
    proc = subprocess.run([sys.executable, str(HERE / "selftest.py")], capture_output=True,
                          text=True, cwd=ROOT, env=_env(), timeout=120)
    sys.stdout.write(proc.stdout)
    return proc.returncode == 0


def _print_named(named: dict):
    for name, v in named.items():
        tail = f" p90={v['p90']:.6g}" if "p90" in v else ""
        print(f"metric {name} = {v['median']:.6g} {v['unit']} (n={v['n']}){tail}")


def _print_failures(f: dict):
    causes = ", ".join(f"{c}={v:.4g}" for c, v in f["by_cause"].items()) or "none"
    print(f"metric fail_frac = {f['fail_frac']:.4g} ratio (n={f['attempted']}; by cause: {causes})")
    for kind, k in f["by_kind"].items():
        causes = ", ".join(f"{c}={v}" for c, v in k["causes"].items()) or "none"
        print(f"metric fail_frac.{kind} = {k['fail_frac']:.4g} ratio (n={k['attempted']}; failed by cause: {causes})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pendnf" / "__init__.py").is_file():
        print(f"perfbench: no pendnf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    golden = checks.load_golden()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"pendnf benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    if not args.trace:
        p = run_pass(args.workload, args.seed, args.seconds, False, golden, SETUP_PROBES, tag)
        gated, named = end_to_end(args.workload, p)
        passes = [p]
        correct = True
    else:
        half = args.seconds / 2.0
        plain = run_pass(args.workload, args.seed, half, False, golden, 0, tag + "-plain")
        traced = run_pass(args.workload, args.seed, half, True, golden, 0, tag)
        overhead = (latency_gm(args.workload, traced, normalized=True)
                    / latency_gm(args.workload, plain, normalized=True) - 1.0)
        gated = per_layer(traced, overhead)
        named = {k: {"unit": v["unit"], "median": v["value"], "n": 1} for k, v in gated.items()}
        passes = [plain, traced]
        correct = _selftest()

    merged = Pass()
    for p in passes:
        merged.outcomes += p.outcomes
    fail = failures(merged)
    _print_named(named)
    if args.workload == "exact-deep":
        share = reuse_share(passes[0])
        print(f"metric reuse_share = {share:.4g} ratio (n={len(passes[0].table_orders)})")
    _print_failures(fail)
    excess = checks.excess(fail["by_kind"])
    for line in excess:
        print(f"ledger excess: {line}")
    correct = correct and fail["unexpected"] == 0 and not excess
    record = {"workload": args.workload, "environment": _environment(args.seed),
              "seconds": args.seconds, "trace": args.trace, "metrics": named,
              "failures": fail, "ledger_excess": excess, "correct": correct}
    if args.workload == "exact-deep":
        record["reuse_share"] = reuse_share(passes[0])
    # every sample of the small classes, raw and normalized, in run order
    record["samples"] = {label: {"raw": values, "ref": passes[0].norm[label]}
                         for label, values in passes[0].samples.items() if len(values) <= 200}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": fail["attempted"],
                      "failed": fail["unexpected"], "metrics": gated}))
    return 0


def _on_deadline(signum, frame):
    raise BenchError(f"stopped by signal {signum} (the deadline is {DEADLINE_S} s)")


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.signal(signal.SIGTERM, _on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        code = main()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        code = 1
    finally:
        signal.alarm(0)
        for w in list(_LIVE):
            w.kill()
    sys.exit(code)
