"""One benchmark worker: a fresh interpreter that imports pendnf, reports
ready, then serves request batches from run.py over stdin/stdout (one
JSON object per line) until told to stop.

Timing happens here, around the pendnf calls alone; run.py checks the
raw outcomes.  With --trace the worker installs the tracer after set-up and
opens one root span per request.

Run by perfbench/run.py:  python3 perfbench/worker.py --mode exact|orbits|cli
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402


def digest(coeffs) -> str:
    return hashlib.sha256(",".join(str(c) for c in coeffs).encode()).hexdigest()[:32]


class Server:
    def __init__(self, mode: str):
        import pendnf  # noqa: F401  (set-up cost: the import itself)
        from pendnf import cli, dynamics, elliptic, normal_form

        self.cli, self.dynamics, self.elliptic, self.normal_form = cli, dynamics, elliptic, normal_form
        self.par = dynamics.PendulumParams(1.0, 1.0)
        self.sampler = reference.Sampler()
        self.clock = self.sampler.now          # wall time net of reference probes
        self.tracer = None
        self.mode = mode
        if mode == "orbits":
            # one warm request of each kind: lazy imports and the order-48
            # rescale series land in set-up, not in the first request
            for method in ("closed", "series", "normal", "rk"):
                self.traj({"method": method, "h": 0.3, "t0": 0.0, "t1": 0.1, "dt": 0.01})
            self.map({"p": 0.3, "q": 0.2})
            self.jacobian({"p": 0.3, "q": 0.2})

    # -- requests ------------------------------------------------------------

    def table(self, req):
        nf = self.normal_form
        t = self.clock()
        if req["series"] == "calU":
            s = nf.normal_energy_series(req["order"])
        else:
            s = nf.stable_bundle(req["order"]).normal_energy
        t = self.clock() - t
        mirror = [-c if n % 2 == 0 else c for n, c in enumerate(s.coeffs)]
        return {"t": t, "digest": digest(s.coeffs), "mirror": digest(mirror),
                "lead": [str(c) for c in s.coeffs[1:7]], "order": s.order}

    def identity(self, req):
        nf = self.normal_form
        fn = nf.rescaling_identity_check if req["check"] == "rescaling" else nf.theta_logderiv_check
        t = self.clock()
        report = fn(req["order"])
        t = self.clock() - t
        return {"t": t, "passed": report.passed, "order": report.order,
                "first_mismatch": report.first_mismatch}

    def traj(self, req):
        d = self.dynamics
        mod = self.elliptic.Modulus.from_h(req["h"])
        t = self.clock()
        recs = d.trajectory(req["method"], mod, self.par, req["t0"], req["t1"], req["dt"])
        t = self.clock() - t
        h = req["h"]
        energy = 2.0 * self.par.I * self.par.g ** 2 * h * h / ((1.0 - h) * (1.0 + h))
        errs = [abs(r.energy - energy) for r in recs]
        err = max(errs) if all(map(math.isfinite, errs)) else math.inf
        return {"t": t, "samples": len(recs), "err": err, "energy": energy}

    def map(self, req):
        """What `pend-nf map` computes."""
        d, par = self.dynamics, self.par
        n = d.NormalCoords(req["p"], req["q"])
        t = self.clock()
        x_prime = d.nome_from_action(n.x, par)
        state = d.canonical_from_normal(n, par)
        self.elliptic.g0_from_nome(x_prime, par.g)
        e_phase = d.hamiltonian(state, par)
        e_normal = d.normal_energy(n.x, par)
        t = self.clock() - t
        return {"t": t, "e_phase": e_phase, "e_normal": e_normal, "x_prime": x_prime}

    def jacobian(self, req):
        n = self.dynamics.NormalCoords(req["p"], req["q"])
        t = self.clock()
        det = self.dynamics.jacobian_det(n, self.par)
        return {"det": det, "t_jac": self.clock() - t}

    def cli_main(self, req):
        buf = io.StringIO()
        t = self.clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(req["argv"]))
        except SystemExit as exc:
            code = exc.code
        t = self.clock() - t
        return {"t": t, "exit": code,
                "stdout": hashlib.sha256(buf.getvalue().encode()).hexdigest()[:32]}

    def serve(self, req):
        op = req["op"]
        handler = {"table": self.table, "identity": self.identity, "traj": self.traj,
                   "map": self.map, "cli": self.cli_main}[op]
        name = {"traj": f"request.traj.{req.get('method')}",
                "cli": f"request.cli.{req.get('class')}"}.get(op, f"request.{op}")
        out = self._call(name, handler, req, "error", "t")
        if op == "map" and req["jac"] and "error" not in out:
            # the Jacobian probe is timed and traced as a request of its own
            out.update(self._call("request.jacobian", self.jacobian, req, "jac_error", "t_jac"))
        return out

    def serve_batch(self, batch):
        """Serve a batch while the reference sampler runs.  Each response
        carries the mean probe time over its request in exact and cli
        workers, which serve few and long requests, and over the whole batch
        in orbits; a probe just before and after each window makes sure it
        holds at least two."""
        groups = [[req] for req in batch] if self.mode in ("exact", "cli") else [batch]
        s = self.sampler
        out = []
        s.start()
        try:
            for group in groups:
                mark = s.mark()
                s.probe()
                resps = [self.serve(req) for req in group]
                s.probe()
                ref = s.mean_since(mark)
                for resp in resps:
                    resp["ref"] = ref
                out += resps
        finally:
            s.stop()
        return out

    def _call(self, name, handler, req, error_key, time_key):
        """Run one request under its root span; an exception becomes a
        recorded outcome that run.py classifies, with the time it took."""
        t = self.clock()
        try:
            if self.tracer is None:
                return handler(req)
            with self.tracer.span(name):
                return handler(req)
        except Exception as exc:
            return {error_key: f"{type(exc).__name__}: {exc}", time_key: self.clock() - t}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("exact", "orbits", "cli"), required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write kept spans here at the end (with --trace)")
    args = ap.parse_args()

    out = sys.stdout
    server = Server(args.mode)
    if args.trace:
        from tracer import Tracer
        server.tracer = Tracer().install()
    out.write(json.dumps({"ready": True}) + "\n")
    out.flush()
    for line in sys.stdin:
        batch = json.loads(line)
        if batch is None:
            break
        out.write(json.dumps(server.serve_batch(batch)) + "\n")
        out.flush()
    final = {}
    if server.tracer is not None:
        server.tracer.restore()
        final["trace"] = server.tracer.summary()
        if args.spans:
            server.tracer.write_spans(args.spans)
    out.write(json.dumps(final) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
