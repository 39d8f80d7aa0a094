"""Output checks for every request, and the known-failure ledger.

check() returns one (kind, outcome) pair per checked output: outcome is
"ok", a ledger cause from spec.json (a defect present at the seed commit
that the workloads keep exercising, accepted only inside the input region
and error band where it was measured), or "unexpected:<what>" for anything
else.  Failures of either sort count in fail_frac; unexpected ones, and
ledger causes more frequent than measured (excess), make a run incorrect.
Tolerances come from the verify suites and are listed in spec.json.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
TOL = SPEC["tolerances"]
LEDGER = SPEC["ledger"]
LEAD = ["1", "2", "-4", "20", "-132", "1008"]
NONCONVERGENCE = "nome inversion did not converge"


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


def _mirror_lead(lead: list[str]) -> list[str]:
    # coefficient n + 1 of lead[n]; W_n = -(-1)^n calU_n
    return [c if n % 2 == 0 else str(-int(c)) for n, c in enumerate(lead)]


def _table(req, resp, golden):
    if "error" in resp:
        return "unexpected:table_raised"
    other = "W" if req["series"] == "calU" else "calU"
    tables = golden["tables"]
    n = str(req["order"])
    if resp["order"] != req["order"] or resp["digest"] != tables[req["series"]][n]:
        return "unexpected:table_digest"
    if resp["mirror"] != tables[other][n]:
        return "unexpected:mirror_identity"
    lead = resp["lead"] if req["series"] == "calU" else _mirror_lead(resp["lead"])
    if lead != LEAD:
        return "unexpected:leading_coefficients"
    return "ok"


def _identity(req, resp):
    if "error" in resp:
        return "unexpected:identity_raised"
    return "ok" if resp["passed"] and resp["order"] == req["order"] else "unexpected:identity_failed"


def _decade(v: float) -> int:
    return math.floor(math.log10(v))


def _closed_known(req, rel: float):
    """The ledger cause for a closed-method energy error `rel` (on the scale
    max(I g^2, E)), or None when it lies outside every measured band."""
    if req["t0"] >= 1e3:
        cause, key = "closed_long_horizon", f"{_decade(req['h'])}:{_decade(req['t0'])}"
    else:
        cause, key = "closed_separatrix_cancellation", str(_decade(req["h"]))
    limit = LEDGER[cause]["max_rel_err"].get(key)
    return cause if limit is not None and rel <= limit else None


def _nonconvergence(req, error: str) -> bool:
    lo, hi = LEDGER["nome_inversion_nonconvergence"]["xp_interval"]
    return NONCONVERGENCE in error and lo <= req["xp"] <= hi


def _traj(req, resp):
    method = req["method"]
    if "error" in resp:
        return f"unexpected:traj_{method}_raised"
    scale = max(1.0, resp["energy"])          # I g^2 = 1; relative at high energy
    expected = round((req["t1"] - req["t0"]) / req["dt"]) + 1
    dropped = resp["samples"] == expected - 1 and req["t0"] >= 1e3
    if resp["samples"] != expected and not dropped:
        return f"unexpected:traj_{method}_samples"
    if resp["err"] > TOL["trajectory_energy"][method] * scale:
        known = _closed_known(req, resp["err"] / scale) if method == "closed" else None
        return known or f"unexpected:traj_{method}_energy"
    return "time_grid_endpoint" if dropped else "ok"


def _map(req, resp):
    if "error" in resp:
        return "nome_inversion_nonconvergence" if _nonconvergence(req, resp["error"]) else "unexpected:map_raised"
    scale = max(1.0, abs(resp["e_normal"]))
    if abs(resp["e_phase"] - resp["e_normal"]) <= TOL["map_energy"] * scale:
        return "ok"
    return "unexpected:map_energy"


def _jacobian(req, resp):
    if "jac_error" in resp:
        return "nome_inversion_nonconvergence" if _nonconvergence(req, resp["jac_error"]) else "unexpected:jacobian_raised"
    err = abs(resp["det"] - 1.0)
    if err <= TOL["jacobian_det"]:
        return "ok"
    band = f"{math.floor(abs(req['xp']) / 0.05) * 0.05:.2f}"
    limit = LEDGER["jacobian_edge"]["max_abs_err"].get(band)
    return "jacobian_edge" if limit is not None and err <= limit else "unexpected:jacobian_det"


def _cli(req, resp, golden):
    if "error" in resp:
        return "unexpected:cli_raised"
    if resp["exit"] != 0:
        return "unexpected:cli_exit"
    expected = golden["cli"][" ".join(req["argv"])]
    return "ok" if resp["stdout"] == expected["stdout"] else "unexpected:cli_stdout"


def excess(by_kind: dict) -> list[str]:
    """Ledger causes that fail more often in a request kind than measured:
    count > n p + 4 sqrt(n p (1 - p)) + 1, for the kind's n outputs and the
    cause's measured share p in spec.json ledger_measured."""
    rates = SPEC["ledger_measured"]["by_kind"]
    out = []
    for kind, k in by_kind.items():
        n = k["attempted"]
        for cause, count in k["causes"].items():
            if cause.startswith("unexpected:"):
                continue
            p = rates.get(kind, {}).get(cause, 0.0)
            allowed = n * p + 4.0 * math.sqrt(n * p * (1.0 - p)) + 1.0
            if count > allowed:
                out.append(f"{kind} {cause}: {count} of {n}, above {allowed:.1f}")
    return out


def check(req, resp, golden) -> list[tuple[str, str]]:
    op = req["op"]
    if op == "table":
        return [("table", _table(req, resp, golden))]
    if op == "identity":
        return [("identity", _identity(req, resp))]
    if op == "traj":
        return [(f"traj.{req['method']}", _traj(req, resp))]
    if op == "map":
        out = [("map", _map(req, resp))]
        if req["jac"] and "error" not in resp:
            out.append(("jacobian", _jacobian(req, resp)))
        return out
    if op == "cli":
        return [(f"cli.{req['class']}", _cli(req, resp, golden))]
    raise ValueError(f"unknown request op {op!r}")
