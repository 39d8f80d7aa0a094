"""Regenerate perfbench/golden.json: digests of the exact calU and W tables
at every order the exact-deep workload can ask (60-110), and the stdout
digest (or the raised error) of every invocation in the cli catalogue.

The stored file was generated at the commit that introduced the benchmark;
regenerate it only when an output is meant to change.

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from pendnf import cli, normal_form  # noqa: E402
from workloads import cli_catalogue  # noqa: E402
from worker import digest  # noqa: E402

ORDERS = range(60, 111)
# orders computed directly, to confirm the truncation of the order-110
# series gives the same table (coefficients never change with the order)
DIRECT = (60, 85)


def tables() -> dict:
    full = {"calU": normal_form.normal_energy_series(max(ORDERS)),
            "W": normal_form.stable_bundle(max(ORDERS)).normal_energy}
    out = {name: {str(n): digest(s.coeffs[: n + 1]) for n in ORDERS} for name, s in full.items()}
    for n in DIRECT:
        assert digest(normal_form.normal_energy_series(n).coeffs) == out["calU"][str(n)]
        assert digest(normal_form.stable_bundle(n).normal_energy.coeffs) == out["W"][str(n)]
    return out


def cli_digests() -> dict:
    out = {}
    for invocations in cli_catalogue().values():
        for argv in invocations:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(argv))
            except Exception as exc:
                out[" ".join(argv)] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            assert code == 0, argv
            out[" ".join(argv)] = {"stdout": hashlib.sha256(buf.getvalue().encode()).hexdigest()[:32]}
    return out


def main():
    golden = {"tables": tables(), "cli": cli_digests()}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
