"""Seeded request generation for the three workloads.

Nothing here imports pendnf: every input is built from the seed with the
benchmark's own arithmetic, so the program under test only ever receives the
generated inputs.  Each workload is a closed loop with one client, sent in
"rounds" (an exact-deep round is one session); a run repeats rounds until
its time is up and always finishes the round it started, so every run
covers the same strata of input sizes.

The same (workload, seed) pair always yields the same rounds: random.Random
seeded with a string hashes it with SHA-512, independent of PYTHONHASHSEED.
"""

from __future__ import annotations

import math
import random

# x' bound of the canonical map (the nome inversion's documented domain)
NOME_BOUND = 0.5
# axis points use the same edge as the verify suite's jacobian grid
AXIS_EDGE = 0.45
# 1001 samples on t in [t0, t0 + 10]
TRAJ_SPAN = 10.0
TRAJ_DT = 0.01
TRAJ_METHODS = ("closed", "series", "normal", "rk")
MAPS_PER_ROUND = 80
TRAJ_PER_METHOD = 2
JACOBIAN_EVERY = 20

CLI_SUITES = (
    "dynamics", "elliptic", "factorization", "identity51",
    "jacobian", "legendre", "stable", "theta",
)
CLI_SERIES = ("g0", "U", "D", "a2", "calU", "W", "Us")
CLI_COEFF_ORDERS = (6, 12, 18, 24, 30)
CLI_FORMATS = ("csv", "json", "text")
CLI_MAP_POINTS = 24
CLI_TRAJECTORIES = 8


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"pendnf-bench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# float formulas of the benchmark's own (inputs only, never checked against)


def _g0(xp: float) -> float:
    """g0/g = prod_n ((1 + x'^n) / (1 - x'^n))^2."""
    prod, xn = 1.0, 1.0
    while True:
        xn *= xp
        if abs(xn) < 1e-18:
            return prod
        f = (1.0 + xn) / (1.0 - xn)
        prod *= f * f


def action_of_nome(xp: float) -> float:
    """Normalized action x/(32 I g) = x' a^2(x') with the divisor form
    a^2 = g0(x') sum_n n x'^(n-1) / (1 - x'^(2n))."""
    total, n, xn1 = 0.0, 1, 1.0          # xn1 = x'^(n-1)
    while abs(xn1) >= 1e-18:
        total += n * xn1 / (1.0 - xn1 * xn1 * xp * xp)
        xn1 *= xp
        n += 1
    return xp * _g0(xp) * total


def map_point(rng: random.Random) -> dict:
    """(p, q) with p*q = x(x'), x' uniform on the nome bound; asymmetric
    splits, random signs, and 5% axis points.  Scale 32*I*g = 32 (I = g = 1)."""
    scale = 32.0
    if rng.random() < 0.05:
        u = rng.uniform(-AXIS_EDGE, AXIS_EDGE) * math.sqrt(scale)
        p, q = (0.0, u) if rng.random() < 0.5 else (u, 0.0)
        return {"p": p, "q": q, "xp": 0.0}
    xp = rng.uniform(-NOME_BOUND, NOME_BOUND)
    x = scale * action_of_nome(xp)
    split = math.exp(rng.uniform(-1.5, 1.5))
    p = math.sqrt(abs(x)) * split
    q = x / p
    if rng.random() < 0.5:
        p, q = -p, -q
    return {"p": p, "q": q, "xp": xp}


def orbit_h(rng: random.Random, stratum: int = 0, strata: int = 1) -> float:
    """h log-uniform on [1e-8, 0.99] (about a quarter lie below 1e-6), drawn
    within slice `stratum` of `strata` equal slices of the log range."""
    lo, hi = math.log(1e-8), math.log(0.99)
    return math.exp(lo + (hi - lo) * ((stratum + rng.random()) / strata))


# ---------------------------------------------------------------------------
# exact-deep: sessions of exact requests, one fresh worker per session


def exact_session(rng: random.Random, kind: str) -> list[dict]:
    """One session for one series kind (calU or W): a fresh table at n
    77-79, a theta identity check, the same series at n 60-62 (so half of
    all table requests reuse a longer series computed earlier in the
    session), and a rescaling identity check.

    Each request belongs to a stratum with an order or two of seeded jitter,
    so every run times the same sizes (table time grows about as n^3.4) and
    every session adds one sample to each stratum's median.  The sizes are
    kept small enough for five or six sessions in a 30-second run: medians
    of so many samples hold where those of two or three did not.
    """
    fresh = 78 + rng.randint(-1, 1)
    return [
        {"op": "table", "stratum": "table_fresh", "series": kind, "order": fresh},
        {"op": "identity", "stratum": "identity_theta", "check": "theta",
         "order": 220 + rng.randint(-2, 2)},
        {"op": "table", "stratum": "table_lower", "series": kind,
         "order": fresh - 17 + rng.randint(0, 1)},
        {"op": "identity", "stratum": "identity_rescaling", "check": "rescaling",
         "order": 240 + rng.randint(-2, 2)},
    ]


# ---------------------------------------------------------------------------
# orbits: one warm in-process client, trajectories and map queries


def orbits_round(rng: random.Random) -> list[dict]:
    """TRAJ_PER_METHOD trajectory requests per method and MAPS_PER_ROUND map
    queries, shuffled; a quarter of the closed requests start at t0 in
    [1e3, 1e6].  Each method's h values in a round are stratified over the
    log range: cost per sample grows up to fourfold with h, so a run's
    per-method median should not hang on how its draws happened to fall."""
    reqs = []
    for stratum in range(TRAJ_PER_METHOD):
        for method in TRAJ_METHODS:
            t0 = 0.0
            if method == "closed" and rng.random() < 0.25:
                t0 = math.exp(rng.uniform(math.log(1e3), math.log(1e6)))
            reqs.append({"op": "traj", "method": method,
                         "h": orbit_h(rng, stratum, TRAJ_PER_METHOD),
                         "t0": t0, "t1": t0 + TRAJ_SPAN, "dt": TRAJ_DT})
    for _ in range(MAPS_PER_ROUND):
        req = {"op": "map", **map_point(rng)}
        req["jac"] = rng.randrange(JACOBIAN_EVERY) == 0
        reqs.append(req)
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# cli: process-per-invocation, from a fixed catalogue with golden digests


def cli_catalogue() -> dict[str, list[list[str]]]:
    """Every invocation the cli workload can issue, by class.  Map points
    and trajectory orbits are drawn once from the orbits distributions, so
    each invocation has a stored golden digest of its stdout."""
    rng = random.Random("pendnf-bench:cli-catalogue")
    maps = []
    for _ in range(CLI_MAP_POINTS):
        pt = map_point(rng)
        maps.append(["map", "--p", repr(pt["p"]), "--q", repr(pt["q"])])
    coeffs = []
    for series in CLI_SERIES:
        for order in CLI_COEFF_ORDERS:
            for fmt in CLI_FORMATS:
                base = ["coeffs", "--series", series, "--order", str(order), "--format", fmt]
                coeffs.append(base)
                coeffs.append(base + ["--physical", "--I", "1/32", "--g", "1"])
    trajs = []
    for i in range(CLI_TRAJECTORIES):
        trajs.append(["trajectory", "--method", ("closed", "series")[i % 2],
                      "--h", repr(orbit_h(rng)), "--t1", "2", "--dt", "0.01"])
    return {
        "verify_all": [["verify", "--suite", "all"]],
        "verify_suite": [["verify", "--suite", s] for s in CLI_SUITES],
        "map": maps,
        # the timed coeffs class is one size: the reverted series at the top
        # order, whose cost dominates; the whole table set rides as an extra
        "coeffs": [c for c in coeffs if c[2] in ("calU", "W") and c[4] == str(max(CLI_COEFF_ORDERS))],
        "coeffs_any": coeffs,
        "trajectory": trajs,
    }


def cli_round(rng: random.Random, catalogue: dict[str, list[list[str]]]) -> list[dict]:
    """verify --suite all, a map query and a calU or W coeffs table,
    shuffled; one round in three adds a single-suite verify, a short
    trajectory or any coeffs table."""
    classes = ["verify_all", "map", "coeffs"]
    if rng.randrange(3) == 0:
        classes.append(rng.choice(("verify_suite", "trajectory", "coeffs_any")))
    reqs = [{"op": "cli", "class": cls, "argv": rng.choice(catalogue[cls])} for cls in classes]
    rng.shuffle(reqs)
    return reqs


def rounds(workload: str, seed: int):
    """Endless seeded stream of rounds for one workload."""
    rng = _rng(workload, seed)
    catalogue = cli_catalogue() if workload == "cli" else None
    index = rng.randrange(2)
    while True:
        if workload == "exact-deep":
            # one session per round; the series kinds alternate
            yield exact_session(rng, ("calU", "W")[index % 2])
        elif workload == "orbits":
            yield orbits_round(rng)
        elif workload == "cli":
            yield cli_round(rng, catalogue)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        index += 1
