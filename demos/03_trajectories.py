"""One libration, four representations: closed elliptic form, resummed nome
series, hyperbolic normal coordinates, and a plain adaptive integrator.

Run:  python demos/03_trajectories.py
"""

import math

from pendnf import dynamics as dyn, elliptic as el
from pendnf.dynamics import PendulumParams
from pendnf.elliptic import Modulus

par = PendulumParams(I=1.0, g=1.0)
mod = Modulus.from_h(0.5)
x_prime = el.nome_from_h(mod)
energy = 2 * par.g**2 * par.I / mod.k**2

print(f"Libration at h = {mod.h} (k = {mod.k:.4f}, nome x' = {x_prime:.6f})")
print(f"Energy above the separatrix: U = {energy:.6f}, rate g0 = {el.g0_from_nome(x_prime, par.g):.6f}\n")

runs = {
    name: dyn.trajectory(name, mod, par, 0.0, 3.0, 0.75, tol=1e-12)
    for name in ("closed", "series", "normal", "rk")
}

print(f"{'t':>6} | " + " | ".join(f"{name + ' beta':>16}" for name in runs))
for i, t in enumerate(r.t for r in runs["closed"]):
    row = " | ".join(f"{recs[i].beta:16.12f}" for recs in runs.values())
    print(f"{t:6.2f} | {row}")

print("\nPairwise spread across representations:")
base = runs["closed"]
for name, recs in runs.items():
    if name == "closed":
        continue
    worst = max(
        max(abs(r.beta - b.beta), abs(r.B - b.B)) for r, b in zip(recs, base)
    )
    print(f"  closed vs {name:6s}: {worst:.2e}")

print("\nEnergy conservation along the closed form, t in [0, 20/g]:")
drift = max(
    abs(dyn.hamiltonian(dyn.closed_form_state(t, mod, par), par) - energy)
    for t in (i / 20 for i in range(401))
)
print(f"  max |H - U| = {drift:.2e}  (relative {drift / energy:.2e})")

print("\nThe angle is tracked unwrapped; one winding per period T = ln(1/x')/g0:")
period = math.log(1.0 / x_prime) / el.g0_from_nome(x_prime, par.g)
b0 = dyn.closed_form_state(1.0, mod, par).beta
b1 = dyn.closed_form_state(1.0 + period, mod, par).beta
print(f"  T = {period:.6f},  beta(t+T) - beta(t) = {b1 - b0:.12f}  (2 pi = {2 * math.pi:.12f})")
