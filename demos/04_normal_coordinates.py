"""The canonical map (B, beta) <-> (p, q): unit Jacobian, exponential flow,
and the practical domain of the construction.

Run:  python demos/04_normal_coordinates.py
"""

import math

from pendnf import dynamics as dyn, elliptic as el, normal_form as nf
from pendnf.dynamics import NormalCoords, PendulumParams
from pendnf.elliptic import Modulus

par = PendulumParams(I=1.0, g=1.0)
scale = par.action_scale

print("In normal coordinates the motion is pure exponential shear:")
print("  (p, q) -> (p e^{-g0 t}, q e^{+g0 t}),   x = p q invariant\n")

x_prime = 0.08
a = math.sqrt(scale * nf.rescale_sq_series(48)(x_prime))
n0 = NormalCoords(a * math.sqrt(x_prime), a * math.sqrt(x_prime))
print(f"Start at p = q = {n0.p:.6f} (x' = {x_prime}), follow the flow:")
print(f"{'t':>5} {'p':>12} {'q':>12} {'p*q':>12} {'beta':>14} {'H':>14}")
for t in (0.0, 0.5, 1.0, 2.0):
    nt = dyn.normal_flow(n0, t, par)
    st = dyn.canonical_from_normal(nt, par)
    print(
        f"{t:5.2f} {nt.p:12.6f} {nt.q:12.6f} {nt.x:12.8f} "
        f"{st.beta:14.10f} {dyn.hamiltonian(st, par):14.10f}"
    )

print("\nUnit Jacobian determinant of (B, beta) with respect to (p, q):")
for x_test in (-0.1, -0.02, 0.02, 0.1):
    x = scale * nf.x_of_nome_series(48)(x_test)
    t = math.sqrt(abs(x))
    det = dyn.jacobian_det(NormalCoords(t, x / t), par)
    print(f"  x' = {x_test:+.2f}:  det = {det:.9f}")
det = dyn.jacobian_det(NormalCoords(0.0, 0.45 * math.sqrt(scale)), par)
print(f"  on the q axis:  det = {det:.9f}")

print("\nEnergy slope in the normal action equals the rate g0 (canonical pairing):")
for x_test in (0.02, 0.1):
    slope, g0 = dyn.normal_energy_slope(x_test, par)
    print(f"  x' = {x_test}:  dU/dx = {slope:.10f}   g0 = {g0:.10f}")

print("\nPractical domain notes")
print("  the map x = x' a^2(x') saturates on the oscillation side:")
for y in (-0.1, -0.3, -0.5):
    print(f"    x'(= {y:+.1f}) -> x/(32 I g) = {nf.x_of_nome_series(220)(y):+.6f}")
print("  so normal actions below about -0.0796 * 32 I g are not reachable;")
print("  the libration side is uniformly well conditioned for |x'| <= 0.5.")

print("\n  the hyperbolic sums stay accurate even for extreme splits |p'| >> |q'|:")
mod = Modulus.from_h(0.5)
xp = el.nome_from_h(mod)
for gamma in (1.0, 1e2, 1e4, 1e6):
    st = dyn.hyperbolic_state(math.sqrt(xp) / gamma, math.sqrt(xp) * gamma, par)
    drift = abs(dyn.hamiltonian(st, par) - 2 * par.g**2 * par.I / mod.k**2)
    print(f"    gamma = {gamma:8.0e}:  |H - U| = {drift:.2e}")

print("\n  the Taylor series of the normal energy only converges on a small disk")
print("  (radius about 0.066 * 32 I g); point evaluation therefore goes through")
print("  the composed route U(x'(x)), which covers the whole domain:")
for x_test in (0.02, 0.05, 0.1):
    x = scale * nf.x_of_nome_series(48)(x_test)
    series = scale * par.g * nf.normal_energy_series(48)(x / scale)
    composed = dyn.normal_energy(x, par)
    print(
        f"    x' = {x_test}:  series {series:16.6e}   composed {composed:16.6e}"
    )
