"""The stable-equilibrium chart: rotation instead of shear, the W normal
form, and its exact mirror relation with the hyperbolic chart.

Run:  python demos/05_stable_oscillations.py
"""

import math

from pendnf import dynamics as dyn, elliptic as el, normal_form as nf
from pendnf.dynamics import PendulumParams

par = PendulumParams(I=1.0, g=1.0)  # g plays the stable-rate g_s here

print("Small oscillations rotate at the amplitude-dependent rate g0_s:")
for xs in (1e-6, 0.01, 0.1, 0.3):
    g0s = el.g0_from_nome(-xs, par.g)
    print(f"  x_s' = {xs:7.0e}:  g0_s/g_s = {g0s / par.g:.8f}")

xs = 0.05
g0s = el.g0_from_nome(-xs, par.g)
period = 2 * math.pi / g0s
print(f"\nTrajectory at amplitude x_s' = {xs} (period {period:.6f}):")
print(f"{'t':>6} {'B':>14} {'beta':>14} {'H_s':>14}")
for t in (period * i / 8 for i in range(9)):
    s = dyn.stable_state(xs, t, par)
    h = s.B**2 / (2 * par.I) + par.I * par.g**2 * (1 - math.cos(s.beta))
    print(f"{t:6.3f} {s.B:14.10f} {s.beta:14.10f} {h:14.10f}")

prod, odd = 1.0, xs
while odd > 1e-18:
    prod *= ((1 + odd * xs) / (1 + odd)) ** 8
    odd *= xs * xs
print(f"  product-formula energy U_s = {32 * par.I * par.g**2 * xs * prod:.10f}")

print("\nStable normal form W(z), argument z = x / (64 I g_s):")
print(" ", nf.stable_bundle(8).normal_energy)

print("\nMirror relation with the hyperbolic chart (exact, coefficient-wise):")
order = 10
calu = nf.normal_energy_series(order)
w = nf.stable_bundle(order).normal_energy
ok = all(calu.coeffs[k] == -((-1) ** k) * w.coeffs[k] for k in range(order + 1))
print(f"  calU(x) = -W(-x) under the normalization, to order {order}: {ok}")

print("\nStable energy series vs hyperbolic energy series (same product, mirrored):")
print("  U_s(z):", nf.stable_bundle(6).energy)
print("  U(x') :", nf.energy_series(6))
