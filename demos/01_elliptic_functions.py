"""Tour of the elliptic kernel: complete integrals, Jacobi functions, the
nome and the energy-dependent rate.

Run:  python demos/01_elliptic_functions.py
"""

import math

from pendnf import elliptic as el
from pendnf.elliptic import Modulus

print("Complete integrals (modulus convention)")
print(f"  K(0)   = {el.complete_k(0.0):.15f}   (pi/2 = {math.pi / 2:.15f})")
print(f"  K(0.5) = {el.complete_k(0.5):.15f}")
print(f"  E(0.5) = {el.complete_e(0.5):.15f}")
print(f"  E(1)   = {el.complete_e(1.0):.15f}")

print("\nJacobi functions at u = 1, m = 0.7")
am, sn, cn, dn = el.jacobi_elliptic(1.0, 0.7)
print(f"  am = {am:.15f}  sn = {sn:.15f}  cn = {cn:.15f}  dn = {dn:.15f}")
print(f"  sn^2 + cn^2 - 1        = {sn * sn + cn * cn - 1:+.2e}")
print(f"  dn^2 + m^2 sn^2 - 1    = {dn * dn + 0.49 * sn * sn - 1:+.2e}")

print("\nThe amplitude unwraps: am(u + 4K) - am(u) = 2 pi")
K = el.complete_k(0.7)
print(f"  {el.jacobi_elliptic(1.0 + 4 * K, 0.7)[0] - am:.15f}  (2 pi = {2 * math.pi:.15f})")

print("\nModulus bookkeeping: h parametrizes energy smoothly through the separatrix")
for h in (0.05, 0.3, 0.7, 0.95):
    mod = Modulus.from_h(h)
    x = el.nome_from_h(mod)
    lam = el.lambda_from_h(mod)
    g0 = el.g0_eval(mod, 1.0)
    print(
        f"  h = {h:4.2f}  k = {mod.k:9.4f}  nome x' = {x:.6e}  lambda = {lam:.6e}"
        f"  g0/g = {g0:.6f}"
    )

print("\nThe nome is tiny near the separatrix (x' ~ h^2/16) and the rate tends to g")
for h in (1e-2, 1e-4):
    x = el.nome_from_h(Modulus.from_h(h))
    print(f"  h = {h:.0e}:  x' = {x:.3e}  vs h^2/16 = {h * h / 16:.3e}")

print("\nLegendre's relation certifies K and E together")
grid = [0.05 + 0.9 * i / 49 for i in range(50)]
worst = max(abs(el.legendre_defect(Modulus.from_h(h))) for h in grid)
print(f"  max |E(h)K(h') + E(h')K(h) - K(h)K(h') - pi/2| = {worst:.2e} on 50 points")

print("\nTwo independent routes to the rate g0 agree")
for h in (0.2, 0.6):
    mod = Modulus.from_h(h)
    a = el.g0_eval(mod, 1.0)
    b = el.g0_from_nome(el.nome_from_h(mod), 1.0)
    print(f"  h = {h}:  K-route {a:.15f}   product-route {b:.15f}")
