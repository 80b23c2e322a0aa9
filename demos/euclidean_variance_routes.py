"""Planar count variance by one radial integral, checked against a closed form.

Translation invariance reduces the variance of the number of particles of
the planar determinantal process inside a centred disc to one radial
integral against the Euclidean area A(rho) of the lens D_r^c cap D_r(rho).
Shirai's weighted Laguerre integral is the same integral: his angular
factor is that area, r g(t) = A(sqrt(t)).  Past rho = 2r the area is pi r^2,
and the rest of the integral is an exact Gauss-Laguerre sum.  So the route
names shirai and geometric label one computation; the Ginibre closed form
r^2 e^{-2 r^2} (I_0 + I_1)(2 r^2) at n = 0 is the independent check.
The variance grows linearly in r for large radii, in contrast with the r^2
growth a Poisson process of the same intensity would show.

Run:  python demos/euclidean_variance_routes.py
"""

from scipy import special

from dppstats import EuclideanLevel, variance_euclidean_shirai

print("the radial integral against the Ginibre closed form (n = 0)")
print(f"{'r':>7} {'variance':>18} {'closed form':>18} {'rel diff':>10}")
for r in (0.5, 1.0, 2.0, 10.0, 100.0):
    a = variance_euclidean_shirai(EuclideanLevel(0), r).value
    ref = r * r * (special.ive(0, 2 * r * r) + special.ive(1, 2 * r * r))
    print(f"{r:>7.2f} {a:>18.12f} {ref:>18.12f} {abs(a - ref) / ref:>10.2e}")

print()
print("linear growth of the variance (V/r stabilises)")
print(f"{'n':>3}" + "".join(f"{f'V/r at r={r:g}':>16}" for r in (5, 10, 20, 40)))
for n in (0, 1):
    level = EuclideanLevel(n)
    ratios = [variance_euclidean_shirai(level, r).value / r for r in (5.0, 10.0, 20.0, 40.0)]
    print(f"{n:>3}" + "".join(f"{v:>16.6f}" for v in ratios))

print()
print("small discs are Poisson-like: V ~ mean ~ r^2")
for r in (0.05, 0.1, 0.2):
    v = variance_euclidean_shirai(EuclideanLevel(0), r).value
    print(f"  r={r:<5g} V={v:.8f}   r^2={r * r:.8f}   V/r^2={v / r ** 2:.4f}")
