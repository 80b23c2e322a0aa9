"""Disc-process count variance and its blow-up near the boundary.

For the determinantal processes living on the Poincare disc the variance of
the count in a centred disc of radius r is a radial integral against the
hyperbolic lens area, which Gauss-Bonnet gives in closed form.  At the
lowest level m = 0 the count is also a sum of independent Bernoullis, and
its variance series is an independent check.
As r -> 1 the variance blows up like C / (1 - r^2); the constant C is an
exact finite Gauss-Jacobi sum, bounded above by 2(nu - m) - 1.  At the lowest
level with nu = 1 everything is exactly solvable: V = r^2 / (1 - r^4) and
C = 1/2, which this script uses as a benchmark.

Run:  python demos/hyperbolic_asymptotics.py
"""

from dppstats import (HyperbolicLevel, asymptotic_constant, variance_hyperbolic,
                      variance_series)

print("benchmark at (nu, m) = (1, 0): exact variance r^2/(1 - r^4)")
print(f"{'r':>6} {'computed':>16} {'exact':>16} {'rel err':>10}")
for r in (0.2, 0.5, 0.8, 0.95):
    v = variance_hyperbolic(HyperbolicLevel(1.0, 0), r).value
    exact = r * r / (1 - r ** 4)
    print(f"{r:>6.2f} {v:>16.10f} {exact:>16.10f} {abs(v - exact) / exact:>10.1e}")

print()
print("lens integral against the Bernoulli series at (nu, m) = (3.2, 0)")
level = HyperbolicLevel(3.2, 0)
print(f"{'r':>6} {'lens integral':>16} {'series':>16} {'rel diff':>10}")
for r in (0.3, 0.6, 0.9):
    a = variance_hyperbolic(level, r).value
    b = variance_series(3.2, r)
    print(f"{r:>6.2f} {a:>16.10f} {b:>16.10f} {abs(a - b) / a:>10.1e}")

print()
print("boundary blow-up: (1 - r^2) V(r) approaches the limit constant")
for nu, m in ((1.0, 0), (2.0, 1), (3.2, 2)):
    level = HyperbolicLevel(nu, m)
    c = asymptotic_constant(level)
    print(f"  (nu, m) = ({nu}, {m}):  C = {c:.8f}   bound 2(nu-m)-1 = {level.beta}")
    for r in (0.9, 0.99, 0.999):
        scaled = (1 - r * r) * variance_hyperbolic(level, r).value
        print(f"    r={r:<6}  (1-r^2) V = {scaled:.8f}   ratio to C = {scaled / c:.6f}")
