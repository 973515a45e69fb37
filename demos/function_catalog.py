"""
Operator monotone functions and their tilde transforms
=======================================================

Every metric in this package is generated by a normalized symmetric operator
monotone function f on (0, inf).  All of them sit between the harmonic
generator 2x/(1+x) and the arithmetic generator (1+x)/2, and the regular ones
(f(0) > 0) admit a tilde transform that governs how far the metric bound sits
below the plain covariance.
"""

import numpy as np

from qfivol import builtin, regular_builtins, scalar_mean, tilde, tilde_order, wyd

points = np.array([0.1, 0.5, 1.0, 2.0, 10.0])

print("values between the harmonic and arithmetic generators")
print(f"{'x':>8}" + "".join(f"{fid:>12}" for fid in ("rld", "wy", "wyd:0.25", "sld")))
for x in points:
    row = [builtin(fid)(x) for fid in ("rld", "wy", "wyd:0.25", "sld")]
    print(f"{x:>8.2f}" + "".join(f"{v:>12.6f}" for v in row))

print()
print("tilde transforms of the regular builtins (rld has none: f(0) = 0)")
for f in regular_builtins():
    ft = tilde(f)
    print(f"  {f.fid:<10} f(0) = {f.value_at_zero:<6.4g} tilde: {f.tilde_closed_form.formula}")
    # the transform is non-regular by construction
    assert ft.value_at_zero == 0.0

print()
print("the tilde transforms are totally ordered on the builtins:")
chain = regular_builtins()
for f, g in zip(chain, chain[1:]):
    order = tilde_order(f, g)
    print(f"  tilde[{f.fid}] <= tilde[{g.fid}]: {order.first_le_second}")

print()
print("every tilde mean sits below the arithmetic mean (x+y)/2, and the")
print("shortfall is exactly f(0)(x-y)^2 / (2 m_f(x, y)):")
x, y = 4.0, 1.0
print(f"  arithmetic mean of (4, 1) = {0.5 * (x + y):.6f}")
for f in regular_builtins():
    m = scalar_mean(f, x, y)
    mt = scalar_mean(tilde(f), x, y)
    shortfall = f.value_at_zero * (x - y) ** 2 / (2.0 * m)
    print(
        f"  {f.fid:<10} m_f = {m:.6f}   m_tilde = {mt:.6f}   "
        f"shortfall = {shortfall:.6f}"
    )
