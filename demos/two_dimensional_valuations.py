"""On the circle, consistent 0/1 valuations exist, and this script builds a
few of them.

A valuation on S^1 assigns each direction a bit so that antipodes agree and
every orthogonal pair sums to exactly 1.  Any {0,1} function g on [0, pi/2)
generates one; the quarter-turn reflections pin down the other three
quadrants.  A consequence worth seeing: the image is always half ones,
whatever g looks like.
"""

import math
import random

from kswitness import Generator2D, Valuation2D, check_basis

rng = random.Random(0)

print("=== a valuation generated by g = indicator of [0.2, 0.9) ===")
gen = Generator2D(((0.2, 0.9),))
v = Valuation2D(gen)

for theta in (0.0, 0.5, 1.2, 2.0, 3.3, 5.0):
    print(f"  v({theta:4.2f}) = {v.value_at_angle(theta)}"
          f"   v(theta+pi) = {v.value_at_angle(theta + math.pi)}"
          f"   v(theta) + v(theta+pi/2) = "
          f"{v.value_at_angle(theta) + v.value_at_angle(theta + math.pi / 2)}")

print("\n=== every orthogonal dyad sums to 1 ===")
for theta in (rng.uniform(0, 2 * math.pi) for _ in range(5)):
    dyad = [(math.cos(theta), math.sin(theta)), (-math.sin(theta), math.cos(theta))]
    print(f"  dyad at angle {theta:5.2f}: sum = {check_basis(v, dyad)}")

print("\n=== the image is automatically 50/50, for any generator ===")
for trial in range(5):
    gen = Generator2D.random(rng)
    v = Valuation2D(gen)
    thetas = [rng.uniform(0, 2 * math.pi) for _ in range(20_000)]
    ones = v.values_at_angles(thetas).mean()
    print(f"  generator with {len(gen.intervals)} interval(s): "
          f"fraction of ones = {ones:.3f}")

print("\nNo such map survives on the 2-sphere; see witness_walkthrough.py.")
