"""The binary tetrahedral group 2T built from the A3 root system.

Closing the 12 unit root vectors of A3 under the geometric product gives
Pin(A3), order 48; its even half Spin(A3) is the order-24 double cover of
the chiral tetrahedral rotation group.

Run:  python3 demos/03_tetrahedral_groups.py
"""

import math

from versorlab import (
    blade, catalog, conjugacy_classes, generate_pin, generate_spin, quotient_by_sign,
    spinor_coords,
)

rs = catalog("A3")
spin = generate_spin(rs)
pin = generate_pin(rs)
print(f"|Pin(A3)| = {pin.order}, |Spin(A3)| = {spin.order}")
print(f"chiral quotient: {quotient_by_sign(spin).order},",
      f"full quotient: {quotient_by_sign(pin).order}")

print()
print("== conjugacy classes of Spin(A3) = 2T ==")
print(f"{'size':>4} {'order':>5}  representative")
for c in conjugacy_classes(spin):
    print(f"{c.size:>4} {c.element_order:>5}  {c.representative.mv}")

print()
print("== every spinor is +-exp(B theta) ==")
# each element's spinor coordinates (a0, b) give R = sign(a0) (cos theta + B sin theta),
# theta = atan2(|b|, |a0|) and B = sign(a0) (b1 e23 + b2 e31 + b3 e12) / |b|
e23, e31, e12 = blade(rs.sig, "e23"), -blade(rs.sig, "e13"), blade(rs.sig, "e12")
scalars, counts, axes = [], {}, set()
for v in spin.elements:
    a0, *b = spinor_coords(v).tolist()
    bmag = math.hypot(*b)
    if bmag <= 1e-9:
        scalars.append(str(v.mv))
        continue
    theta = round(math.atan2(bmag, abs(a0)), 9)
    counts[theta] = counts.get(theta, 0) + 1
    if math.isclose(theta, math.pi / 3):
        s = math.copysign(1.0, a0) / bmag
        axes.add(str(s * b[0] * e23 + s * b[1] * e31 + s * b[2] * e12))
print("scalars:", scalars)
for theta, n in sorted(counts.items()):
    print(f"  theta = {theta / math.pi:.4f} pi : {n} elements")
print()
print("the 16 elements at pi/3 use the 8 diagonal bivector axes:")
for s in sorted(axes):
    print("  B =", s)
