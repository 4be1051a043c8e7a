"""Binary polyhedral groups against the exceptional Lie diagrams.

Three numbers coincide row by row: the root count of the 3D system, the sum
of irreducible-representation dimensions of its binary (spinor) group, and
the Coxeter number of a matching simply-laced diagram.  Everything here is
computed from scratch -- closure for the counts, Burnside's method on the
group's integer table for the dimensions, and the order of a Coxeter versor
for h -- except the diagram label, which is copied.

Run:  python3 demos/05_ade_numerology.py
"""

from versorlab import (
    abelianization_order, catalog, generate_spin, irrep_dimensions,
    mckay_table, quotient_by_sign,
)

print("== representation data of the binary groups ==")
for name, label in (("A1^3", "Q8"), ("A3", "2T"), ("B3", "2O"), ("H3", "2I")):
    g = generate_spin(catalog(name))
    dims = irrep_dimensions(g)
    ab = abelianization_order(g)
    print(f"  {label:3s} order {g.order:3d}: {dims.class_count} classes, "
          f"abelianization {ab}, dims {list(dims.dims)} (sum {dims.sum})")

print()
print("== the same solver on the rotation quotients ==")
for name, label in (("A3", "T = A4"), ("B3", "O = S4"), ("H3", "I = A5")):
    q = quotient_by_sign(generate_spin(catalog(name)))
    print(f"  {label:6s} order {q.order:2d}: dims "
          f"{list(irrep_dimensions(q).dims)}")

print()
print("== the full table ==")
print(f"{'3D':>5} {'4D':>5} {'diagram':>8} {'group':>6} | "
      f"{'|Phi|':>5} {'sum d':>5} {'h':>3}")
for r in mckay_table():
    print(f"{r.threeD:>5} {r.fourD:>5} {r.lie:>8} {r.binary_group:>6} | "
          f"{r.phi_count:>5} {r.sum_dims:>5} {r.coxeter_h:>3}")
