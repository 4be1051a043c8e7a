"""Reflection closure: from a handful of seed vectors to a full root system.

Run:  python3 demos/02_root_systems.py
"""

import numpy as np

from versorlab import (
    Signature, cartan_matrix, catalog, catalog_names, check_axioms,
    close_roots, diagram,
)

print("== closing A3 by hand ==")
# three unit mirrors at 120-degree angles along a chain
seeds = [[1.0, 0.0, 0.0],
         [-0.5, np.sqrt(3) / 2, 0.0],
         [0.0, -np.sqrt(1 / 3), np.sqrt(2 / 3)]]
rs = close_roots(seeds, sig=Signature(3, 0), name="A3 (by hand)")
print(rs)
print("axioms hold:", check_axioms(rs).ok)
print("Cartan matrix:")
print(np.round(cartan_matrix(rs).entries, 6))
print("diagram edges (i, j, m):", diagram(rs))

print()
print("== the built-in catalog ==")
for name in catalog_names():
    if name == "I2(n)":
        continue
    r = catalog(name)
    marks = "".join(f"-{e.m}-" for e in diagram(r)) or "(orthogonal)"
    print(f"  {name:5s} rank {r.rank}  |Phi| = {r.root_count:3d}   edges {marks}")

print()
print("== the dihedral family I2(m) has 2m roots ==")
for m in (3, 5, 8):
    print(f"  I2({m}) ->", catalog(f"I2({m})").root_count, "roots")

print()
print("H3 needs the golden ratio; its 30 roots form an icosidodecahedron:")
h3 = catalog("H3")
gram = np.unique(np.round(h3.coords @ h3.coords.T, 6) + 0.0)
print("  distinct pairwise inner products:", gram)
