"""Two rank-3 maxout units on the plane, counted three independent ways.

The units are max{2y, x+y+1, 2} and max{0, 3x+2y, 5x+y}.  Their indecision
boundaries form six atoms; the arrangement has 8 regions, 12 one-dimensional
faces, and 5 vertices, and the counts agree between brute-force cell
enumeration, the Euler/Mobius poset formula, and Minkowski-sum duality.
"""

from collections import Counter

from tropic.arrangement import (
    build_atoms,
    build_poset,
    count_regions_bruteforce,
    enumerate_cells,
)
from tropic.minkowski import dual_region_count
from tropic.network import layer, unit

l = layer(
    [
        unit([[0, 2], [1, 1], [0, 0]], [0, 1, 2]),
        unit([[0, 0], [3, 2], [5, 1]], [0, 0, 0]),
    ]
)

arr = build_atoms(l)
print("atoms (unit, feature pair):")
for a in arr.atoms:
    print(f"  unit {a.unit}, features {a.pair}")

cells = enumerate_cells(l)
by_dim = Counter(c.dim for c in cells)
print(f"\ncells by dimension: {dict(sorted(by_dim.items()))}")
print(f"bounded full-dimensional cells: {sum(1 for c in cells if c.dim == 2 and c.bounded)}")

poset = build_poset(arr)
print("\nintersection poset (dim, psi, mobius):")
for e in poset.elements:
    print(f"  dim {e.dim}  psi {e.psi:+d}  mu {poset.mobius_from_bottom[e.id]:+d}")

print(f"\nregions via poset formula:   {poset.face_counts[2]}")
print(f"regions via cell enumeration: {by_dim[2]}")
print(f"1-faces via poset formula:    {poset.face_counts[1]}")
print(f"1-faces via cell enumeration: {by_dim[1]}")

print(f"\nMinkowski duality: {count_regions_bruteforce(l).regions} regions = "
      f"{dual_region_count(l)} upper vertices of the lifted sum")
