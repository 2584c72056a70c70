"""Upper vertices of a Minkowski sum vs regions of the matching layer.

A segment (the lift of max(0, 2x+2y)) plus a triangle (the lift of
max(x+1, y+1, x+y)) has six vertices, of which five are visible from above;
the layer of those two units splits the plane into five linear regions.
"""

from tropic.arrangement import count_regions_bruteforce
from tropic.minkowski import classify_vertices, minkowski_sum, point_set
from tropic.network import layer, unit

segment = point_set([[0, 0, 0], [2, 2, 0]], label="max(0, 2x+2y)")
triangle = point_set([[1, 0, 1], [0, 1, 1], [1, 1, 0]], label="max(x+1, y+1, x+y)")

total = minkowski_sum([segment, triangle])
cls = classify_vertices(total)
print("summed points and their classification:")
for p, v, u in zip(cls.points, cls.is_vertex, cls.is_upper_vertex):
    kind = "upper vertex" if u else ("strict lower vertex" if v else "not a vertex")
    print(f"  {tuple(int(x) for x in p)}: {kind}")
print(f"\n{cls.vertex_count} vertices, {cls.upper_count} visible from above")

l = layer([unit([[0, 0], [2, 2]], [0, 0]), unit([[1, 0], [0, 1], [1, 1]], [1, 1, 0])])
rc = count_regions_bruteforce(l)
print(f"regions of the corresponding layer: {rc.regions}")
assert rc.regions == cls.upper_count
