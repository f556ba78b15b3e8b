#!/usr/bin/env python3
"""Exact geometry of the violation polytopes.

The constraints carved out by summing triple inequalities, their vertices in
exact rationals, and the consistency check that the inequality description
is tight: every vertex of the 7-dimensional (correlators, delta) polytope
sits in the delta = 0 or delta = 2 slice and is realized by an actual box.
"""
from fractions import Fraction

from signalcap import geometry

print("== the two-setting polytope at delta = 1/2 ==")
poly = geometry.build_q_delta(2, Fraction(1, 2))
print(geometry.dump_h_representation(poly))

print("== vertices at maximal violation (forced faces) ==")
for v in geometry.enumerate_vertices(geometry.build_q_delta(2, 2)):
    print("  ", v)
print("note x_B^0 = x_B^1 = 1 everywhere, x_A^1 = y_B^1 and y_A^1 = -y_B^0\n")

print("== vertex counts shrink as the violation grows ==")
for d in (0, 1, 2):
    n = len(geometry.enumerate_vertices(geometry.build_q_delta(2, d)))
    print(f"  delta={d}: {n} vertices")
print()

print("== tightness check ==")
rep = geometry.verify_characterization()
print(f"vertices of the (c, delta) polytope: {rep.vertex_count}")
print(f"slice counts: {rep.slice_counts}")
print(f"all vertices in delta in {{0, 2}}: {rep.q_vertices_in_slices}")
print(f"every vertex has an exact box preimage: {rep.all_preimages_found}")
