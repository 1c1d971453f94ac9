"""The finite side of the story: classic ray sets that admit no coloring.

Each bundled set is a finite list of integer-coordinate rays.  Its
orthogonality graph (edges = exactly orthogonal pairs, decided in integer
arithmetic) plus its bases (d-cliques) forms a constraint system: at most
one 1 per edge, exactly one 1 per basis.  For these sets the backtracking
solver proves no assignment exists, which is the finite, checkable form of
the no-valuation theorem.
"""

from kswitness import enumerate_bases, find_valuation, load_bundled

print("set             rays  edges  bases  colorable  nodes")
print("-" * 56)
for name in ("single_basis3", "disjoint_bases3", "cabello18",
             "kernaghan20", "peres24", "peres33"):
    rs = load_bundled(name)
    graph = rs.graph
    bases = rs.bases if rs.bases is not None else enumerate_bases(graph, rs.dimension)
    result = find_valuation(graph, bases)
    print(f"{name:15s} {len(rs):4d}  {graph.edge_count:5d}  {len(bases):5d}"
          f"  {str(result.colorable):9s}  {result.nodes_explored:5d}")

print()
print("=== the parity argument for cabello18, by hand ===")
rs = load_bundled("cabello18")
counts = {}
for basis in rs.bases:
    for i in basis:
        counts[i] = counts.get(i, 0) + 1
print(f"bases: {len(rs.bases)} (odd); each ray appears "
      f"{sorted(set(counts.values()))} times (even).")
print("Summing 'exactly one 1 per basis' over 9 bases demands an odd total,")
print("but every ray is counted an even number of times. No coloring exists.")

print()
print("=== provenance ===")
for name in ("cabello18", "peres33", "peres24", "kernaghan20"):
    print(f"{name}: {load_bundled(name).provenance}")
