"""Hunting Hadamard matrices as lattice points.

An order-m Hadamard matrix is the same thing as an m-subset of the 2^(m-1)
sign columns whose 0/1 weight vector kills every pair-product row -- a
lattice point with m ones.  The engine backtracks over ascending column
indices, counting for every row pair the chosen columns on which its two
rows agree and those on which they disagree; a branch dies as soon as
either count would pass m/2.  It walks only the sets holding the all-ones
column and emits the rest as their row negations.  Since a Hadamard
matrix's columns are orthogonal too, every other column of such a set has
m/2 minus signs, so only those C(m-1, m/2) balanced columns are candidates:
35 of the 127 columns after column 1 at order 8.
"""

from hadamardesque import (
    SearchOptions,
    column_set_matrix,
    find_hadamard_column_sets,
    format_matrix,
    verify_column_set,
)

print("Order 4: exhaustive search over C(8,4)=70 subsets.")
report = find_hadamard_column_sets(4)
print(f"  solutions={report.solutions} nodes={report.nodes} exhaustive={report.exhaustive}")
for solution in report.solutions:
    print(f"  column set {solution}:")
    print(format_matrix(column_set_matrix(4, solution)))

print("Order 5 (odd): the root parity check empties the tree instantly.")
report = find_hadamard_column_sets(5)
print(f"  solutions={len(report.solutions)} nodes={report.nodes} exhaustive={report.exhaustive}")

print("\nOrder 6: exhaustive proof of nonexistence at desk scale.")
report = find_hadamard_column_sets(6)
print(f"  solutions={len(report.solutions)} nodes={report.nodes} exhaustive={report.exhaustive}")

print("\nOrder 8, first solution (three verification layers at emit):")
report = find_hadamard_column_sets(8, limit=1)
(solution,) = report.solutions
print(f"  found {solution} after {report.nodes} nodes in {report.elapsed:.2f}s")
print(f"  verify_column_set: {verify_column_set(8, solution)}")

print("\nOrder 8, exhaustive: the walk finds the sets holding the all-ones column,")
print("and an unnormalized run also emits their row-negation translates.")
normalized = find_hadamard_column_sets(8, options=SearchOptions(force_first_column=True))
everything = find_hadamard_column_sets(8)
print(f"  normalized: {len(normalized.solutions)} sets, unnormalized: {len(everything.solutions)}"
      f" sets (= {len(normalized.solutions)} * 2^7 / 8), both after {everything.nodes} nodes")

print("\nSame search, normalized to force the all-ones column:")
report = find_hadamard_column_sets(8, limit=1, options=SearchOptions(force_first_column=True))
print(f"  found {report.solutions[0]} (normalized={report.normalized})")
