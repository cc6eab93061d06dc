"""Where sign tables live inside Sylvester Hadamard matrices.

The truth table of order m lists every length-m sign column with a leading
+1.  Its rows, and the rows of its column-pairwise-product table, are all
rows of the Sylvester Hadamard matrix of order 2^(m-1) -- each one pinned
down by a single integer bitmask.
"""

from hadamardesque import (
    format_matrix,
    free_masks,
    pair_masks,
    pair_product_table,
    pair_rows,
    pair_to_mask,
    row_mask,
    sylvester,
    truth_table,
)

m = 4
n = 1 << (m - 1)

print(f"Truth table of order {m}: every sign column (1, +-1, ..., +-1) once.")
print(format_matrix(truth_table(m)))

print(f"Sylvester Hadamard matrix of order {n}:")
print(format_matrix(sylvester(m - 1)))

print("Each truth row is a Hadamard row; the mask names the row:")
for k in range(1, m + 1):
    mask = row_mask(k)
    print(f"  truth row {k} = Hadamard row {mask + 1} (mask {mask:0{m - 1}b})")

print()
print("Pairwise products of the truth rows fill more Hadamard rows:")
print(format_matrix(pair_product_table(m)))
for linear in range(1, m * (m - 1) // 2 + 1):
    i, j = pair_rows(linear)
    mask = pair_to_mask(m, linear)
    row = list(sylvester(m - 1).row(mask + 1))
    print(f"  rows ({i},{j}) -> Hadamard row {mask + 1}: {row}")

print()
print(f"Masks hit by some row pair:   {sorted(pair_masks(m))}")
print(f"Masks free of every row pair: {sorted(free_masks(m))}")
print("The free rows span exactly the directions a weight vector may use")
print("without disturbing any pairwise row dot product.")
