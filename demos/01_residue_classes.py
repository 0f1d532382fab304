"""How a blocklength splits into residue classes.

The DFT matrix of size N has entries W^(kn mod N). For 4 | N the exponents
kn mod N fall into N/4 classes of four values each: class m holds
m, m + N/4, m + N/2, m + 3N/4 (mod N), and those four positions carry the
unit coefficients 1, -j, -1, j. This script shows the classes for a few
blocklengths and checks they tile the exponent range exactly.
"""

import numpy as np

from laurentfft import (class_indices, class_members, class_tables,
                        exponent_matrix)

for n in (12, 16, 20):
    indices = class_indices(n)
    print(f"blocklength {n}: genus {n // 4}, indices {tuple(indices)}")
    for m in indices:
        print(f"  C[{m:>2}] = {class_members(n, m)}")
    # the classes partition [0, n) exactly when every residue carries one
    # unit entry across all the classes' (re, im) tables
    tables = [t for m in indices for t in class_tables(n, m)]
    holds = bool(np.all(np.abs(tables).sum(axis=0) == 1))
    print(f"  partition holds: {holds} ({len(indices)} classes x 4 members)")
    print()

# the exponent grid itself, small enough to eyeball at N=8
exp = exponent_matrix(8)
print("exponent grid for N=8 (entry = k*n mod 8):")
print(exp)
print()

# each grid cell belongs to exactly one class matrix, the class's tables
# read at the grid
claimed = sum((re[exp] != 0) | (im[exp] != 0)
              for re, im in (class_tables(8, m) for m in class_indices(8)))
print("cells claimed by exactly one class matrix:",
      bool(np.all(claimed == 1)))
