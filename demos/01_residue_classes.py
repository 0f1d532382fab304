"""How a blocklength splits into residue classes.

The DFT matrix of size N has entries W^(kn mod N). For 4 | N the exponents
kn mod N fall into N/4 classes of four values each: class m holds
m, m + N/4, m + N/2, m + 3N/4 (mod N), and those four positions carry the
unit coefficients 1, -j, -1, j. This script shows the classes for a few
blocklengths and checks they tile the exponent range exactly.
"""

import numpy as np

from laurentfft import (class_indices, decompose, exponent_matrix,
                        residue_class, verify_partition)

for n in (12, 16, 20):
    print(f"blocklength {n}: genus {n // 4}, indices {class_indices(n)}")
    for m in class_indices(n):
        cls = residue_class(n, m)
        print(f"  C[{m:>2}] = {cls.members}")
    report = verify_partition(n)
    print(f"  partition holds: {report.holds} "
          f"({report.class_count} classes x 4 members)")
    print()

# the exponent grid itself, small enough to eyeball at N=8
exp = exponent_matrix(8)
print("exponent grid for N=8 (entry = k*n mod 8):")
print(exp)
print()

# each grid cell belongs to exactly one class matrix
dec = decompose(8)
claimed = sum((cm.re != 0) | (cm.im != 0)
              for cm in map(dec.matrix, dec.indices))
print("cells claimed by exactly one class matrix:",
      bool(np.all(claimed == 1)))
