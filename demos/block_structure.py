"""Block structure of the rate quadratic form.

The n! x n! rate matrix carries the regular representation of the symmetric
group, so one orthogonal transform (independent of arrival times and of the
interferometer) splits it into repeated blocks labeled by partitions of n.
This demo builds the transform for three particles, shows the block layout,
and reassembles the coincidence rate from per-block contributions.
"""

import numpy as np

from partdist import (
    all_permutations,
    block_decompose,
    build_transform,
    delay_matrix_from_times,
    haar_unitary,
    monomial_vector,
    rate_blocked,
    rate_direct,
    rate_matrix,
    standard_tableau_count,
    submatrix,
)
from partdist.interferometer import output_text


def main():
    n = 3
    ordering = all_permutations(n)
    T = build_transform(ordering)

    print("orthogonal block transform for n = 3 (6 x 6):")
    print("layout: label, multiplicity s, block size s x s, copies")
    for lam, offset, dim in T.layout:
        s = standard_tableau_count(lam)
        print(f"  {str(lam):12} s={s}  rows {offset}..{offset + dim * s - 1}")
    ortho = np.max(np.abs(T.matrix @ T.matrix.T - np.eye(6)))
    print(f"orthogonality defect: {ortho:.2e}")

    itf = haar_unitary(5, seed=42)
    detectors = (1, 3, 4)
    A = submatrix(itf, detectors, (1, 2, 3))
    v = monomial_vector(A, ordering)
    r = delay_matrix_from_times([0.0, 0.35, 0.9], 1.2)

    for species in ("boson", "fermion"):
        R = rate_matrix(r, species, ordering)
        direct = rate_direct(v, R)
        decomp = block_decompose(v, R, T)
        print(f"\n{species}: rate for output {output_text(detectors, 5)}")
        total = 0.0
        for lam in sorted(decomp.blocks, reverse=True):
            term = decomp.term(lam)
            total += term
            print(f"  block {str(lam):12} contributes {term:+.6f}")
        print(f"  sum of blocks  {total:.6f}")
        print(f"  direct value   {direct:.6f}")
        print(f"  blocked value  {rate_blocked(decomp):.6f}")


if __name__ == "__main__":
    main()
