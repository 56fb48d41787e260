"""Block structure of the rate quadratic form.

The n! x n! rate matrix carries the regular representation of the symmetric
group, so one orthogonal transform (independent of arrival times and of the
interferometer) splits it into repeated blocks labeled by partitions of n.
This demo shows the block layout for three particles and reassembles the
coincidence rate from the per-block contributions that the blocked engine
reports with it.
"""

from partdist import (
    delay_matrix_from_times,
    engine_rates,
    haar_unitary,
    partitions_of,
    standard_tableau_count,
    submatrix,
)


def main():
    n = 3
    print("orthogonal block transform for n = 3 (6 x 6):")
    print("layout: label, multiplicity s, block size s x s, copies")
    offset = 0
    for lam in partitions_of(n):
        s = standard_tableau_count(lam)
        print(f"  {str(lam):12} s={s}  rows {offset}..{offset + s * s - 1}")
        offset += s * s

    itf = haar_unitary(5, seed=42)
    detectors = (1, 3, 4)
    A = submatrix(itf, detectors, (1, 2, 3))
    r = delay_matrix_from_times([0.0, 0.35, 0.9], 1.2)
    text = "".join("1" if k in detectors else "0" for k in range(1, itf.m + 1))

    for species in ("boson", "fermion"):
        blocked = engine_rates(A, r, species, "blocked")
        direct = engine_rates(A, r, species, "direct")
        print(f"\n{species}: rate for output {text}")
        total = 0.0
        for row in blocked.blocks:
            total += row["term"]
            print(f"  block {str(row['lam']):12} contributes {row['term']:+.6f}")
        print(f"  sum of blocks  {total:.6f}")
        print(f"  direct value   {float(direct.rates):.6f}")
        print(f"  blocked value  {float(blocked.rates):.6f}")


if __name__ == "__main__":
    main()
