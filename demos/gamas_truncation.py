"""Which blocks vanish when arrival times collide.

Coincident arrival times make the delay matrix a Gram matrix of repeated
vectors, and whole blocks of the rate quadratic form then vanish
identically: a block survives only when its label dominates the bin-
occupancy partition (for fermions, when its conjugate does).  Dropping the
doomed blocks before evaluating anything is free — on snapped times the
truncated rate is exact.
"""

from partdist import (
    ArrivalSpec,
    discretize,
    engine_rates,
    gamas_vanishes,
    haar_unitary,
    partitions_of,
    snapped_delay_matrix,
    submatrix,
)


def survival_table(n):
    parts = partitions_of(n)
    width = max(len(str(p)) for p in parts) + 2
    print(f"survival of block labels (rows) vs bin occupancies (columns), n={n}")
    print("  0 = vanishes identically, . = generically nonzero")
    header = " " * width + "".join(str(mu).rjust(width) for mu in parts)
    print(header)
    for lam in parts:
        cells = "".join(
            ("0" if gamas_vanishes(lam, mu) else ".").rjust(width) for mu in parts
        )
        print(str(lam).ljust(width) + cells)


def main():
    survival_table(4)

    # four particles, two sharing a bin: occupancy (2,1,1)
    spec = ArrivalSpec((0.05, 0.08, 0.40, 0.78), 6.0, 1.0, 10)
    idx, part = discretize(spec)
    print(f"\narrival times {spec.taus} in {spec.bins} bins -> occupancy {part}")

    itf = haar_unitary(6, seed=9)
    A = submatrix(itf, (1, 2, 4, 6), (1, 2, 3, 4))
    r = snapped_delay_matrix(idx, spec)

    for species in ("boson", "fermion"):
        truncated = engine_rates(A, r, species, "truncated")
        print(f"\n{species}:")
        for row in truncated.blocks:
            tag = "keep" if row["kept"] else "drop"
            print(f"  {tag} {str(row['lam']):14} |block| = {row['magnitude']:.3e}"
                  f"  term = {row['term']:+.3e}")
        direct = engine_rates(A, r, species, "direct")
        print(f"  truncated rate = {float(truncated.rates):.12f}")
        print(f"  direct rate    = {float(direct.rates):.12f}")


if __name__ == "__main__":
    main()
