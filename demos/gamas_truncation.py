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
    all_permutations,
    block_decompose,
    build_transform,
    discretize,
    gamas_vanishes,
    haar_unitary,
    monomial_vector,
    partitions_of,
    rate_direct,
    rate_matrix,
    rate_truncated,
    snapped_delay_matrix,
    submatrix,
    truncation_report,
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

    n = 4
    ordering = all_permutations(n)
    T = build_transform(ordering)
    itf = haar_unitary(6, seed=9)
    v = monomial_vector(submatrix(itf, (1, 2, 4, 6), (1, 2, 3, 4)), ordering)
    r = snapped_delay_matrix(idx, spec)

    for species in ("boson", "fermion"):
        R = rate_matrix(r, species, ordering)
        decomp = block_decompose(v, R, T)
        print(f"\n{species}:")
        for entry in truncation_report(decomp, part):
            tag = "keep" if entry.kept else "drop"
            print(f"  {tag} {str(entry.lam):14} |block| = {entry.block_magnitude:.3e}"
                  f"  term = {entry.term:+.3e}")
        truncated = rate_truncated(decomp, part)
        direct = rate_direct(v, R)
        print(f"  truncated rate = {truncated:.12f}")
        print(f"  direct rate    = {direct:.12f}")


if __name__ == "__main__":
    main()
