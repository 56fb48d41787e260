"""How often random arrival times force the expensive witness block.

Under uniformly random time bins the occupancy partition is random, and a
fermionic rate stays classically easy only while some block label's
conjugate fails to dominate it.  The two-row witness shape (ceil(n/2),
floor(n/2)) marks the hard regime; its probability decays like
sqrt(2/(n pi)) (4/b)^(n/2) once b >= 5 bins are available.
"""

from fractions import Fraction

from partdist import (
    burgisser_cost,
    conjugate,
    delay_partition_probability,
    partitions_of,
    requires_witness,
    witness_partition,
    witness_probability,
)


def occupancy_table(n, b):
    print(f"bin occupancies for n={n} particles in b={b} bins")
    print(f"{'occupancy':>16} {'probability':>14} {'float':>10}  forces witness?")
    for mu in partitions_of(n):
        p = delay_partition_probability(mu, b)
        flag = "yes" if requires_witness(mu) else "no"
        print(f"{str(mu):>16} {str(p):>14} {float(p):10.6f}  {flag}")
    total = sum((delay_partition_probability(mu, b) for mu in partitions_of(n)),
                start=Fraction(0))
    print(f"{'total':>16} {str(total):>14}")


def main():
    occupancy_table(5, 8)

    print("\nwitness-tail decay with particle number (b = 8 bins):")
    print(f"{'n':>3} {'witness':>10} {'exact tail':>12} {'asymptotic':>12} {'ratio':>7}")
    for n in range(4, 13, 2):
        wp = witness_probability(n, 8)
        ratio = wp.tail_asymptotic / float(wp.tail_exact)
        print(f"{n:>3} {str(witness_partition(n)):>10} {float(wp.tail_exact):12.3e} "
              f"{wp.tail_asymptotic:12.3e} {ratio:7.3f}")

    print("\ncost model for the dominant block (conjugate of the witness):")
    print(f"{'n':>3} {'shape':>22} {'dim':>9} {'operations':>14}")
    for n in range(4, 13, 2):
        shape = conjugate(witness_partition(n))
        cost = burgisser_cost(shape)
        print(f"{n:>3} {str(shape):>22} {cost.d_lam:>9} {cost.operations:>14.3e}")


if __name__ == "__main__":
    main()
