"""From one interferometer to a full output distribution and samples.

Builds the collision-free output distribution for three partially
distinguishable photons, locates it between the indistinguishable and
fully distinguishable reference distributions, then draws samples and
compares empirical frequencies against the exact probabilities.
"""

from collections import Counter

from partdist import (
    ArrivalSpec,
    build_distribution,
    entropy_bits,
    haar_unitary,
    reference_distinguishable,
    reference_indistinguishable,
    sample,
    total_variation,
)


def main():
    itf = haar_unitary(7, seed=21)
    spec = ArrivalSpec((0.10, 0.22, 0.55), delta_omega=3.0, window=1.0, bins=8)
    dist = build_distribution(itf, spec, species="boson", engine="blocked")

    print(f"{len(dist.strings)} collision-free outputs, "
          f"entropy {entropy_bits(dist):.3f} bits")
    ref_i = reference_indistinguishable(itf, 3, "boson")
    ref_d = reference_distinguishable(itf, 3, "boson")
    print(f"total variation from indistinguishable: {total_variation(dist, ref_i):.4f}")
    print(f"total variation from distinguishable:   {total_variation(dist, ref_d):.4f}")

    draws = sample(dist, 20_000, seed=5)  # indices into dist.strings
    # each string as 0/1 text over the channels: "1011000" for detectors 1, 3, 4
    text = ["".join("1" if k in row else "0" for k in range(1, dist.m + 1)) for row in dist.strings]
    freq = Counter(text[i] for i in draws)
    exact = dict(zip(text, dist.probabilities.tolist()))

    print("\ntop outputs by probability (20000 draws):")
    print(f"{'output':>9} {'exact':>9} {'empirical':>10}")
    top = sorted(exact, key=exact.get, reverse=True)[:8]
    for key in top:
        print(f"{key:>9} {exact[key]:9.5f} {freq.get(key, 0) / len(draws):10.5f}")


if __name__ == "__main__":
    main()
