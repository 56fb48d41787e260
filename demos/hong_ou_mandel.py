"""Two particles meet on a balanced two-port coupler.

Bosons arriving at the same time never exit on opposite ports (the
coincidence rate dips to zero); fermions always do (the rate is pinned at
its maximum).  Sliding the relative arrival delay interpolates between the
quantum-statistics limit and independent classical particles.
"""

import math

import numpy as np

from partdist import delay_matrix_from_times, engine_rates

BAR_WIDTH = 48


def coincidence(splitter, delays, species, delta_omega=1.0):
    """Rates of the one output string at every relative delay, from one
    engine call on the stack of delay matrices."""
    taus = np.stack([np.zeros_like(delays), delays], axis=-1)
    return engine_rates(splitter, delay_matrix_from_times(taus, delta_omega), species, "direct").rates


def main():
    splitter = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    delays = np.linspace(-3.0, 3.0, 25)
    boson = coincidence(splitter, delays, "boson")
    fermion = coincidence(splitter, delays, "fermion")

    print("coincidence rate on a balanced two-port coupler")
    print(f"{'delay':>6}  {'boson':>7}  {'fermion':>7}")
    for delay, b, f in zip(delays, boson, fermion):
        bar = "#" * round(b * BAR_WIDTH)
        print(f"{delay:6.2f}  {b:7.4f}  {f:7.4f}  |{bar}")

    print()
    print("at zero delay the boson rate vanishes exactly and the fermion")
    print("rate is maximal; far out both settle at the classical value 1/2.")
    zero = int(np.argmin(np.abs(delays)))  # the grid holds delay 0 exactly
    print(f"boson(0) = {boson[zero]:.3e}   fermion(0) = {fermion[zero]:.6f}")


if __name__ == "__main__":
    main()
