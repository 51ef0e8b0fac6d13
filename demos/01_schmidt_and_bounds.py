"""From a shared two-qudit state to its teleportation value.

Any pure state shared by Alice and Bob boils down, via the Schmidt
decomposition, to a list of nonnegative coefficients lambda_k. Those
coefficients alone fix how well the state can teleport:

    best mean fidelity   = (1 + (sum_k lambda_k)^2) / (d + 1)
    best estimation      = (1 + lambda_0^2) / (d + 1)
    max singlet fraction = (sum_k lambda_k)^2 / d

This script draws a random shared state, extracts its Schmidt spectrum and
prints the three figures of merit.
"""

import numpy as np

from teleportsim import (
    BipartiteVector,
    estimation_fidelity_bound,
    fidelity_bound,
    make_rng,
    max_singlet_fraction,
    schmidt_decompose,
)


def main():
    rng = make_rng(2)
    for d in (2, 3, 4):
        coeffs = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        state = BipartiteVector(coeffs / np.linalg.norm(coeffs))
        dec = schmidt_decompose(state)
        print(f"d = {d}")
        print(f"  Schmidt coefficients : {np.round(dec.lambdas, 6)}")
        print(f"  effective rank       : {dec.effective_rank}")
        print(f"  fidelity bound       : {fidelity_bound(dec.lambdas):.6f}")
        print(f"  estimation bound     : {estimation_fidelity_bound(dec.lambdas):.6f}")
        print(f"  max singlet fraction : {max_singlet_fraction(dec.lambdas):.6f}")
        print(f"  classical benchmark  : {2 / (d + 1):.6f} (no entanglement)")
        print()


if __name__ == "__main__":
    main()
