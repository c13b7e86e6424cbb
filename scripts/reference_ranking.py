#!/usr/bin/env python3
"""Walk the six-MFI reference example through the ranking stage.

The feature table below is a fixed reference point: six MFIs with all
five features already computed.  The script prints the pairwise
comparison matrix, the transition matrix, the stationary distribution
from both solvers, and the resulting order, so changes to the ranking
code are easy to eyeball.
"""

import argparse

import numpy as np

from mfirank.features import FeatureVector
from mfirank.rank import (
    _direct_stationary,
    _power_stationary,
    comparison_matrix,
    rank_list,
    stationary,
    transition,
)

REFERENCE_TABLE = {
    "18": (3.8687, 0.1329, 1, 126004.2648, 5.3577),
    "20": (3.8599, 0.1229, 3, 58758.7124, 1.5044),
    "29": (3.8630, 0.1277, 4, 310794.5388, 1.1219),
    "56": (3.8690, 0.1256, 1, 68637.8840, 2.1196),
    "64": (3.8747, 0.1323, 1, 90024.9961, 3.5466),
    "87": (3.8712, 0.1247, 3, 23893.1089, 1.9553),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--damping", type=float, default=0.0,
                        help="uniform restart weight in [0, 1)")
    args = parser.parse_args()

    vectors = [
        FeatureVector(mfi_id=m, rating_norm=r, lar_norm=l, fairness=f,
                      service_p90_sec=s, epc=e)
        for m, (r, l, f, s, e) in REFERENCE_TABLE.items()
    ]
    matrix = comparison_matrix(vectors)
    print("MFIs:", ", ".join(matrix.order))
    print("\ncomparison matrix (row loses to column):")
    print(matrix.counts)

    p = transition(matrix, damping=args.damping)
    np.set_printoptions(precision=4, suppress=True)
    print("\ntransition matrix:")
    print(p)

    direct = _direct_stationary(p)
    power, converged = _power_stationary(p)
    print("\nstationary (direct):", np.round(direct, 6))
    print("stationary (power): ", np.round(power, 6), "converged:", converged)

    dist = stationary(p, order=matrix.order)
    print("solver gap: %.3e" % dist.method_gap)
    ranking = rank_list(dist, vectors)
    print("\nranking (best first):")
    for pos, mfi in enumerate(ranking, start=1):
        print(f"  {pos}. MFI {mfi}   pi={dist.as_dict()[mfi]:.6f}")


if __name__ == "__main__":
    main()
