#!/usr/bin/env python3
"""Compare purity-chain detection against optimal-settings CHSH.

Sweeps the two-site product-to-cluster family and tabulates, per phase,
the purity violation and the maximal CHSH expectation.  The purity test
flags every entangled member of the family; CHSH (being also violated by
every entangled pure two-qubit state, just by a rapidly shrinking margin)
drops below any fixed experimental resolution much earlier.
"""

import argparse
import math

import numpy as np

from puritynet.separability import all_subset_purities, chsh_max
from puritynet.states import cluster_family_state


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=25)
    parser.add_argument("--resolution", type=float, default=0.01,
                        help="assumed experimental resolution on the CHSH value")
    args = parser.parse_args()

    print(f"{'phi':>8}  {'purity V':>12}  {'chsh_max':>10}  {'purity flags':>12}  {'chsh beats 2+res':>16}")
    for phi in np.linspace(0.0, math.pi, args.points):
        rho = cluster_family_state(2, float(phi)).to_density()
        purities = all_subset_purities(rho)
        violation = purities.purity([1, 2]) - purities.purity([1])
        chsh = chsh_max(rho)
        print(
            f"{phi:8.4f}  {violation:12.6f}  {chsh:10.6f}  "
            f"{str(violation > 1e-9):>12}  {str(chsh > 2 + args.resolution):>16}"
        )


if __name__ == "__main__":
    main()
