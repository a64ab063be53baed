"""Euler characteristic, signature, and Weyl mass by quadrature.

The catalog provides explicit charts for the minimal products of
spheres inside the unit 5-sphere and for the totally geodesic 4-sphere.
Integrating the curvature-polynomial densities over those charts
recovers the topology: chi = 0 for S^1 x S^3, chi = 4 for S^2 x S^2,
chi = 2 for S^4, and signature 0 for all three.
"""

import math
import os
import tempfile

from hypercurv import immersions


def main():
    print(f"{'geometry':14s} {'volume':>12s} {'chi':>12s} {'tau':>10s} "
          f"{'Weyl mass':>14s}")
    for label in ("clifford:4:1", "clifford:4:2", "geodesic:4"):
        imm = immersions.get_immersion(label)
        vol = immersions.integrate(imm, "volume", res=32)
        chi = immersions.integrate(imm, "cgbEuler", res=32)
        tau = immersions.integrate(imm, "signature", res=32)
        mass = immersions.integrate(imm, "weylFunctional", res=32)
        print(f"{label:14s} {vol:12.6f} {chi:12.8f} {tau:10.2e} {mass:14.6f}")
    print()

    # the S^2 x S^2 Weyl mass sits exactly on the rigidity wall
    wall = (64.0 / 3.0) * math.pi ** 2 * 4.0
    mass = immersions.integrate(immersions.get_immersion("clifford:4:2"),
                                "weylFunctional", res=32)
    print(f"(64/3) pi^2 chi = {wall:.10f}")
    print(f"integrated mass = {mass:.10f}")
    print(f"relative gap    = {abs(mass - wall) / wall:.2e}")
    print()

    # per-node detail: dump the integrand and quadrature weight at each
    # product node of a coarse grid
    imm = immersions.get_immersion("clifford:4:2")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cgb_nodes.csv")
        immersions.integrate(imm, "cgbEuler", res=4, dump=path)
        with open(path) as fh:
            lines = fh.read().splitlines()
    print(f"dumped {len(lines) - 1} quadrature rows; header: {lines[0]}")
    print(f"first row: {lines[1]}")


if __name__ == "__main__":
    main()
