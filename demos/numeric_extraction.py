"""Recovering the shape operator of an embedded hypersurface numerically.

Central second differences of the embedding chart along coordinate
directions, projected onto a unit normal built from the chart point and
its difference Jacobian, give the second fundamental form, and the
induced metric turns it into the shape operator; Richardson extrapolation
removes the leading h^2 error. The chart's analytic normal, where it has
one, only orients that normal. The catalog immersions carry their exact
principal curvatures, so the extraction error is directly measurable.
"""

import dataclasses

import numpy as np

from hypercurv import immersions


def main():
    imm = immersions.get_immersion("clifford:4:2")
    params = np.array([0.9, 1.3, 1.1, 2.0])
    exact = np.sort(np.asarray(imm.spectrum))[::-1]
    print(f"exact principal curvatures: {exact}")
    print()
    print(f"{'h':>8s} {'plain FD error':>16s} {'Richardson error':>18s}")
    for h in (1e-2, 1e-3, 1e-4):
        errs = []
        for richardson in (False, True):
            A = immersions.numeric_second_fundamental_form(
                imm, params, h=h, richardson=richardson)
            lam = np.sort(np.linalg.eigvalsh(A))[::-1]
            errs.append(np.abs(lam - exact).max())
        print(f"{h:8.0e} {errs[0]:16.2e} {errs[1]:18.2e}")
    print()
    print("(at h = 1e-4 both are roundoff-limited; the h^2 advantage shows")
    print(" at step sizes where truncation still dominates)")
    print()

    # dropping the stored spectrum makes integrate() take the shape
    # operator at every node (512 nodes per chart call) from exact
    # second-order jets of the chart, so the result differs from the
    # analytic value only by the volume quadrature; a chart using an
    # operation jets do not carry falls back to the differences above
    blind = dataclasses.replace(imm, spectrum=None)
    chi = immersions.integrate(blind, "cgbEuler", res=6)
    print(f"chi from per-node jet derivatives at res 6: {chi:.8f}")
    exact = immersions.integrate(imm, "cgbEuler", res=6)
    print(f"difference from the analytic spectrum on the same grid: {abs(chi - exact):.1e}")


if __name__ == "__main__":
    main()
