"""Classifying principal-curvature spectra and their Weyl shadows.

The number m of distinct principal curvatures and the number w of
distinct Weyl-operator eigenvalues determine each other:

    w = 3  <=>  m = 4
    w = 2  <=>  m = 3 or the (2,2) pattern
    w = 1  <=>  some curvature has multiplicity >= 3

spectrum_report measures both sides of the dictionary and raises an
indeterminate flag when numerical clustering cannot distinguish the
cases (Weyl eigenvalue gaps are products of curvature gaps, so a small
curvature gap enters quadratically and can drop below resolution).
"""

import numpy as np

from hypercurv import classify, extrinsic


CASES = [
    ("umbilic", [2.0, 2.0, 2.0, 2.0]),
    ("multiplicity 3", [3.0, 1.0, 1.0, 1.0]),
    ("(2,2) product pattern", [1.0, 1.0, -1.0, -1.0]),
    ("(2,1,1)", [1.5, 1.5, 0.5, -1.0]),
    ("all distinct", [2.0, 1.0, -0.5, -1.5]),
]


def main():
    for label, lam in CASES:
        rep = classify.spectrum_report(extrinsic.PointState(lam=lam))
        print(f"{label:24s} partition {str(rep.partition):14s} "
              f"m = {rep.m}  w = {rep.w}  flags: "
              + ", ".join(k for k, v in rep.flags.items() if v))
    print()

    # two nearly-repeated pairs: each lambda gap of 2e-5 is resolvable on
    # its own, but one Weyl gap is the product of the two small gaps
    # (2e-10, below resolution), so the report refuses to commit instead
    # of returning a confidently wrong w
    lam = [1.0, 1.0 + 2e-5, -1.0, -1.0 - 2e-5]
    rep = classify.spectrum_report(extrinsic.PointState(lam=lam))
    print(f"near-degenerate {lam}:")
    print(f"  partition {rep.partition} so the table says w = 3, measured "
          f"w = {rep.w}, indeterminate = {rep.indeterminate}")
    print()

    # throughput check on a batch: classify_batch runs the kernel of
    # spectrum_report on all rows at once and classifies 1e5 spectra in
    # well under a second
    rng = np.random.default_rng(0)
    lams = rng.uniform(-3, 3, (100_000, 4))
    m, w, indet = classify.classify_batch(lams)
    print(f"batch of {len(lams)}: m histogram "
          f"{np.bincount(m)[1:].tolist()}, w histogram "
          f"{np.bincount(w)[1:].tolist()}, {indet.sum()} indeterminate")


if __name__ == "__main__":
    main()
