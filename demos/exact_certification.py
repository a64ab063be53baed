"""Exact certification of the curvature identity registry.

Every closed-form identity the float layer relies on is checked over
exact rationals: the shipped kernels run on multivariate polynomials
in the principal curvatures (integer numerators over one common
denominator, no floating point), and both sides are subtracted and
required to cancel term by term. A deliberately
corrupted identity shows what failure looks like: a concrete witness
point where the difference polynomial is nonzero.
"""

from hypercurv import polyverify


def main():
    results = polyverify.verify_all()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"  {r.name:{width}s}  [{status}]  {r.detail}")
    print(f"{sum(r.passed for r in results)}/{len(results)} identities certified")
    print()

    bad = polyverify.verify_record(polyverify.corrupted_normWpm_record())
    print(f"negative control {bad.name}: passed = {bad.passed}")
    print(f"  witness point {bad.witness['point']}: "
          f"lhs = {bad.witness['lhs']}, rhs = {bad.witness['rhs']}")
    print(f"  {bad.detail}")
    print()

    # the symbolic layer doubles as an exact evaluator
    from fractions import Fraction
    w = polyverify.assemble_symbolic("Wsq")
    pt = tuple(Fraction(v) for v in (1, 1, -1, -1))
    print(f"|W|^2 at the S^2 x S^2 point, exactly: {w.eval(pt)}")


if __name__ == "__main__":
    main()
