"""RationalPoly arithmetic against sympy's polynomials over QQ as an
independent oracle (skipped when sympy is not installed)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurv.polyverify import RationalPoly

sympy = pytest.importorskip("sympy")

_coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def _cases(draw):
    # Terms of degree <= 3, so products stay at degree 6 and substituting
    # a degree-3 polynomial at degree 9, under the degree cap of 12.
    nvars = draw(st.integers(1, 9))
    monos = st.lists(st.integers(0, nvars - 1), max_size=3).map(
        lambda idx: tuple(idx.count(i) for i in range(nvars)))
    p = draw(st.dictionaries(monos, _coeffs, max_size=6))
    q = draw(st.dictionaries(monos, _coeffs, max_size=6))
    index = draw(st.integers(0, nvars - 1))
    point = draw(st.tuples(*[_coeffs] * nvars))
    return nvars, p, q, index, point


def _rational(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def _fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def _terms(poly) -> dict:
    return {tuple(m): _fraction(c) for m, c in poly.as_dict().items()}


@settings(max_examples=80, deadline=None)
@given(_cases())
def test_arithmetic_matches_sympy(case):
    nvars, p_terms, q_terms, index, point = case
    gens = sympy.symbols(f"x0:{nvars}")

    def oracle(terms):
        return sympy.Poly.from_dict({e: _rational(c) for e, c in terms.items()},
                                    *gens, domain=sympy.QQ)

    p, q = RationalPoly(nvars, p_terms), RationalPoly(nvars, q_terms)
    P, Q = oracle(p_terms), oracle(q_terms)
    assert p.terms == _terms(P)
    assert (p + q).terms == _terms(P + Q)
    assert (p - q).terms == _terms(P - Q)
    assert (p * q).terms == _terms(P * Q)
    assert (p * p).terms == _terms(P * P)
    for k in (-3, -1, 0, 2):
        assert (p * float(k)).terms == _terms(P * k)
    substituted = sympy.Poly(P.as_expr().subs(gens[index], Q.as_expr()), *gens,
                             domain=sympy.QQ)
    assert p.substitute(index, q).terms == _terms(substituted)
    assert p.eval(point) == _fraction(P(*[_rational(v) for v in point]))
