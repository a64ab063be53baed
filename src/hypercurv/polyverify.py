"""Exact certification of the closed-form curvature identities.

Every scalar identity used elsewhere in the package is a polynomial
statement in the principal curvatures (and, where it appears, the ambient
curvature c), because a symmetric shape operator can be diagonalized
pointwise and every quantity involved is frame-invariant. Verifying an
identity therefore reduces to expanding both sides over the rationals in
diagonal variables l1..ln and checking that the difference is the zero
polynomial. That is a proof, not a numerical test: no sampling, no
tolerance.

The tensor sides are the shipped kernels themselves, evaluated over
Q[l1..ln] on (P, P) operators over the pairs of R^n: the Weyl operator
``extrinsic._weyl_raw``, the star and W+- split ``lambda2._star`` and
``lambda2._sd_split`` that ``weyl_tensor`` and ``div_weyl_sd`` run,
Kulkarni-Nomizu products ``lambda2._kn_raw``, the Ricci data
``extrinsic._ricci`` and the Gauss-equation kernel ``extrinsic._gauss``.
They contract on the pairs, with the factors stated once, in
``lambda2._inner`` (<T, T'> = 4 sum O O') and ``lambda2._triple`` (8 sum
O1[a, c] O2[b, c] O3[a, b]); only ``weyl_quadratic_split`` expands W+- to
components. The other sides are the shipped closed-form kernels that
``point`` evaluates in floating point: power sums, |W+-|^2, |W|^2,
|Ric0|^2, the Chern-Gauss-Bonnet integrand, the Fialkow tensor, the
general-n minimal |W|^2, the zero signature integrand and the cubic Weyl
form of ``scalar_bochner``. All are looked up at each call, so a defect in
the code that ``hypercurv point`` runs fails certification, and a float
constant that is not an integer raises TypeError instead of certifying an
approximation. Each quantity of diag(l1..l4) that the registry and the
recipes share is named once, in ``_SYMBOLS``, computed at most once per
call and kept read-only, not between calls.

The diagonal-A reduction is the only analytic step taken on faith here,
and it is spot-checked in floating point against non-diagonal shape
operators by the test suite.

Identities marked "minimal" are certified on the constraint surface
H = 0 by eliminating the last variable, ln := -(l1 + ... + l(n-1)),
before the zero test.

A failing identity is reported with a rational witness point and the
exact values of both sides there. A failure points at a shipped kernel
or at the stated relation, and is reported rather than auto-corrected.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import extrinsic, lambda2

__all__ = [
    "RationalPoly",
    "IdentityRecord",
    "VerifyResult",
    "REGISTRY",
    "assemble_symbolic",
    "verify_identity",
    "verify_record",
    "verify_all",
    "corrupted_normWpm_record",
]

_DEGREE_CAP = 12
_SCALARS = (int, float, Fraction)
# A monomial is one int: exponent e_i in 5-bit digit n-1-i, total degree in
# digit n. Exponents and degrees of capped factors are at most 12, so a
# product's digits stay under 32 and multiplying monomials is adding ints
# without carries, and int order is graded-lex order on exponent tuples.
_BITS = 5
_DIGIT = (1 << _BITS) - 1
# The zero polynomial of each variable count, shared: instances are immutable.
_ZEROS: dict = {}


def _exact(x):
    # An int stays an int and an integer-valued float becomes one, so a
    # polynomial may meet the float 0.0 of extrinsic._signatures, which
    # signature_vanishes certifies; any other float means a kernel left the
    # rationals, so it raises instead of certifying an approximation.
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise TypeError(f"rational coefficient expected, got {type(x).__name__} {x!r}")


def _pack(exps) -> int:
    key = sum(exps)
    for e in exps:
        key = (key << _BITS) | e
    return key


class RationalPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Stored as integer numerators over one positive denominator, in lowest
    terms (zero is no numerators over 1), keyed by monomials packed into
    ints; ``terms`` presents them as exponent tuples mapped to nonzero
    Fractions. Total degree is capped at 12, enough for every registered
    identity; exceeding the cap means an assembly bug, so it raises, and a
    product checks it once, on the sum of the leading monomials. The
    constructor validates its input; arithmetic builds results through
    ``_trusted``. Instances are immutable, so the zero of each variable
    count is one shared instance, and sums and products with a zero
    operand return an operand unchanged; object einsum over sparse tensors
    produces mostly such products. A square (``p * p`` on one object, as
    in ``einsum("pq,pq->", W, W)``) takes each cross product once, and
    an integer-valued float scalar multiplies as an int. Sums, differences
    and products with a non-scalar (an ndarray) are left to the other
    operand, so polynomials and object arrays combine elementwise on either
    side.
    """

    __slots__ = ("nvars", "_num", "_den")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            coeff = _exact(coeff)
            if coeff == 0:
                continue
            exps = tuple(map(operator.index, exps))
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not match nvars = {nvars}")
            if min(exps, default=0) < 0:
                raise ValueError(f"negative exponent in term {exps}")
            if sum(exps) > _DEGREE_CAP:
                raise ValueError(f"degree cap {_DEGREE_CAP} exceeded by term {exps}")
            clean[_pack(exps)] = coeff
        # Over the lcm of reduced denominators the numerators share no
        # factor with it, so the result is already in lowest terms.
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.nvars = nvars
        self._num = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self._den = den

    @classmethod
    def _trusted(cls, nvars: int, num: dict, den: int) -> "RationalPoly":
        """Result of arithmetic: nonzero numerators over ``den`` > 0, reduced here."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly._num = num
        poly._den = den
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "RationalPoly":
        poly = _ZEROS.get(nvars)
        if poly is None:
            poly = _ZEROS[nvars] = cls._trusted(nvars, {}, 1)
        return poly

    @classmethod
    def const(cls, value, nvars: int) -> "RationalPoly":
        value = _exact(value)
        return cls._trusted(nvars, {0: value.numerator} if value else {}, value.denominator)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "RationalPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars = {nvars}")
        exps = [0] * nvars
        exps[index] = 1
        return cls._trusted(nvars, {_pack(exps): 1}, 1)

    def _exps(self, key: int) -> tuple:
        return tuple((key >> s) & _DIGIT for s in range(_BITS * (self.nvars - 1), -1, -_BITS))

    @property
    def terms(self) -> dict:
        return {self._exps(k): Fraction(v, self._den) for k, v in self._num.items()}

    @property
    def is_zero(self) -> bool:
        return not self._num

    def degree(self) -> int:
        return max(self._num) >> _BITS * self.nvars if self._num else 0

    def sorted_terms(self):
        """Canonical graded-lexicographic term order."""
        return [(self._exps(k), Fraction(self._num[k], self._den)) for k in sorted(self._num)]

    def _coerce(self, other):
        if isinstance(other, RationalPoly):
            if other.nvars != self.nvars:
                raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")
            return other
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return RationalPoly.const(other, self.nvars)

    def _combine(self, other: "RationalPoly", sign: int) -> "RationalPoly":
        d1, d2 = self._den, other._den
        den = d1 if d1 == d2 else math.lcm(d1, d2)
        a, b = den // d1, sign * (den // d2)
        num = dict(self._num) if a == 1 else {k: v * a for k, v in self._num.items()}
        for k, v in other._num.items():
            acc = num.get(k, 0) + b * v
            if acc:
                num[k] = acc
            else:
                del num[k]
        return RationalPoly._trusted(self.nvars, num, den)

    def __add__(self, other):
        if type(other) is not RationalPoly or other.nvars != self.nvars:
            if type(other) is int and not other:
                # object einsum starts every sum at the int 0
                return self
            if (other := self._coerce(other)) is NotImplemented:
                return other
        if not other._num:
            return self
        if not self._num:
            return other
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return RationalPoly._trusted(self.nvars, {k: -v for k, v in self._num.items()}, self._den)

    def __sub__(self, other):
        if type(other) is not RationalPoly or other.nvars != self.nvars:
            if (other := self._coerce(other)) is NotImplemented:
                return other
        if not other._num:
            return self
        if not self._num:
            return -other
        return self._combine(other, -1)

    def __rsub__(self, other):
        return -self + other

    def _scale(self, other):
        if type(other) is not int:
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = _exact(other)
        if not other:
            return RationalPoly.zero(self.nvars)
        if other == 1 or not self._num:
            return self
        return RationalPoly._trusted(
            self.nvars, {k: v * other.numerator for k, v in self._num.items()},
            self._den * other.denominator)

    def __mul__(self, other):
        if type(other) is not RationalPoly or other.nvars != self.nvars:
            if not isinstance(other, RationalPoly):
                return self._scale(other)
            other = self._coerce(other)
        if not self._num:
            return self
        if not other._num:
            return other
        # Graded-lex order is a monomial order: the product's leading
        # monomial is the sum of the leading monomials.
        lead = max(self._num) + max(other._num)
        if lead >> _BITS * self.nvars > _DEGREE_CAP:
            raise ValueError(f"degree cap {_DEGREE_CAP} exceeded by term {self._exps(lead)}")
        num: dict = {}
        get = num.get
        if other is self:
            # A square takes each cross product once, doubled.
            items = list(self._num.items())
            for a, (k1, c1) in enumerate(items):
                k = k1 + k1
                num[k] = get(k, 0) + c1 * c1
                c1 += c1
                for k2, c2 in items[a + 1:]:
                    k = k1 + k2
                    num[k] = get(k, 0) + c1 * c2
        else:
            items = other._num.items()
            for k1, c1 in self._num.items():
                for k2, c2 in items:
                    k = k1 + k2
                    num[k] = get(k, 0) + c1 * c2
        num = {k: v for k, v in num.items() if v}
        return RationalPoly._trusted(self.nvars, num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        # object einsum divides mostly zero entries
        return self if not self._num else self * Fraction(other.denominator, other.numerator)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = RationalPoly.const(1, self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def substitute(self, index: int, replacement: "RationalPoly") -> "RationalPoly":
        """Replace variable ``index`` by a polynomial (same variable space)."""
        if (replacement := self._coerce(replacement)) is NotImplemented:
            raise TypeError("replacement must be a polynomial or a rational number")
        n = self.nvars
        shift = _BITS * (n - 1 - range(n)[index])
        by_power: dict = {}
        for key, num in self._num.items():
            e = (key >> shift) & _DIGIT
            rest = key - (e << shift) - (e << _BITS * n)
            by_power.setdefault(e, {})[rest] = num
        out = RationalPoly.zero(n)
        for e, num in by_power.items():
            out = out + RationalPoly._trusted(n, num, self._den) * replacement ** e
        return out

    def eval(self, point) -> Fraction:
        values = [_exact(v) for v in point]
        if len(values) != self.nvars:
            raise ValueError(f"point has {len(values)} coordinates, expected {self.nvars}")
        total = Fraction(0)
        for key, num in self._num.items():
            term = Fraction(num)
            for v, e in zip(values, self._exps(key)):
                if e:
                    term *= v ** e
            total += term
        return total / self._den

    def __eq__(self, other):
        return (isinstance(other, RationalPoly) and self.nvars == other.nvars
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        return hash((self.nvars, tuple(self.sorted_terms())))

    def __repr__(self):
        if not self._num:
            return "RationalPoly(0)"
        bits = []
        for exps, coeff in self.sorted_terms()[:8]:
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                            for i, e in enumerate(exps) if e)
            bits.append(f"{coeff}{'*' + mono if mono else ''}")
        suffix = " + ..." if len(self._num) > 8 else ""
        return "RationalPoly(" + " + ".join(bits) + suffix + ")"


def _diag(entries):
    """Diagonal object matrix over the polynomials ``entries``."""
    D = np.full((len(entries), len(entries)), RationalPoly.zero(entries[0].nvars))
    np.fill_diagonal(D, entries)
    return D


def _lam_vars(n: int, nv: int):
    return [RationalPoly.variable(i, nv) for i in range(n)]


# Inside a ``_sharing()`` block, the named quantities computed so far; None
# outside one.
_SHARED: contextvars.ContextVar = contextvars.ContextVar("_SHARED", default=None)


@contextlib.contextmanager
def _sharing():
    """Compute each named quantity once inside the block; nothing outlives it."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _symbol(name: str):
    """The quantity ``name`` of diag(l1..l4), computed by ``_SYMBOLS[name]``:
    once per ``_sharing()`` block and stored read-only, afresh outside one."""
    memo = _SHARED.get()
    if memo is None:
        return _SYMBOLS[name]()
    if name not in memo:
        value = _SYMBOLS[name]()
        for T in value if isinstance(value, tuple) else (value,):
            if isinstance(T, np.ndarray):
                T.setflags(write=False)
        memo[name] = value
    return memo[name]


# Each symbolic quantity of diag(l1..l4), by name, from the shipped kernel
# that computes it. Every name but A, powers, W and Wpm = (W+, W-), the
# shape operator, the power-sum tuple and the 6x6 operators that the recipes
# and the registry read, is a recipe of ``assemble_symbolic``.
_SYMBOLS = {
    "A": lambda: _diag(_lam_vars(4, 4)),
    "powers": lambda: extrinsic._trace_powers(_symbol("A")),
    "H": lambda: _symbol("powers")[0],
    "S": lambda: _symbol("powers")[1],
    "A2sq": lambda: _symbol("powers")[2],
    "trA3": lambda: _symbol("powers")[3],
    "trA5": lambda: _symbol("powers")[4],
    "trA6": lambda: _symbol("powers")[5],
    "Wpmsq": lambda: extrinsic._wpm_sq(*_symbol("powers")[:4]),
    "Wsq": lambda: extrinsic._w_sq(*_symbol("powers")[:4]),
    "ricTFsq": lambda: extrinsic._ric0_sq(*_symbol("powers")[:4], 4),
    "W": lambda: extrinsic._weyl_raw(_symbol("A")),
    "Wpm": lambda: lambda2._sd_split(_symbol("W")),
    "trWstarW": lambda: lambda2._inner(_symbol("W"), lambda2._star(_symbol("W"))),
    "tripleW": lambda: lambda2._triple(*[_symbol("W")] * 3),
    "tripleWplus": lambda: lambda2._triple(*[_symbol("Wpm")[0]] * 3),
}
_RECIPES = sorted(set(_SYMBOLS) - {"A", "powers", "W", "Wpm"})


def _eliminate_last(poly: RationalPoly, n: int) -> RationalPoly:
    rep = RationalPoly.zero(poly.nvars)
    for i in range(n - 1):
        rep = rep - RationalPoly.variable(i, poly.nvars)
    return poly.substitute(n - 1, rep)


@dataclass(frozen=True)
class IdentityRecord:
    """One registered identity: a builder of exact (lhs, rhs) pairs.

    Builders return fully constrained component pairs: identities with
    constraint "minimal" are assembled H-general and then restricted to
    the trace-free surface by eliminating the last curvature variable.
    """

    name: str
    constraint: str
    description: str
    build: object


def _build_normWpm():
    rhs = _symbol("Wpmsq")
    return [(lambda2._inner(T, T), rhs) for T in _symbol("Wpm")]


def _build_normW():
    W = _symbol("W")
    return [(lambda2._inner(W, W), _symbol("Wsq"))]


def _build_signature():
    # the right side is the n = 4 signature integrand that point reports
    zero = extrinsic._signatures(_symbol("A")[None])[0]
    return [(_symbol("trWstarW"), RationalPoly.const(zero, 4))]


def _build_ricTFsq():
    # Ric0 does not depend on c, so c = 0 keeps the four variables.
    ric_tf = extrinsic._ricci(_symbol("A"), RationalPoly.zero(4))[2]
    return [(np.sum(ric_tf * ric_tf), _symbol("ricTFsq"))]


def _build_cgb():
    # c is carried as the fifth variable.
    nv = 5
    A = _diag(_lam_vars(4, nv))
    c = RationalPoly.variable(4, nv)
    _, scal, ric_tf = extrinsic._ricci(A, c)
    W = extrinsic._weyl_raw(A)
    lhs = lambda2._inner(W, W) - np.sum(ric_tf * ric_tf) * 2 + scal * scal / 6
    return [(lhs, extrinsic._cgb(*extrinsic._trace_powers(A)[:4], c))]


def _build_fialkow():
    A = _symbol("A")
    F = extrinsic._fialkow(A, _symbol("S"))
    rhs = lambda2._kn_raw(A, A) / 2 + lambda2._kn_raw(F, np.eye(4, dtype=object))
    return [(_eliminate_last(w, 4), _eliminate_last(r, 4))
            for w, r in zip(_symbol("W").flat, rhs.flat)]


def _build_cubic_contraction():
    S, A2sq, trA3, trA6 = map(_symbol, ("S", "A2sq", "trA3", "trA6"))
    rhs = trA3 * trA3 * 10 - trA6 * 28 + S * A2sq * 19 - S ** 3 * Fraction(23, 9)
    return [(_eliminate_last(_symbol("tripleW"), 4), _eliminate_last(rhs, 4))]


def _build_cubic_half():
    return [(_eliminate_last(_symbol("tripleW"), 4),
             _eliminate_last(_symbol("tripleWplus") * 2, 4))]


def _build_quadratic_split():
    pairs = []
    zero = RationalPoly.zero(4)
    for O in _symbol("Wpm"):
        wsq, T = lambda2._inner(O, O), lambda2._expand(O)
        # the second contraction, iplq,jpkq->ijkl, is the first with k and l swapped
        E = np.einsum("ipkq,jplq->ijkl", T, T)
        lhs = E + E.transpose(0, 1, 3, 2)
        for (i, j, k, l), poly in np.ndenumerate(lhs):
            pairs.append((poly, wsq / 8 if (i == j and k == l) else zero))
    return pairs


def _build_harmweyl_equality():
    # The (S/2)|W+|^2 term is part of the source relation; omitting it
    # leaves a nonzero polynomial.
    S, Wp = _symbol("S"), _symbol("Wpm")[0]
    lhs = extrinsic._harmweyl_form(S, *map(_symbol, ("A2sq", "trA3", "trA6")))
    rhs = _symbol("tripleWplus") * 3 + S * lambda2._inner(Wp, Wp) / 2
    return [(_eliminate_last(lhs, 4), _eliminate_last(rhs, 4))]


def _build_general_n():
    kn = lambda2._kn_raw
    pairs = []
    for n in range(3, 9):
        nv = n + 1
        A = _diag(_lam_vars(n, nv))
        # the Weyl tensor by its definition, riem - Ric0 o g/(n-2) - R g o g/(2n(n-1))
        riem, _, scal, ric_tf = extrinsic._gauss(A, RationalPoly.variable(n, nv))
        I = np.eye(n, dtype=object)
        W = riem - kn(ric_tf, I) / (n - 2) - scal / (2 * n * (n - 1)) * kn(I, I)
        _, S, A2sq, _ = extrinsic._quartic_powers(A)
        rhs = extrinsic._w_sq_minimal(S, A2sq, n)
        lhs = lambda2._inner(W, W)
        pairs.append((_eliminate_last(lhs, n), _eliminate_last(rhs, n)))
    return pairs


def _build_strict_harmweyl_rhs():
    nv = 1
    S = RationalPoly.variable(0, nv)
    S3 = S ** 3
    lhs = (S3 * Fraction(5, 3) + S3 * (Fraction(55, 6) * Fraction(7, 12))
           - S3 * Fraction(13, 12))
    rhs = S3 * Fraction(427, 72)
    return [(lhs, rhs)]


def _build_lcf_trace6():
    t = RationalPoly.variable(0, 1)
    _, S, _, _, _, trA6 = extrinsic._trace_powers(_diag([t * (-3), t, t, t]))
    return [(trA6, S ** 3 * Fraction(61, 144))]


REGISTRY = {
    rec.name: rec for rec in [
        IdentityRecord(
            "normWpm_generalH", "none",
            "|W+|^2 = |W-|^2 = 7/6 S^2 + 1/6 H^4 - 2|A^2|^2 + 2H trA^3 - 4/3 H^2 S",
            _build_normWpm),
        IdentityRecord(
            "normW_generalH", "none",
            "|W|^2 equals twice the one-sided closed form",
            _build_normW),
        IdentityRecord(
            "signature_vanishes", "none",
            "<W, *W> = |W+|^2 - |W-|^2 = 0: the signature integrand vanishes",
            _build_signature),
        IdentityRecord(
            "ricTFsq", "none",
            "|Ric0|^2 = |A^2|^2 - 1/4 S^2 + 3/2 H^2 S - 2H trA^3 - 1/4 H^4",
            _build_ricTFsq),
        IdentityRecord(
            "cgb_consistency", "none",
            "|W|^2 - 2|Ric0|^2 + R^2/6 equals the extrinsic Gauss-Bonnet integrand "
            "(c carried as a fifth variable)",
            _build_cgb),
        IdentityRecord(
            "fialkow_form", "minimal",
            "W = 1/2 A o A + F o g with F = 1/2 (A^2 - S/6 g), componentwise",
            _build_fialkow),
        IdentityRecord(
            "cubic_contraction_minimal", "minimal",
            "triple(W,W,W) = 10 (trA^3)^2 - 28 trA^6 + 19 S |A^2|^2 - 23/9 S^3",
            _build_cubic_contraction),
        IdentityRecord(
            "cubic_half_relation", "minimal",
            "triple(W,W,W) = 2 triple(W+,W+,W+)",
            _build_cubic_half),
        IdentityRecord(
            "weyl_quadratic_split", "none",
            "W+-_ipkq W+-_jplq + W+-_iplq W+-_jpkq = 1/8 |W+-|^2 d_ij d_kl",
            _build_quadratic_split),
        IdentityRecord(
            "harmweyl_equality_form", "minimal",
            "15 (trA^3)^2 - 42 trA^6 + 55/2 S |A^2|^2 - 13/4 S^3 "
            "= 3 triple(W+) + S/2 |W+|^2",
            _build_harmweyl_equality),
        IdentityRecord(
            "generalN_weylnorm", "minimal",
            "|W|^2 = 2(n^2-3n+3)/((n-1)(n-2)) S^2 - 2n/(n-2) |A^2|^2 for n = 3..8",
            _build_general_n),
        IdentityRecord(
            "strict_harmweyl_rhs", "none",
            "5 S^3/3 + 55/6 * 7/12 S^3 - 13/12 S^3 = 427/72 S^3",
            _build_strict_harmweyl_rhs),
        IdentityRecord(
            "lcf_trace6", "none",
            "lambda = (-3t, t, t, t) has trA^6 = 61/144 S^3",
            _build_lcf_trace6),
    ]
}


def corrupted_normWpm_record() -> IdentityRecord:
    """Negative control: S^2/6 subtracted from the shipped |W+-|^2 kernel,
    which turns its 7/6 S^2 into S^2.

    Must fail with witness lambda = (1, 0, 0, 0), where the true side is
    0 and the corrupted side is -1/6.
    """
    def build():
        S = _symbol("S")
        return [(lhs, rhs - S * S / 6) for lhs, rhs in _build_normWpm()]

    return IdentityRecord(
        "normWpm_corrupted", "none",
        "negative control, 7/6 S^2 deliberately replaced by S^2",
        build)


@dataclass(frozen=True)
class VerifyResult:
    name: str
    passed: bool
    components: int
    witness: dict | None = None
    detail: str = ""


def _witness_candidates(nvars: int):
    base = [1, -1, 2, -2, 3]
    for v in base:
        for pos in range(nvars):
            pt = [0] * nvars
            pt[pos] = v
            yield tuple(pt)
    for v1, v2 in itertools.product([1, -1, 2], repeat=2):
        for p1, p2 in itertools.combinations(range(nvars), 2):
            pt = [0] * nvars
            pt[p1], pt[p2] = v1, v2
            yield tuple(pt)
    rng = random.Random(20260815)
    for _ in range(64):
        yield tuple(Fraction(rng.randint(-999, 999), rng.randint(1, 30))
                    for _ in range(nvars))


def _find_witness(lhs: RationalPoly, rhs: RationalPoly) -> dict:
    diff = lhs - rhs
    for point in _witness_candidates(diff.nvars):
        if diff.eval(point) != 0:
            return {
                "point": tuple(str(v) for v in point),
                "lhs": str(lhs.eval(point)),
                "rhs": str(rhs.eval(point)),
            }
    lead = diff.sorted_terms()[-1]
    return {"point": None, "lhs": None, "rhs": None,
            "leading_term": {"exponents": lead[0], "coefficient": str(lead[1])}}


def verify_record(record: IdentityRecord) -> VerifyResult:
    """Expand a record's component pairs and zero-test each difference."""
    pairs = record.build()
    for idx, (lhs, rhs) in enumerate(pairs):
        if not (lhs - rhs).is_zero:
            witness = _find_witness(lhs, rhs)
            witness["component"] = idx
            return VerifyResult(
                name=record.name, passed=False, components=len(pairs),
                witness=witness,
                detail=f"component {idx} of {len(pairs)} is a nonzero polynomial")
    return VerifyResult(name=record.name, passed=True, components=len(pairs),
                        detail=record.description)


def verify_identity(name: str) -> VerifyResult:
    """Certify one registered identity by exact polynomial expansion."""
    if name not in REGISTRY:
        raise ValueError(f"unknown identity {name!r}; known: {sorted(REGISTRY)}")
    with _sharing():
        return verify_record(REGISTRY[name])


def verify_all() -> list:
    """Certify every registered identity; the records share their named quantities."""
    with _sharing():
        return [verify_record(rec) for rec in REGISTRY.values()]


def assemble_symbolic(recipe: str, minimal: bool = False) -> RationalPoly:
    """Exact polynomial for a named scalar invariant in l1..l4.

    ``recipe`` is one of the names S, H, A2sq, trA3, trA5, trA6, Wsq,
    Wpmsq, ricTFsq, trWstarW, tripleW, tripleWplus, spelled exactly so;
    any other string is a ValueError listing them. With ``minimal`` the
    result is restricted to the trace-free surface. trWstarW expands to
    the zero polynomial: the signature integrand of an induced metric
    vanishes identically. Each call runs the shipped kernels afresh,
    computing each named quantity once; nothing is kept between calls.
    """
    if recipe not in _RECIPES:
        raise ValueError(f"unsupported recipe pattern {recipe!r}; known recipes: {_RECIPES}")
    with _sharing():
        value = _symbol(recipe)
    return _eliminate_last(value, 4) if minimal else value
