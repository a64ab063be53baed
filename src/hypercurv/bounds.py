"""Integral-geometric bounds for closed minimal hypersurfaces in dim four.

The Chern-Gauss-Bonnet identity for a closed minimal 4-dim hypersurface
with constant squared second fundamental form S ties S, the Euler
characteristic, the volume, and the averaged fourth-order invariant
A2avg = avg(|A^2|^2) into one quadratic equation; `s_quadratic` solves it.
Independently, S admits a volume-normalized topological lower bound
`f_lower_bound` assembled from three overlapping regimes, and the Weyl
L2 energy admits sharp topological thresholds collected in
`weyl_threshold_report`.

All predicates here are reporting tools: a violated hypothesis marks the
entry "not applicable" instead of raising, since partially known global
data is the normal situation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .tolerances import _MAX_SCALE, CLUSTER_TOL

__all__ = [
    "GlobalData",
    "SQuadraticResult",
    "VolumeBound",
    "s_quadratic",
    "f_lower_bound",
    "f_lower_bound_candidates",
    "weyl_threshold_report",
    "euler_integrand_bounds",
    "volume_hypothesis_bounds",
]

_SCAL_SIGNS = ("positive", "zero", "negative", "unknown")


def _require_capped(**values) -> None:
    """PointState's entry cap, exact on ints, on each named number given:
    1 + |x| is finite and at most 1e50, which keeps every bound finite."""
    for name, value in values.items():
        if value is not None and not 1 + abs(value) <= _MAX_SCALE:
            raise ValueError(f"{name} must be finite, got {value}" if not abs(value) < math.inf
                             else f"{name} must not exceed {_MAX_SCALE:.0e} in magnitude")


@dataclass(frozen=True)
class GlobalData:
    """Global invariants of a closed hypersurface, possibly partial."""

    chi: int
    vol: float
    S: float | None = None
    weylL2: float | None = None
    c: float = 1.0
    A2avg: float | None = None
    scalSign: str = "unknown"

    def __post_init__(self):
        if isinstance(self.chi, bool) or not isinstance(self.chi, int):
            raise ValueError(f"chi must be an integer, got {self.chi!r}")
        _require_capped(**{name: getattr(self, name)
                           for name in ("chi", "vol", "S", "weylL2", "c", "A2avg")})
        if self.vol <= 0.0:
            raise ValueError(f"vol must be positive, got {self.vol}")
        if not 1 + abs(self.chi / self.vol) <= _MAX_SCALE:
            raise ValueError(f"vol must keep |chi/vol| <= {_MAX_SCALE:.0e}, got {self.vol}")
        if self.S is not None and self.S < 0.0:
            raise ValueError(f"S must be nonnegative, got {self.S}")
        if self.weylL2 is not None and self.weylL2 < 0.0:
            raise ValueError(f"weylL2 must be nonnegative, got {self.weylL2}")
        if self.scalSign not in _SCAL_SIGNS:
            raise ValueError(f"scalSign must be one of {_SCAL_SIGNS}, got {self.scalSign!r}")


@dataclass(frozen=True)
class SQuadraticResult:
    """Both roots of the constant-S Gauss-Bonnet quadratic."""

    s: float
    s_minus: float
    discriminant: float
    warnings: tuple = field(default_factory=tuple)


def s_quadratic(c: float, chi: int, vol: float, A2avg: float) -> SQuadraticResult:
    """Solve for constant S from the integrated Gauss-Bonnet identity.

    For a closed minimal hypersurface with S constant,

        3 S^2 - 4 c S + 24 c^2 - 6 A2avg = 32 pi^2 chi / vol,

    so S = 2c/3 + sqrt(-68 c^2 / 9 + 32 pi^2 chi / (3 vol) + 2 A2avg).
    The "+" root is returned as the primary value with the "-" root
    reported alongside: both satisfy the identity, and the data alone
    cannot always distinguish them. A negative discriminant means the
    data violate the underlying integral identity (no real constant S is
    compatible) and is an error. When the primary root violates the
    pointwise consequence A2avg >= S^2/4 a consistency warning is
    attached; the "-" root is then usually the geometric one.
    """
    _require_capped(c=c, chi=chi, vol=vol, A2avg=A2avg)
    if vol <= 0.0:
        raise ValueError(f"vol must be positive, got {vol}")
    _require_capped(**{"chi/vol": chi / vol})
    disc = -68.0 * c * c / 9.0 + 32.0 * math.pi ** 2 * chi / (3.0 * vol) + 2.0 * A2avg
    if disc < 0.0:
        raise ValueError(
            "negative discriminant: the data violate the integral inequality "
            "2 A2avg + 32 pi^2 chi / (3 vol) >= 68 c^2 / 9 required for a real "
            f"constant S (discriminant {disc:.6e})")
    root = math.sqrt(disc)
    s_plus = 2.0 * c / 3.0 + root
    s_minus = 2.0 * c / 3.0 - root
    warns = []
    if A2avg < s_plus * s_plus / 4.0 - 1e-12 * (1.0 + s_plus * s_plus):
        msg = (f"primary root S = {s_plus:.6g} violates A2avg >= S^2/4 "
               f"(A2avg = {A2avg:.6g}); the '-' root {s_minus:.6g} may be the "
               "geometric solution")
        warns.append(msg)
    return SQuadraticResult(s=s_plus, s_minus=s_minus, discriminant=disc,
                            warnings=tuple(warns))


def _regimes(x: float) -> dict:
    """The three pinching regime bounds at x, None outside their domains."""
    return {
        "low": -4.0 + 8.0 * math.sqrt(1.0 - x) if x <= 1.0 else None,
        "mid": 4.0 * math.sqrt(x) if x >= 0.0 else None,
        "high": (4.0 / 3.0 + (8.0 * math.sqrt(2.0) / 3.0) * math.sqrt(1.5 * x - 1.0)
                 if x >= 2.0 / 3.0 else None),
    }


def f_lower_bound_candidates(r: float) -> dict:
    """The three regime bounds underlying f, None outside their domains.

    r is the Euler characteristic per unit volume. Internally x = pi^2 r
    is used so the regime breakpoints 9/25 and 1 are exact rationals.
    Keys: "low" (defined for x <= 1), "mid" (x >= 0), "high" (x >= 2/3).
    f is the pointwise maximum of the defined candidates.
    """
    _require_capped(r=r)
    return _regimes(math.pi ** 2 * r)


def f_lower_bound(r: float) -> float:
    """Topological lower bound f(r) <= S for r = chi / vol.

    Piecewise in x = pi^2 r:

        x <= 9/25:      -4 + 8 sqrt(1 - x)
        9/25 < x <= 1:   4 sqrt(x)
        x > 1:           4/3 + (8 sqrt2 / 3) sqrt(3x/2 - 1)

    Continuous with values 12/5 and 4 at the breakpoints and f(0) = 4;
    equals the pointwise maximum of the three regime bounds wherever they
    are defined.
    """
    _require_capped(r=r)
    x = math.pi ** 2 * r
    return _regimes(x)["low" if x <= 9.0 / 25.0 else "mid" if x <= 1.0 else "high"]


def _entry(violated, threshold, value, tol):
    out = {"applicable": violated is None, "violated": violated, "threshold": threshold,
           "slack": None, "holds": None, "equality": None, "note": "unavailable: missing data"}
    if value is not None and threshold is not None:
        slack = value - threshold
        scale = 1.0 + abs(threshold) + abs(value)
        out.update(slack=slack, holds=slack >= -tol * scale,
                   equality=abs(slack) <= tol * scale, note=None)
    return out


def weyl_threshold_report(g: GlobalData, tol: float = CLUSTER_TOL) -> dict:
    """Sharp topological thresholds for the Weyl L2 energy and for S.

    Entries (name -> record with applicable/violated/threshold/slack/
    holds/equality):

    weyl_c0_strict: for c = 0, a non-conformally-flat closed minimal
        hypersurface has weylL2 > 256/9 pi^2 chi.
    weyl_c1_clifford: for c = 1 and S constant,
        weylL2 >= 64/3 pi^2 chi, with equality exactly for the Clifford
        product S^2 x S^2.
    weyl_nonpos_scal: for constant nonpositive scalar curvature,
        weylL2 >= 32 pi^2 chi.
    corpinch: for chi >= 0, S >= 4 pi sqrt(chi / vol); the record also
        stores the bound value as "threshold".

    A violated hypothesis is reported, never raised; slack is still
    computed when the data allow, since the comparison value is often
    informative even off-hypothesis.
    """
    out = {}
    out["weyl_c0_strict"] = _entry(
        None if g.c == 0.0 else f"requires c = 0, data has c = {g.c:g}",
        256.0 / 9.0 * math.pi ** 2 * g.chi if g.chi is not None else None,
        g.weylL2, tol)

    violated = None
    if g.c != 1.0:
        violated = f"requires c = 1, data has c = {g.c:g}"
    elif g.S is None:
        violated = "requires constant S, not supplied"
    out["weyl_c1_clifford"] = _entry(
        violated, 64.0 / 3.0 * math.pi ** 2 * g.chi, g.weylL2, tol)

    out["weyl_nonpos_scal"] = _entry(
        None if g.scalSign in ("zero", "negative")
        else f"requires nonpositive scalar curvature, sign is {g.scalSign!r}",
        32.0 * math.pi ** 2 * g.chi, g.weylL2, tol)

    if g.chi >= 0:
        bound = 4.0 * math.pi * math.sqrt(g.chi / g.vol)
        out["corpinch"] = _entry(None, bound, g.S, tol)
    else:
        out["corpinch"] = _entry(f"requires chi >= 0, got {g.chi}", None, g.S, tol)
    return out


def euler_integrand_bounds(S: float, c: float = 1.0) -> tuple:
    """(low, high) at level S for a minimal state with |A|^2 = S in the
    space form of curvature c (the data's c, as in s_quadratic); they bound
    two different quantities.

    low = 1/16 (4c - S)(12c + S) is the minimum of the normalized
    Gauss-Bonnet integrand cgb/8, since cgb/8 = low + 3/16 |W|^2; it is
    reached exactly at conformally flat points. high = 1/3 S^2 is the
    maximum of |W|^2/4 at that level, whatever c, reached exactly at
    Einstein points. high does not bound cgb/8: S = 0 and c = 1 give (3, 0)
    with cgb/8 = 3.
    """
    _require_capped(S=S, c=c)
    if S < 0.0:
        raise ValueError(f"S must be nonnegative, got {S}")
    return ((4.0 * c - S) * (12.0 * c + S) / 16.0, S * S / 3.0)


@dataclass(frozen=True)
class VolumeBound:
    """S bound under the volume hypothesis vol <= 5 pi^3 / 4."""

    chi: int
    bound: float | None
    exceeds_16_3: bool | None
    note: str | None = None


def volume_hypothesis_bounds(chi: int) -> VolumeBound:
    """Lower bound for S given chi, under the volume cap vol <= 5 pi^3/4.

    Substituting the volume cap into the topological bound f yields its
    "low" and "high" regimes at x = y = 4 chi / (5 pi):

        chi <= 0:  S >= -4 + 8 sqrt(1 - y)
        chi >= 4:  S >= 4/3 + (8 sqrt2 / 3) sqrt(3y/2 - 1)

    For chi = 2 no volume-independent statement is made (the two regimes
    do not cover it) and the bound is None. The Euler characteristic of a
    closed orientable 4-manifold admitting these hypotheses is even; an
    odd input is an error. The flag states whether the bound exceeds
    16/3; for chi = 4 the bound exists but the exceedance claim is not
    made.
    """
    if not isinstance(chi, (int,)) or isinstance(chi, bool):
        raise ValueError(f"chi must be an integer, got {chi!r}")
    _require_capped(chi=chi)
    if chi % 2 != 0:
        raise ValueError(f"chi must be even for a closed hypersurface, got {chi}")
    if chi == 2:
        return VolumeBound(chi=chi, bound=None, exceeds_16_3=None,
                           note="no bound stated for chi = 2")
    bound = _regimes(4.0 * chi / (5.0 * math.pi))["low" if chi <= 0 else "high"]
    if chi == 4:
        return VolumeBound(chi=chi, bound=bound, exceeds_16_3=False,
                           note="bound defined; the 16/3 exceedance claim is not made at chi = 4")
    return VolumeBound(chi=chi, bound=bound, exceeds_16_3=bound > 16.0 / 3.0)
