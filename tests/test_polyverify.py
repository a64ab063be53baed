"""Tests for the exact rational-polynomial certification layer."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurv import extrinsic, lambda2, polyverify
from hypercurv.polyverify import RationalPoly


def _frac(num, den):
    return Fraction(num, den)


def test_binomial_cube_expansion():
    x = RationalPoly.variable(0, 3)
    y = RationalPoly.variable(1, 3)
    cube = (x + y) * (x + y) * (x + y)
    assert cube.sorted_terms() == [
        ((0, 3, 0), Fraction(1)),
        ((1, 2, 0), Fraction(3)),
        ((2, 1, 0), Fraction(3)),
        ((3, 0, 0), Fraction(1)),
    ]


def test_sums_with_object_arrays_are_elementwise_on_either_side():
    x = RationalPoly.variable(0, 2)
    y = RationalPoly.variable(1, 2)
    a = np.array([x, y], dtype=object)
    for got, want in ((x + a, [x + x, x + y]), (a + x, [x + x, y + x]),
                      (x - a, [x - x, x - y]), (a - x, [x - x, y - x])):
        assert isinstance(got, np.ndarray) and got.dtype == object
        assert list(got) == want
    assert 1 - x == RationalPoly.const(1, 2) - x
    with pytest.raises(TypeError, match="rational coefficient expected"):
        x + 0.5
    for bad in (lambda: x + "s", lambda: x - "s", lambda: "s" - x):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(TypeError, match="replacement must be a polynomial"):
        x.substitute(0, a)


def test_add_sub_round_trip_is_bit_exact():
    x = RationalPoly.variable(0, 2)
    y = RationalPoly.variable(1, 2)
    p = x * x * Fraction(7, 3) - y * Fraction(1, 6) + RationalPoly.const(
        Fraction(-5, 11), 2)
    r = y * y * y * Fraction(22, 7) + x
    assert ((p + r) - r).sorted_terms() == p.sorted_terms()
    assert (p - p).is_zero


def test_substitute_and_eval_agree():
    x = RationalPoly.variable(0, 2)
    y = RationalPoly.variable(1, 2)
    p = x * x * y - y * y + RationalPoly.const(Fraction(3), 2)
    pinned = p.substitute(1, RationalPoly.const(Fraction(5, 2), 2))
    for v in (Fraction(0), Fraction(-2), Fraction(7, 4)):
        assert pinned.eval((v, Fraction(99))) == p.eval((v, Fraction(5, 2)))


def test_zero_and_const_degrees():
    z = RationalPoly.zero(4)
    assert z.is_zero
    assert z.degree() == 0
    assert RationalPoly.zero(4) is z and z != RationalPoly.zero(3)
    x = RationalPoly.variable(0, 4)
    assert x + 0 is x and 0 + x is x
    c = RationalPoly.const(Fraction(9, 2), 4)
    assert c.degree() == 0
    assert c.eval(tuple(Fraction(1) for _ in range(4))) == Fraction(9, 2)


def test_degree_cap_guards_runaway_products():
    x = RationalPoly.variable(0, 1)
    p = x
    for _ in range(11):
        p = p * x
    with pytest.raises(ValueError, match="degree cap"):
        p * x
    with pytest.raises(ValueError, match="degree cap"):
        p * p


def test_representation_is_canonical():
    x = RationalPoly.variable(0, 3)
    y = RationalPoly.variable(2, 3)
    p = x * x * Fraction(2, 3) + y * Fraction(-5, 4) + 7
    q = RationalPoly(3, {(0, 0, 0): 7, (0, 0, 1): Fraction(-5, 4), (2, 0, 0): Fraction(4, 6)})
    r = (y * Fraction(-15, 4) + 21 + x * x * 2) / 3
    assert p == q == r
    assert hash(p) == hash(q) == hash(r)
    assert (p - p).is_zero and p - p == RationalPoly.zero(3)
    assert RationalPoly(3, p.terms) == p
    third = RationalPoly.const(Fraction(1, 3 ** 60), 3)
    assert third * 3 ** 60 == RationalPoly.const(1, 3)
    assert (third * 3 ** 60).terms == {(0, 0, 0): Fraction(1)}


def test_constructor_and_products_validate():
    with pytest.raises(ValueError, match="degree cap"):
        RationalPoly(2, {(7, 6): 1})
    with pytest.raises(ValueError, match="nvars"):
        RationalPoly(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        RationalPoly(2, {(-1, 2): 1})
    # exponents are integers, not truncated floats or parsed strings
    with pytest.raises(TypeError):
        RationalPoly(1, {(1.5,): 1})
    with pytest.raises(TypeError):
        RationalPoly(2, {(1, '2'): 3})
    x6 = RationalPoly(2, {(6, 0): 1})
    with pytest.raises(ValueError, match="degree cap"):
        x6 * RationalPoly(2, {(3, 4): Fraction(1, 2)})
    with pytest.raises(ValueError, match="nvars mismatch"):
        x6 * RationalPoly.variable(0, 3)
    with pytest.raises(ValueError, match="nvars mismatch"):
        x6 + RationalPoly.variable(0, 3)


_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# keep each factor at degree <= 3 so triple products stay under the
# degree cap enforced by the constructor
_expvecs = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))


@st.composite
def _polys(draw):
    terms = draw(st.lists(st.tuples(_expvecs, _coeffs), min_size=0, max_size=3))
    p = RationalPoly.zero(3)
    for exps, coeff in terms:
        mono = RationalPoly.const(coeff, 3)
        for idx, e in enumerate(exps):
            for _ in range(e):
                mono = mono * RationalPoly.variable(idx, 3)
        p = p + mono
    return p


@settings(max_examples=40, deadline=None)
@given(_polys(), _polys(), _polys())
def test_ring_laws(p, q, r):
    assert (p + q).sorted_terms() == (q + p).sorted_terms()
    assert (p * q).sorted_terms() == (q * p).sorted_terms()
    assert ((p + q) + r).sorted_terms() == (p + (q + r)).sorted_terms()
    assert ((p * q) * r).sorted_terms() == (p * (q * r)).sorted_terms()
    assert (p * (q + r)).sorted_terms() == (p * q + p * r).sorted_terms()


@settings(max_examples=40, deadline=None)
@given(_polys(), st.tuples(*[st.fractions(min_value=-3, max_value=3,
                                          max_denominator=5)] * 3))
def test_eval_is_ring_homomorphism(p, pt):
    q = p * p + p
    assert q.eval(pt) == p.eval(pt) * p.eval(pt) + p.eval(pt)


def test_registry_all_pass():
    results = polyverify.verify_all()
    assert len(results) == len(polyverify.REGISTRY) == 12
    assert {r.name for r in results} == set(polyverify.REGISTRY)
    for r in results:
        assert r.passed, r
        assert r.witness is None


def test_corrupted_record_is_caught_with_witness():
    bad = polyverify.verify_record(polyverify.corrupted_normWpm_record())
    assert not bad.passed
    assert bad.witness["point"] == ("1", "0", "0", "0")
    assert bad.witness["lhs"] == "0"
    assert bad.witness["rhs"] == "-1/6"
    assert "nonzero polynomial" in bad.detail


def _doubled(kernel):
    return lambda *args: kernel(*args) * 2


def _doubled_ric_tf(kernel):
    def gauss(A, c):
        riem, ric, scal, ric_tf = kernel(A, c)
        return riem, ric, scal, ric_tf * 2
    return gauss


# kernel name -> (corruption, identities it must fail)
_CORRUPTIONS = {
    "_weyl_raw": (_doubled, ["normWpm_generalH"]),
    "_star4": (_doubled, ["normWpm_generalH"]),
    "_wpm_sq": (_doubled, ["normWpm_generalH"]),
    "_w_sq": (_doubled, ["normW_generalH"]),
    "_ric0_sq": (_doubled, ["ricTFsq"]),
    "_cgb": (_doubled, ["cgb_consistency"]),
    "_w_sq_minimal": (_doubled, ["generalN_weylnorm"]),
    "_gauss": (_doubled_ric_tf, ["ricTFsq", "cgb_consistency", "generalN_weylnorm"]),
    "_fialkow": (_doubled, ["fialkow_form"]),
}


@pytest.mark.parametrize("module, name", [
    (extrinsic, "_weyl_raw"), (lambda2, "_star4"), (extrinsic, "_wpm_sq"),
    (extrinsic, "_w_sq"), (extrinsic, "_ric0_sq"), (extrinsic, "_cgb"),
    (extrinsic, "_w_sq_minimal"), (extrinsic, "_gauss"), (extrinsic, "_fialkow"),
])
def test_certifier_runs_the_shipped_kernels(monkeypatch, module, name):
    # Doubles a shipped kernel's value (the trace-free Ricci tensor for the
    # Gauss kernel): every identity built on it must fail with a witness.
    corrupt, identities = _CORRUPTIONS[name]
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    for identity in identities:
        bad = polyverify.verify_identity(identity)
        assert not bad.passed, identity
        assert bad.witness["point"] is not None
        assert Fraction(bad.witness["lhs"]) != Fraction(bad.witness["rhs"])


def test_registry_components_are_polynomials():
    for rec in list(polyverify.REGISTRY.values()) + [polyverify.corrupted_normWpm_record()]:
        for lhs, rhs in rec.build():
            assert type(lhs) is RationalPoly and type(rhs) is RationalPoly, rec.name


def test_float_coefficients_must_be_integers():
    x = RationalPoly.variable(0, 1)
    assert (x * -1.0) == -x
    assert (x * 0.0).is_zero
    with pytest.raises(TypeError, match="rational coefficient"):
        x * 0.5
    assert (x / 2).eval((1,)) == Fraction(1, 2)
    # the check comes before the zero shortcut, and covers inf and nan
    for poly, scalar in [(RationalPoly.zero(3), 0.5), (x, float("inf")), (x, float("nan"))]:
        with pytest.raises(TypeError, match="rational coefficient"):
            poly * scalar


def _weyl_tensors():
    lams = polyverify._lam_vars(4, 4)
    return [polyverify._weyl4(lams), *polyverify._weyl4_pm(lams)]


@pytest.mark.parametrize("which", [0, 1, 2], ids=["W", "W+", "W-"])
def test_pairwise_triple_matches_the_three_operand_einsum(which):
    T = _weyl_tensors()[which]
    assert polyverify._triple(T) == np.einsum("ijkl,pqkl,ijpq->", T, T, T)


@pytest.mark.parametrize("module, name", [(extrinsic, "_weyl_raw"), (lambda2, "_star4")])
def test_weyl_tensors_are_shared_within_one_call_only(monkeypatch, module, name):
    assert all(r.passed for r in polyverify.verify_all())
    with monkeypatch.context() as patch:
        patch.setattr(module, name, _doubled(getattr(module, name)))
        bad = {r.name: r for r in polyverify.verify_all()}["normWpm_generalH"]
        assert not bad.passed
        assert bad.witness["point"] is not None
    assert all(r.passed for r in polyverify.verify_all())


def test_unknown_identity_lists_known_names():
    with pytest.raises(ValueError, match="ricTFsq"):
        polyverify.verify_identity("not_a_real_identity")


def test_unknown_recipe_rejected():
    with pytest.raises(ValueError, match="unsupported recipe pattern"):
        polyverify.assemble_symbolic("garbage recipe")


def test_weyl_norm_recipe_golden():
    w = polyverify.assemble_symbolic("Wsq")
    assert w.nvars == 4
    assert w.degree() == 4
    pt = tuple(Fraction(v) for v in (1, 1, -1, -1))
    assert w.eval(pt) == Fraction(64, 3)


def test_star_pairing_recipe_vanishes_identically():
    assert polyverify.assemble_symbolic("trWstarW").is_zero


def test_minimal_recipe_agrees_on_traceless_points():
    gen = polyverify.assemble_symbolic("Wpmsq")
    mini = polyverify.assemble_symbolic("Wpmsq", minimal=True)
    pts = [
        (_frac(3, 2), _frac(-1, 3), _frac(2, 7), _frac(-3, 2) + _frac(1, 3) - _frac(2, 7)),
        (_frac(1, 1), _frac(1, 1), _frac(-1, 1), _frac(-1, 1)),
        (_frac(5, 4), _frac(-5, 4), _frac(0, 1), _frac(0, 1)),
    ]
    for pt in pts:
        assert sum(pt) == 0
        assert gen.eval(pt) == mini.eval(pt)


def test_symbolic_matches_float_layer_at_rational_points():
    rng = np.random.default_rng(7)
    recipes = {
        "S": lambda n: n.S,
        "A2sq": lambda n: n.A2sq,
        "trA3": lambda n: n.trA3,
        "trA5": lambda n: n.trA5,
        "trA6": lambda n: n.trA6,
        "Wsq": lambda n: n.Wsq,
        "Wpmsq": lambda n: n.Wpmsq,
        "ricTFsq": lambda n: n.RicTFsq,
    }
    polys = {name: polyverify.assemble_symbolic(name) for name in recipes}
    for _ in range(20):
        nums = rng.integers(-8, 9, size=4)
        dens = rng.integers(1, 7, size=4)
        pt = tuple(Fraction(int(a), int(b)) for a, b in zip(nums, dens))
        state = extrinsic.PointState(A=np.diag([float(v) for v in pt]))
        pack = extrinsic.closed_form_norms(state)
        for name, getter in recipes.items():
            exact = float(polys[name].eval(pt))
            approx = getter(pack)
            assert approx == pytest.approx(exact, rel=1e-12, abs=1e-12), name


@pytest.mark.parametrize("minimal", [False, True])
def test_every_recipe_alias_resolves_to_its_canonical_polynomial(minimal):
    for alias, canonical in polyverify._ALIASES.items():
        assert polyverify.assemble_symbolic(alias, minimal) == \
            polyverify.assemble_symbolic(canonical, minimal), alias


def test_spaced_recipe_resolves_like_its_unspaced_alias():
    # the lookup strips spaces, so one unspaced key serves both spellings
    for minimal in (False, True):
        assert polyverify.assemble_symbolic("tr(W ∘ ⋆W)", minimal) == \
            polyverify.assemble_symbolic("trWstarW", minimal)
