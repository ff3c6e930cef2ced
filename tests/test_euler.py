"""Euler characteristic formulas: hand-evaluated anchors, algebraic
identities between the routes, and the composed and equidimensional
variants."""

import random
from fractions import Fraction

import pytest

from singchi.errors import (
    BadParamsError,
    NegativeMuImageError,
    NonIntegralChiError,
    NonIsolatedError,
    SingchiError,
)
from singchi.euler import (
    ComposedChiReport,
    StratumDatum,
    chi_difference_3to4,
    chi_mf_image,
    equidim_chi_check,
    image_chi_report,
    image_milnor_number,
    image_strata_data,
    strata_chi,
    stratified_euler_difference,
    zariski_chi,
)
from singchi.multiple_points import InvariantTuple, invariant_tuple, map_germ
from singchi.poly import parse_poly

from oracles import fraction_chi_report, fraction_strata_chi


def tup(a, b, c, d, b2, b3, b4, q):
    return InvariantTuple(
        mu_d2=a,
        mu_d2h=b,
        mu_d3=c,
        mu_d3h1=d,
        d2_nonempty=bool(b2),
        d3_nonempty=bool(b3),
        d4_nonempty=bool(b4),
        quad_points=q,
    )


A1 = tup(1, 1, 0, 0, 1, 0, 0, 0)
P1 = tup(0, 0, 1, 1, 1, 1, 0, 0)
Q2 = tup(1, 1, 1, 1, 1, 1, 0, 0)
B2 = tup(3, 1, 0, 0, 1, 0, 0, 0)
ZERO = tup(0, 0, 0, 0, 0, 0, 0, 0)


# ------------------------------------------------------------------ strata


def test_strata_chi_smooth_image():
    s = strata_chi(ZERO)
    assert s.chi_sheet == 1
    assert (s.chi_double, s.chi_triple, s.chi_quadruple) == (0, 0, 0)
    assert (s.chi_pinch, s.chi_pinch_crossing) == (0, 0)


def test_strata_chi_a1_by_hand():
    s = strata_chi(A1)
    assert s.chi_sheet == 0
    assert s.chi_double == 1
    assert s.chi_triple == 0
    assert s.chi_pinch == 0
    assert s.chi_quadruple == 0
    assert s.chi_pinch_crossing == 0
    assert s.pair_double == 1
    assert s.pair_triple == 0
    assert s.pair_pinch == 0


def test_strata_chi_p1_by_hand():
    # a = b = 0, c = d = 1, beta2 = beta3 = 1, Q = 0:
    # chi_sheet = 1 - (0 + (1 + 3 + 2)/6 + 0) = 0
    # chi_double = 1 + 0 + (1 - 1)/3 = 1
    # chi_triple = 1 - (1 - 3 + 2)/6 = 1
    # chi_pinch = 1 - 0 = 1, chi_pinch_crossing = 1 + 1 = 2
    s = strata_chi(P1)
    assert s.chi_sheet == 0
    assert s.chi_double == 1
    assert s.chi_triple == 1
    assert s.chi_pinch == 1
    assert s.chi_pinch_crossing == 2
    assert s.pair_double == 1 - 1 - 1 + 2
    assert s.pair_triple == 1 - 0 - 2
    assert s.pair_pinch == 1 - 2


def test_strata_chi_rejects_parity_violation():
    bad = tup(0, 0, 1, 0, 1, 1, 0, 0)
    with pytest.raises(NonIntegralChiError):
        strata_chi(bad)


def test_strata_quadruple_and_pinch_crossing_are_literal():
    t = tup(2, 2, 4, 2, 1, 1, 1, 5)
    s = strata_chi(t)
    assert s.chi_quadruple == 5
    assert s.chi_pinch_crossing == 2 + 1


# --------------------------------------------------------- headline values


def test_image_milnor_number_anchors():
    assert image_milnor_number(A1) == 1
    assert image_milnor_number(P1) == 1
    assert image_milnor_number(Q2) == 2
    assert image_milnor_number(B2) == 2
    assert image_milnor_number(ZERO) == 0


def test_chi_mf_anchors():
    # Catalog convention records -chi(MF): A1 -> 1, P1 -> 3, Q2 -> 6, B2 -> 3.
    assert chi_mf_image(A1) == -1
    assert chi_mf_image(P1) == -3
    assert chi_mf_image(Q2) == -6
    assert chi_mf_image(B2) == -3
    assert chi_mf_image(ZERO) == 1


def test_chi_difference_a1():
    assert chi_difference_3to4(A1) == -1
    assert chi_difference_3to4(ZERO) == 0


def random_integral_tuple(rng):
    # The divisibility constraints of the formulas reduce to: a + b even,
    # c and d of equal parity, c congruent to beta3 mod 3. Sampling inside
    # that lattice keeps every formula integral by construction.
    beta3 = rng.randrange(0, 2)
    a = rng.randrange(0, 9)
    b = a % 2 + 2 * rng.randrange(0, 4)
    c = beta3 + 3 * rng.randrange(0, 3)
    d = c % 2 + 2 * rng.randrange(0, 4)
    return tup(a, b, c, d, 1, beta3, rng.randrange(0, 2), rng.randrange(0, 5))


def test_difference_is_chi_mf_minus_disentanglement():
    rng = random.Random(5)
    for _ in range(300):
        t = random_integral_tuple(rng)
        mu = image_milnor_number(t)
        chi = chi_mf_image(t)
        diff = chi_difference_3to4(t)
        assert chi == (1 - mu) + diff


def _outcome(fn, t):
    """fn(t), or the type and message of the SingchiError it raises."""
    try:
        return fn(t)
    except SingchiError as exc:
        return type(exc), str(exc)


def test_integer_formulas_match_fraction_formulas():
    # every field of both reports as the formulas evaluate in Fraction
    # arithmetic, and on tuples that are not realizable the same error
    # with the same message
    rng = random.Random(16)
    seen = set()
    for i in range(1500):
        if i % 3:
            mus = [rng.randint(-3, 9) for _ in range(4)]
            t = tup(*mus, *(rng.randint(0, 1) for _ in range(3)), rng.randint(-1, 4))
        else:
            t = random_integral_tuple(rng)
        got = _outcome(lambda t: image_chi_report(t).as_dict(), t)
        assert got == _outcome(fraction_chi_report, t), t
        strata = _outcome(lambda t: strata_chi(t).as_dict(), t)
        assert strata == _outcome(fraction_strata_chi, t), t
        seen.add(got[0] if isinstance(got, tuple) else "report")
    assert seen == {"report", NonIntegralChiError, NegativeMuImageError}


def test_non_realizable_tuple_raises_negative_mu():
    # Force the half-sum negative via an impossible tuple shape: all mus
    # zero but quadruple count negative is blocked upstream, so use the
    # only route left, a negative entry.
    with pytest.raises(NegativeMuImageError):
        image_milnor_number(tup(-2, 0, 0, 0, 1, 0, 0, 0))


# ------------------------------------------------------- stratified route


def test_stratified_difference_empty():
    assert stratified_euler_difference(()) == 0


def test_stratified_difference_single_stratum():
    edge = StratumDatum("cuspidal edge", 3, -2)
    assert stratified_euler_difference((edge,)) == -6


def test_image_strata_route_matches_difference_formula():
    rng = random.Random(11)
    for _ in range(300):
        t = random_integral_tuple(rng)
        diff = chi_difference_3to4(t)
        strata = image_strata_data(t)
        assert stratified_euler_difference(strata) == diff


def test_image_chi_report_consistent_on_anchors():
    for t, mu_i, chi in ((A1, 1, -1), (P1, 1, -3), (Q2, 2, -6), (B2, 2, -3)):
        rep = image_chi_report(t)
        assert rep.consistent
        assert rep.mu_image == mu_i
        assert rep.chi_mf == chi
        assert rep.chi_disentanglement == 1 - mu_i
        assert rep.chi_mf == rep.chi_disentanglement + rep.chi_difference


def test_image_chi_report_from_computed_germ():
    f = map_germ(("x", "y", "z"), ("x", "y", "y*z + z^4", "x*z + z^3"))
    rep = image_chi_report(invariant_tuple(f))
    assert rep.mu_image == 1
    assert rep.chi_mf == -3
    assert rep.consistent
    d = rep.as_dict()
    assert d["strata"]["chi_pinch"] == 1
    assert d["invariants"]["mu_d3"] == 1


# ------------------------------------------------------------ composed maps


def test_zariski_chi_worked_example():
    rep = zariski_chi(mu_g=1, mu_f=1, n=3, mu_image_f=5)
    assert rep.chi_mf_inner == 0
    assert rep.chi_special_fibre == 6
    assert rep.chi_mf_composed == 6


def test_zariski_chi_no_outer_singularity():
    rep = zariski_chi(mu_g=0, mu_f=4, n=4, mu_image_f=7)
    assert rep.chi_mf_composed == rep.chi_special_fibre


def test_zariski_chi_odd_dimension_identity():
    # Odd n: the correction term vanishes and the reduced chi of the
    # special fibre is exactly the inner image Milnor number.
    rng = random.Random(3)
    for _ in range(200):
        n = rng.choice((3, 5, 7))
        mu_image_f = rng.randrange(0, 9)
        rep = zariski_chi(
            mu_g=rng.randrange(0, 9),
            mu_f=rng.randrange(0, 9),
            n=n,
            mu_image_f=mu_image_f,
        )
        assert rep.chi_special_fibre - 1 == mu_image_f


def test_zariski_chi_rejects_bad_inputs():
    with pytest.raises(BadParamsError):
        zariski_chi(-1, 0, 3, 0)
    with pytest.raises(BadParamsError):
        zariski_chi(0, 0, 1, 0)


def test_zariski_chi_is_report_type():
    assert isinstance(zariski_chi(0, 0, 2, 0), ComposedChiReport)


# --------------------------------------------------- equidimensional check


def test_equidim_smooth_phi():
    phi = parse_poly("x", ("x",))
    rep = equidim_chi_check(phi, 2)
    assert rep.mu_phi == 0
    assert rep.chi_direct == -1
    assert rep.chi_stratified == -1
    assert rep.agree


def test_equidim_quadric_phi():
    phi = parse_poly("x^2 + y^2", ("x", "y"))
    rep = equidim_chi_check(phi, 3)
    assert rep.mu_phi == 1
    assert rep.chi_direct == 2
    assert rep.agree


def test_equidim_discriminant_shape():
    phi = parse_poly("x", ("x",))
    rep = equidim_chi_check(phi, 2)
    ring = rep.discriminant.ring
    lead = rep.discriminant.coefficient(tuple(2 * (v == "w") for v in ring))
    cube = rep.discriminant.coefficient(tuple(3 * (v == "x") for v in ring))
    assert lead != 0
    assert cube * 27 == lead * 4
    assert len(rep.discriminant.terms) == 2


def test_equidim_routes_agree_on_corpus():
    cases = [
        ("x", 2),
        ("x^2", 2),
        ("x^3", 2),
        ("x^2 + y^2", 3),
        ("x^2 + y^3", 3),
        ("x^3 + y^3", 3),
        ("x^2 + y^2 + u^2", 4),
    ]
    for text, n in cases:
        ring = ("x", "y", "u")[: n - 1]
        rep = equidim_chi_check(parse_poly(text, ring), n)
        assert rep.agree
        sign = 1 if (n - 1) % 2 == 0 else -1
        assert rep.chi_direct == -1 + 3 * sign * rep.mu_phi


def test_equidim_rejects_nonisolated_phi():
    phi = parse_poly("x^2 * y", ("x", "y"))
    with pytest.raises(NonIsolatedError):
        equidim_chi_check(phi, 3)


def test_equidim_rejects_wrong_variable_count():
    phi = parse_poly("x^2 + y^2", ("x", "y"))
    with pytest.raises(BadParamsError):
        equidim_chi_check(phi, 2)


def test_equidim_fresh_variable_names_do_not_clash():
    phi = parse_poly("s^2 + w^2", ("s", "w"))
    rep = equidim_chi_check(phi, 3)
    assert rep.agree
    assert rep.mu_phi == 1
