"""Polynomial kernel: parsing, arithmetic, divided differences, resultants."""

import math
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from singchi.errors import (
    EmptyArgsError,
    PolyParseError,
    UnknownVariableError,
    ZeroDegreeError,
)
from corpus import exponent_dict
from oracles import cofactor_determinant, recursive_divided_difference
from singchi.poly import (
    Polynomial,
    _degrees,
    _key,
    determinant,
    divided_difference,
    jacobian,
    parse_poly,
    resultant,
    substitute,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, ring=XYZ):
    return parse_poly(text, ring)


# --- parsing ---------------------------------------------------------------


def test_parse_simple_sum():
    p = P("x^2 + 2*x*y + y^2")
    assert p.coefficient((2, 0, 0)) == 1
    assert p.coefficient((1, 1, 0)) == 2
    assert p.coefficient((0, 2, 0)) == 1


def test_parse_rational_literal():
    p = P("1/2*x - 3/4")
    assert p.coefficient((1, 0, 0)) == Fraction(1, 2)
    assert p.constant_term() == Fraction(-3, 4)


def test_parse_parentheses_and_signs():
    assert P("z*(z^2+x^2+y^2)") == P("z^3 + x^2*z + y^2*z")
    assert P("-x - -y") == P("y - x")
    assert P("(x+y)^2 - x^2 - 2*x*y - y^2").is_zero


def test_parse_no_implicit_multiplication():
    with pytest.raises(PolyParseError):
        P("2x")
    with pytest.raises(PolyParseError):
        P("x y")


def test_parse_reports_position():
    with pytest.raises(PolyParseError) as err:
        P("x + @")
    assert err.value.position == 4


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariableError):
        P("x + w")


def test_parse_rejects_uppercase_identifier_start():
    with pytest.raises(PolyParseError):
        P("X")


def test_parse_rejects_rational_exponent():
    with pytest.raises(PolyParseError):
        P("x^1/2 + x")


def test_parse_zero_denominator():
    with pytest.raises(PolyParseError):
        P("1/0")


# --- arithmetic ------------------------------------------------------------


def test_exact_fraction_arithmetic():
    p = P("1/3*x") + P("1/6*x")
    assert p == P("1/2*x")


def test_product_expansion():
    assert P("x+y") * P("x-y") == P("x^2-y^2")


def test_power_by_squaring():
    assert P("x+1") ** 5 == P("x^5+5*x^4+10*x^3+10*x^2+5*x+1")


def test_partial_derivative():
    p = P("x^3*y + 2*x*z - 7")
    assert p.partial("x") == P("3*x^2*y + 2*z")
    assert p.partial("y") == P("x^3")


def test_degree_conventions():
    assert P("0").degree() == -1
    assert P("5").degree() == 0
    assert P("x*y^2 + z").degree() == 3
    assert P("x*y^2").degree_in("y") == 2


# --- rings and exponent tuples -----------------------------------------------


def test_equality_and_hash_ignore_the_ring():
    xy = [parse_poly("x*y", ring) for ring in (XY, ("y", "x"), XYZ)]
    assert [p.terms for p in xy] == [{(1, 1): 1}, {(1, 1): 1}, {(1, 1, 0): 1}]
    for p in xy:
        for q in xy:
            assert p == q
            assert hash(p) == hash(q)
    assert len(set(xy)) == 1
    # the same exponent tuple over two orders of one ring: different polynomials
    assert parse_poly("x*y^2", XY) != parse_poly("x^2*y", ("y", "x"))


def test_with_ring_keeps_every_variable_in_use():
    p = parse_poly("x*y + y", XYZ)
    assert p.with_ring(("y", "x")).terms == {(1, 1): 1, (1, 0): 1}
    assert p.with_ring(("y", "x")) == p
    with pytest.raises(UnknownVariableError):
        p.with_ring(("x", "z"))
    with pytest.raises(ValueError):
        p.with_ring(("x", "y", "x"))


def test_constructor_checks_exponent_tuples():
    assert Polynomial(XY, {(2, 0): 1, (0, 1): Fraction(1, 2)}) == parse_poly("x^2 + 1/2*y", XY)
    with pytest.raises(ValueError):
        Polynomial(XY, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(XY, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(XY, {(2, -1): 1})
    with pytest.raises(TypeError):
        Polynomial(XY, {(1, 0): 0.5})


def test_exponents_stay_below_the_guard_bit():
    # an exponent field holds 16 bits, and exponents stay below 2^15 so
    # that its top bit guards it: every way in raises a ValueError there
    top = 2**15 - 1
    assert Polynomial(XY, {(top, 1): 1}).degree() == top + 1
    with pytest.raises(ValueError):
        Polynomial(XY, {(top + 1, 0): 1})
    assert parse_poly(f"x^{top}*y", XY) == Polynomial(XY, {(top, 1): 1})
    with pytest.raises(ValueError):
        parse_poly(f"y*x^{top + 1}", XY)
    x, y = P("x", XY), P("y", XY)
    assert (x * y) ** top == Polynomial(XY, {(top, top): 1})
    with pytest.raises(ValueError):
        x ** (top + 1)
    assert P("5", XY) ** (top + 1) == 5 ** (top + 1)
    # a product checks the sum of its operands' supports, and pairs only
    # when that sum reaches a guard bit
    high, low = x**16384 + x * y, x**16383
    assert high * low == Polynomial(XY, {(top, 0): 1, (16384, 1): 1})
    with pytest.raises(ValueError):
        high * (low * x)
    with pytest.raises(ValueError):
        determinant([[high, x], [y, low * x]])


#: exponents near the guard bit, and small ones
NEAR_GUARD = (0, 1, 4, 2**14, 2**15 - 2, 2**15 - 1)


@pytest.mark.parametrize("n", [3, 4])
def test_total_degrees_read_off_keys_are_exact(n):
    # one multiply sums a key's fields, each times its weight, only while
    # no prefix sum times the largest weight reaches 2^16:
    # x^32767*y^32767*z^4 would read as degree 2, so such keys are
    # unpacked, alone or beside keys that would read exactly
    ring = ("x", "y", "z", "w")[:n]
    exps = list(product(NEAR_GUARD, repeat=n))
    assert (2**15 - 1, 2**15 - 1, 4) + (0,) * (n - 3) in exps
    keys = [_key(exp, n) for exp in exps]
    for w in (None, (3, 1, 4, 2)[:n]):

        def degree(exp):
            return sum(a * b for a, b in zip(exp, w or (1,) * n))

        for exp, key in zip(exps, keys):
            assert _degrees({key: 1}, n, w) == [degree(exp)]
        assert _degrees(dict.fromkeys(keys, 1), n, w) == [degree(exp) for exp in exps]
        if n == 3:
            for (e1, k1), (e2, k2) in combinations(zip(exps, keys), 2):
                assert _degrees({k1: 1, k2: 1}, n, w) == [degree(e1), degree(e2)]
    for exp in exps:
        assert Polynomial(ring, {exp: 1}).degree() == sum(exp)
    assert Polynomial(ring, dict.fromkeys(exps, 1)).degree() == n * (2**15 - 1)


def test_with_ring_shares_terms_on_extensions_and_prefixes():
    p = P("x*y + y^2")
    wide = p.with_ring(XYZ + ("w",))
    assert wide.nums is p.nums and wide == p
    narrow = p.with_ring(XY)
    assert narrow.nums is p.nums and narrow == p
    swapped = p.with_ring(("y", "x"))
    assert swapped.nums is not p.nums and swapped == p
    assert swapped.terms == {(1, 1): 1, (2, 0): 1}
    assert narrow.with_ring(("y", "z", "x")).terms == {(1, 0, 1): 1, (2, 0, 0): 1}


small_coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda f: f != 0)


@st.composite
def polys(draw, ring=XYZ, max_terms=5, max_exp=3, coeffs=small_coeffs):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        exps = {
            v: draw(st.integers(min_value=0, max_value=max_exp))
            for v in draw(st.sets(st.sampled_from(ring)))
        }
        terms[tuple(exps.get(v, 0) for v in ring)] = draw(coeffs)
    return Polynomial(ring, terms)


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100, deadline=None)
@given(polys())
def test_print_parse_round_trip(p):
    assert parse_poly(str(p), XYZ) == p


def _assert_normal_form(p):
    """int numerators, none zero, over a positive denominator coprime to
    their content; .terms reads them as Fractions."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert len(p.terms) == len(p.nums)
    assert all(type(c) is Fraction for c in p.terms.values())
    exps = exponent_dict(p.nums, len(p.ring))
    assert dict(p.terms) == {m: Fraction(c, p.den) for m, c in exps.items()}


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), small_coeffs)
def test_normal_form_of_every_result(a, b, r):
    results = [
        a + b,
        a - b,
        a * b,
        a * r,
        r * a + 1,
        -a,
        a**2,
        a.partial("x"),
        a.with_ring(("z", "w", "y", "x")),
        substitute(a, {"x": b, "y": r}),
        divided_difference(a, "z", ("z1", "z2", "z1")),
        determinant([[a, b], [b * r, a]]),
        *a.coefficients_in("y").values(),
    ]
    for p in (a, b, *results):
        _assert_normal_form(p)
        assert parse_poly(str(p), p.ring) == p
    # the same polynomial by other paths and over other ring orders
    assert (a * r) * (1 / r) == a
    assert a + b - b == a
    for ring in permutations(XYZ):
        q = Polynomial(ring, {tuple(m[XYZ.index(v)] for v in ring): c for m, c in a.terms.items()})
        assert q == a and hash(q) == hash(a)
        assert parse_poly(str(a), ring) == a


def test_normal_form_of_fractional_coefficients():
    x = P("x")
    half = x * Fraction(1, 2)
    assert (exponent_dict(half.nums, 3), half.den) == ({(1, 0, 0): 1}, 2)
    for whole in (half * 2, half + half, 2 * half, P("1/2*x") * 2):
        assert whole == x and hash(whole) == hash(x) and whole.den == 1
    assert P("2*x + 4*y") * Fraction(1, 2) == P("x + 2*y")
    assert (P("2*x + 4*y") * Fraction(1, 2)).den == 1
    p = P("1/2*y^2*z")
    assert str(p) == "1/2*y^2*z" and (exponent_dict(p.nums, 3), p.den) == ({(0, 2, 1): 1}, 2)
    # the family's sample values 1/3 and 7/5 substituted into an unfolding
    F = parse_poly("z^3 + t*y^2*z + t^2*x*z", XYZ + ("t",))
    for t in (Fraction(1, 3), Fraction(7, 5)):
        q = substitute(F, {"t": t})
        _assert_normal_form(q)
        assert q.den == t.denominator**2
        assert parse_poly(str(q), XYZ) == q and str(parse_poly(str(q), XYZ)) == str(q)
        assert q == P("z^3") + P("y^2*z") * t + P("x*z") * t * t


# --- substitution ----------------------------------------------------------


def test_substitute_polynomial_value():
    p = P("x^2 + y")
    q = substitute(p, {"x": P("y+1", ("y",))})
    assert q == parse_poly("y^2 + 3*y + 1", ("y",))


def test_substitute_constant():
    p = P("x^2 + y")
    assert substitute(p, {"x": Fraction(1, 2), "y": 0}) == Fraction(1, 4)


def test_substitute_introduces_new_ring():
    p = parse_poly("x*y", XY)
    q = substitute(p, {"x": parse_poly("u+v", ("u", "v"))})
    assert q.ring == ("y", "u", "v")
    assert q == parse_poly("u*y + v*y", ("y", "u", "v"))


# --- jacobian / determinant / resultant -------------------------------------


def test_jacobian_shape_and_entries():
    rows = jacobian([P("x^2+y"), P("x*z")], XYZ)
    assert rows[0] == [P("2*x"), P("1"), P("0")]
    assert rows[1] == [P("z"), P("0"), P("x")]


def test_determinant_matches_cofactor_expansion():
    m = [[P("x"), P("y"), P("1")], [P("z"), P("x"), P("0")], [P("1"), P("0"), P("x")]]
    assert determinant(m) == P("x^3 - x*y*z - x")


rational_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    entry = polys(XY, max_terms=3, max_exp=2, coeffs=rational_coeffs)
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_determinant_with_denominators_matches_cofactor_expansion(matrix):
    assert determinant(matrix) == cofactor_determinant(matrix)


def test_resultant_linear_pair():
    ring = ("y", "c", "d")
    r = resultant(parse_poly("y - c", ring), parse_poly("y - d", ring), "y")
    assert r == parse_poly("c - d", ring)


def test_resultant_detects_common_root():
    ring = ("y", "x")
    p = parse_poly("(y - x)*(y + x + 1)", ring)
    q = parse_poly("(y - x)*(y - 2)", ring)
    assert resultant(p, q, "y").is_zero


def test_resultant_cubic_discriminant_shape():
    # The classical depressed-cubic discriminant, used downstream.
    ring = ("y", "a", "w")
    p = parse_poly("y^3 + a*y - w", ring)
    q = parse_poly("3*y^2 + a", ring)
    r = resultant(p, q, "y")
    expected = parse_poly("4*a^3 + 27*w^2", ring)
    ratio = {m: c for m, c in r.terms.items()}
    assert set(ratio) == set(expected.terms)
    scale = r.coefficient((0, 0, 2)) / 27
    assert scale != 0
    assert r == expected * scale


def test_resultant_requires_positive_degree():
    with pytest.raises(ZeroDegreeError):
        resultant(P("x"), P("y"), "z")


# --- divided differences ----------------------------------------------------


def test_divided_difference_single_argument_is_evaluation():
    g = P("z^2 + x")
    d = divided_difference(g, "z", ("z1",))
    assert d == parse_poly("z1^2 + x", ("x", "z1"))


def test_divided_difference_square():
    g = P("z^2")
    assert divided_difference(g, "z", ("z1", "z2")) == parse_poly("z1 + z2", ("z1", "z2"))


def test_divided_difference_with_parameters():
    g = P("z*(z^2+x^2+y^2)")
    d = divided_difference(g, "z", ("z1", "z2"))
    expected = parse_poly("z1^2 + z1*z2 + z2^2 + x^2 + y^2", ("x", "y", "z1", "z2"))
    assert d == expected


def test_divided_difference_confluent_double():
    g = P("z^2")
    assert divided_difference(g, "z", ("z1", "z1")) == parse_poly("2*z1", ("z1",))


def test_divided_difference_confluent_triple_is_half_second_derivative():
    g = P("z^2")
    assert divided_difference(g, "z", ("z1", "z1", "z1")) == 1


def test_divided_difference_mixed_confluent():
    # z^2 over (z1, z2, z2) collapses to the constant 1 as well.
    g = P("z^2")
    assert divided_difference(g, "z", ("z1", "z2", "z2")) == 1


def test_divided_difference_empty_args():
    with pytest.raises(EmptyArgsError):
        divided_difference(P("z"), "z", ())


def test_divided_difference_rejects_colliding_argument():
    with pytest.raises(ValueError):
        divided_difference(P("z*x"), "z", ("x",))


def test_power_reduces_to_complete_homogeneous():
    # z^m over j+1 nodes is the complete homogeneous polynomial h_{m-j}.
    g = parse_poly("z^5", ("z",))
    d = divided_difference(g, "z", ("z1", "z2", "z3"))
    ring = ("z1", "z2", "z3")
    expected = Polynomial.zero(ring)
    for i in range(4):
        for j in range(4 - i):
            k = 3 - i - j
            expected = expected + Polynomial(ring, {(i, j, k): 1})
    assert d == expected


z_polys = polys(ring=("x", "y", "z"), max_terms=4, max_exp=6)


@settings(max_examples=200, deadline=None)
@given(z_polys, st.permutations(("z1", "z2", "z3")))
def test_divided_difference_symmetry(g, order):
    base = divided_difference(g, "z", ("z1", "z2", "z3"))
    assert divided_difference(g, "z", tuple(order)) == base


@settings(max_examples=200, deadline=None)
@given(z_polys)
def test_divided_difference_telescoping(g):
    d = divided_difference(g, "z", ("z1", "z2"))
    lhs = d * parse_poly("z1 - z2", ("z1", "z2"))
    a = substitute(g, {"z": Polynomial.variable("z1", ("x", "y", "z1"))})
    b = substitute(g, {"z": Polynomial.variable("z2", ("x", "y", "z2"))})
    assert lhs == a - b


@settings(max_examples=200, deadline=None)
@given(z_polys)
def test_divided_difference_confluent_matches_derivative(g):
    d = divided_difference(g, "z", ("z1", "z1"))
    expected = substitute(g.partial("z"), {"z": Polynomial.variable("z1", ("x", "y", "z1"))})
    assert d == expected


@settings(max_examples=100, deadline=None)
@given(z_polys)
def test_confluent_agrees_with_substitution_into_distinct_form(g):
    # Identifying two symbolic nodes after the fact gives the confluent value.
    distinct = divided_difference(g, "z", ("z1", "z2", "z3"))
    collapsed = substitute(distinct, {"z3": Polynomial.variable("z2", ("z2",))})
    direct = divided_difference(g, "z", ("z1", "z2", "z2"))
    assert collapsed == direct


def _vandermonde_check(g, nodes):
    ring = tuple(v for v in g.ring if v != "z") + nodes
    k = len(nodes)
    rows = []
    wrows = []
    for a in nodes:
        val = substitute(g, {"z": Polynomial.variable(a, ring)}).with_ring(ring)
        power_row = [Polynomial.variable(a, ring) ** r for r in range(k)]
        rows.append(power_row)
        wrows.append(power_row[:-1] + [val])
    lhs = divided_difference(g, "z", nodes) * determinant(rows)
    assert lhs == determinant(wrows)


@settings(max_examples=60, deadline=None)
@given(z_polys)
def test_divided_difference_vandermonde_ratio_two_nodes(g):
    _vandermonde_check(g, ("z1", "z2"))


@settings(max_examples=60, deadline=None)
@given(z_polys)
def test_divided_difference_vandermonde_ratio_three_nodes(g):
    _vandermonde_check(g, ("z1", "z2", "z3"))


def test_divided_difference_symmetry_under_all_permutations_small():
    g = P("z^4 + x*z^2 + y")
    base = divided_difference(g, "z", ("z1", "z2", "z3"))
    for order in permutations(("z1", "z2", "z3")):
        assert divided_difference(g, "z", order) == base


# Node patterns for the oracle comparison: distinct, confluent and unsorted.
NODE_PATTERNS = (
    ("z1",),
    ("z1", "z2"),
    ("z1", "z2", "z3"),
    ("z1", "z2", "z3", "z4"),
    ("z1", "z1"),
    ("z1", "z1", "z1"),
    ("z1", "z2", "z2"),
    ("z2", "z1", "z1", "z3"),
    ("z3", "z1"),
    ("z2", "z2", "z1", "z2"),
)


@settings(max_examples=200, deadline=None)
@given(z_polys, st.sampled_from(NODE_PATTERNS))
def test_closed_form_matches_recursive_oracle(g, nodes):
    closed = divided_difference(g, "z", nodes)
    reference = recursive_divided_difference(g, "z", nodes)
    assert closed == reference
    assert closed.ring == reference.ring
