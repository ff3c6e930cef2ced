"""Multiple point spaces: normal form validation, divided difference
generators, partition slices, and the n = 3 invariant tuple on germs
whose invariants were worked out by hand."""

import random
from fractions import Fraction

import pytest

import singchi.multiple_points as mp
from singchi.catalog import ACCEPTANCE_ROWS, ALTERNATE_MODULI, DEFAULT_MODULI, resolve_row
from singchi.errors import (
    BadParamsError,
    NotCorankOneError,
    NotNormalFormError,
    NotZeroDimensionalError,
    ResourceLimitError,
    UnknownVariableError,
)
from singchi.milnor import icis_milnor
from singchi.multiple_points import (
    InvariantTuple,
    _first_empty,
    invariant_tuple,
    map_germ,
    multiple_point_ideal,
    partition_restricted_ideal,
    validate_corank1,
)
from singchi.poly import Polynomial, divided_difference, parse_poly, substitute
from singchi.standard_basis import eliminate_linear_generators, is_unit_ideal, prime_field

from corpus import prefix_ideal
from oracles import in_ideal
from test_catalog import FAST_ROWS, QUAD_ROWS


def multiple_point_indicator(f, k):
    """Whether the k-th multiple point space passes through the origin."""
    return not is_unit_ideal(multiple_point_ideal(f, k))


XYZ = ("x", "y", "z")


def germ(p_text, q_text):
    return map_germ(XYZ, ("x", "y", p_text, q_text))


A1 = germ("z^2", "z^3 + x^2*z + y^2*z")
P1 = germ("y*z + z^4", "x*z + z^3")
Q2 = germ("x*z + y*z^2", "z^3 + y^2*z")
B2 = germ("z^2", "x^2*z + y^2*z + z^5")


# ---------------------------------------------------------------- validation


def test_validate_accepts_normal_forms():
    for f in (A1, P1, Q2, B2):
        validate_corank1(f)


def test_validate_component_count():
    f = map_germ(XYZ, ("x", "y", "z^2"))
    with pytest.raises(NotNormalFormError):
        validate_corank1(f)


def test_validate_requires_coordinate_prefix():
    f = map_germ(XYZ, ("y", "x", "z^2", "z^3"))
    with pytest.raises(NotNormalFormError):
        validate_corank1(f)
    g = map_germ(XYZ, ("x", "x + y", "z^2", "z^3"))
    with pytest.raises(NotNormalFormError):
        validate_corank1(g)


def test_validate_requires_vanishing_at_origin():
    f = map_germ(XYZ, ("x", "y", "z^2 + 1", "z^3"))
    with pytest.raises(NotNormalFormError):
        validate_corank1(f)


def test_validate_rejects_corank_zero():
    f = map_germ(XYZ, ("x", "y", "z + z^2", "z^3"))
    with pytest.raises(NotCorankOneError):
        validate_corank1(f)
    g = map_germ(XYZ, ("x", "y", "z^2", "z - x*z"))
    with pytest.raises(NotCorankOneError):
        validate_corank1(g)


def test_validate_needs_two_source_variables():
    f = map_germ(("z",), ("z^2", "z^3"))
    with pytest.raises(NotNormalFormError):
        validate_corank1(f)


def _validate_by_calculus(f):
    """validate_corank1 by the public calculus: components compared with
    Polynomial.variable, and the z-linear term read off the partial."""
    n = f.dim
    if n < 2 or len(f.components) != n + 1:
        return validate_corank1(f)
    for i, v in enumerate(f.source_vars[:-1]):
        if f.components[i] != Polynomial.variable(v, f.source_vars):
            raise NotNormalFormError(f"component {i} must be the coordinate {v!r}, got {f.components[i]}")
    z = f.source_vars[-1]
    for g in (f.hyperplane_part, f.deep_part):
        if g.constant_term():
            raise NotNormalFormError(f"component {g} does not vanish at the origin")
    for g in (f.hyperplane_part, f.deep_part):
        if g.partial(z).constant_term():
            raise NotCorankOneError(f"component {g} is regular in {z!r} at the origin; the germ has corank 0")


def _outcome(check, f):
    try:
        check(f)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_validate_reads_keys_as_the_calculus_does():
    # the same error class and message, or none, on every catalog row and
    # on components over rings of their own
    X, XZ, ZYX = ("x",), ("x", "z"), ("z", "y", "x")
    germs = [resolve_row(name).germ for name in ACCEPTANCE_ROWS + QUAD_ROWS + SCALED_ROWS]
    germs += [
        mp.MapGerm(XYZ, (parse_poly("x", X), parse_poly("y", ZYX), parse_poly("z^2", XZ), parse_poly("x*z + z^3", ZYX))),
        mp.MapGerm(XYZ, (parse_poly("x", ZYX), parse_poly("y", X + ("y",)), parse_poly("z^2 + z*y", ZYX), parse_poly("z^3", XZ))),
        mp.MapGerm(XYZ, (parse_poly("x", X), parse_poly("y", ("y",)), parse_poly("x^2", X), parse_poly("z^3", XZ))),
        mp.MapGerm(XYZ, (parse_poly("2*x", XYZ), parse_poly("y", XYZ), parse_poly("z^2", XYZ), parse_poly("z^3", XYZ))),
        mp.MapGerm(XYZ, (parse_poly("x", XYZ) * Fraction(1, 2), parse_poly("y", XYZ), parse_poly("z^2", XYZ), parse_poly("z^3", XYZ))),
        mp.MapGerm(XYZ, (parse_poly("x", X), parse_poly("y", XZ + ("y",)), parse_poly("z^2", XZ), parse_poly("z^3", XZ))),
        mp.MapGerm(XYZ, (parse_poly("x", XZ), parse_poly("x", XZ), parse_poly("z^2", XZ), parse_poly("z^3", XZ))),
        mp.MapGerm(XYZ, (parse_poly("x", XYZ), parse_poly("y", XYZ), parse_poly("z^2", XYZ) + parse_poly("z", XYZ) * Fraction(1, 3), parse_poly("z^3", XYZ))),
        mp.MapGerm(XYZ, (parse_poly("x", XYZ), parse_poly("y", XYZ), parse_poly("z^2", XYZ) - Fraction(1, 2), parse_poly("z^3", XYZ))),
        mp.MapGerm(("x", "x", "z"), (parse_poly("x", XZ), parse_poly("x", XZ), parse_poly("z^2", XZ), parse_poly("z^3", XZ))),
        A1, P1, Q2, B2,
        map_germ(XYZ, ("y", "x", "z^2", "z^3")),
        map_germ(XYZ, ("x", "x + y", "z^2", "z^3")),
        map_germ(XYZ, ("x", "y", "z^2 + 1", "z^3")),
        map_germ(XYZ, ("x", "y", "z + z^2", "z^3")),
        map_germ(XYZ, ("x", "y", "z^2", "z - x*z")),
        map_germ(XYZ, ("x", "y", "z^2")),
        map_germ(("z",), ("z^2", "z^3")),
    ]
    outcomes = [_outcome(validate_corank1, f) for f in germs]
    assert outcomes == [_outcome(_validate_by_calculus, f) for f in germs]
    assert {o[0] for o in outcomes if o} == {
        NotNormalFormError, NotCorankOneError, UnknownVariableError, ValueError,
    }


# ------------------------------------------------------------------- spaces


def test_double_point_ring_and_generators():
    I = multiple_point_ideal(A1, 2)
    assert I.ring == ("x", "y", "z1", "z2")
    assert len(I.gens) == 2
    p12, q12 = I.gens
    assert p12 == parse_poly("z1 + z2", I.ring)
    assert q12 == parse_poly("z1^2 + z1*z2 + z2^2 + x^2 + y^2", I.ring)


def test_cross_cap_double_points():
    f = map_germ(("x", "z"), ("x", "z^2", "x*z"))
    validate_corank1(f)
    I = multiple_point_ideal(f, 2)
    assert I.ring == ("x", "z1", "z2")
    assert I.gens == (
        parse_poly("z1 + z2", I.ring),
        parse_poly("x", I.ring),
    )


def test_generator_count_grows_two_per_level():
    for k in (2, 3, 4, 5):
        I = multiple_point_ideal(P1, k)
        assert len(I.gens) == 2 * (k - 1)
        assert I.ring == ("x", "y") + tuple(f"z{i}" for i in range(1, k + 1))
    # D^(k-1) is a generator prefix of D^k, ring and all: invariant_tuple
    # reads D^2 and D^3 this way off D^4's generators, and extends one
    # elimination from each to the next.
    for name in ACCEPTANCE_ROWS:
        f = resolve_row(name).germ
        for k in (3, 4, 5):
            lower = multiple_point_ideal(f, k - 1)
            upper = multiple_point_ideal(f, k)
            head = tuple(g.with_ring(lower.ring) for g in upper.gens[: 2 * (k - 2)])
            assert head == lower.gens, (name, k)
            assert lower.ring == upper.ring[:-1]


def test_generators_vanish_at_origin_on_double_points():
    rng = random.Random(20)
    for _ in range(60):
        # p, q built from monomials of local order two or more, linear in
        # z only through mixed terms: the normal form constraints.
        terms = ["z^2", "z^3", "x*z", "y*z", "x^2", "y^2", "x*y*z", "z^4"]
        p = " + ".join(rng.sample(terms, rng.randint(1, 4)))
        q = " + ".join(rng.sample(terms, rng.randint(1, 4)))
        f = germ(p, q)
        I = multiple_point_ideal(f, 2)
        assert not is_unit_ideal(I)
        for g in I.gens:
            assert g.constant_term() == 0


def test_low_k_rejected():
    with pytest.raises(BadParamsError):
        multiple_point_ideal(A1, 1)
    with pytest.raises(BadParamsError):
        partition_restricted_ideal(A1, 1, (1,))


def test_node_name_collision_rejected():
    f = map_germ(("z1", "z"), ("z1", "z^2", "z^3 + z1*z"))
    validate_corank1(f)
    with pytest.raises(BadParamsError):
        multiple_point_ideal(f, 2)


#: The scaled family members of the benchmark, whose generators carry the
#: largest exponents of the catalog rows.
SCALED_ROWS = ("P_13", "R_12", "S_{4,6}", "P_3^4")


def test_generators_round_trip_through_the_public_surface():
    # every D^k generator of the table, quad and scaled rows, built
    # directly and as a prefix of D^4, reads back through its exponent
    # tuples and its text, and hashes alike over a permuted ring
    count = 0
    for name in ACCEPTANCE_ROWS + QUAD_ROWS + SCALED_ROWS:
        f = resolve_row(name).germ
        d4 = multiple_point_ideal(f, 4)
        for k in (2, 3, 4):
            for I in (multiple_point_ideal(f, k), prefix_ideal(d4, k)):
                for g in I.gens:
                    assert Polynomial(g.ring, g.terms) == g, (name, k, str(g))
                    assert parse_poly(str(g), g.ring) == g, (name, k, str(g))
                    flipped = g.with_ring(g.ring[::-1])
                    assert flipped == g and hash(flipped) == hash(g), (name, k, str(g))
                    assert Polynomial(flipped.ring, flipped.terms) == g
                    count += 1
    assert count == 2 * 12 * (len(ACCEPTANCE_ROWS) + len(QUAD_ROWS) + len(SCALED_ROWS))


def test_triple_points_empty_when_middle_component_is_z_squared():
    # p = z^2 has vanishing divided difference of order two minus one...
    # its third divided difference is the constant 1, so the ideal is unit.
    I = multiple_point_ideal(A1, 3)
    assert is_unit_ideal(I)
    assert not multiple_point_indicator(A1, 3)
    assert multiple_point_indicator(A1, 2)


def test_indicator_chain_for_p1():
    assert multiple_point_indicator(P1, 2)
    assert multiple_point_indicator(P1, 3)
    assert not multiple_point_indicator(P1, 4)


def test_symmetry_of_triple_point_ideal():
    # The prefix divided differences generate a symmetric ideal: the image
    # of each generator under a node swap is still a member.
    I = multiple_point_ideal(P1, 3)
    z1 = Polynomial.variable("z1", I.ring)
    z3 = Polynomial.variable("z3", I.ring)
    for g in I.gens:
        swapped = substitute(g, {"z1": z3, "z3": z1}).with_ring(I.ring)
        assert in_ideal(swapped, I)


# --------------------------------------------------------------- partitions


def test_partition_validation():
    with pytest.raises(BadParamsError):
        partition_restricted_ideal(P1, 3, (1, 1))
    with pytest.raises(BadParamsError):
        partition_restricted_ideal(P1, 3, (0, 3))
    with pytest.raises(BadParamsError):
        partition_restricted_ideal(P1, 3, ())


def test_full_partition_recovers_multiple_point_space():
    ones = partition_restricted_ideal(P1, 3, (1, 1, 1))
    full = multiple_point_ideal(P1, 3)
    assert ones.ring == full.ring
    assert ones.gens == full.gens


def test_partition_identification_is_substitution():
    full = multiple_point_ideal(P1, 3)
    sliced = partition_restricted_ideal(P1, 3, (1, 2))
    assert sliced.ring == ("x", "y", "z1", "z2")
    z2 = Polynomial.variable("z2", sliced.ring)
    for g_full, g_slice in zip(full.gens, sliced.gens):
        assert substitute(g_full, {"z3": z2}).with_ring(sliced.ring) == g_slice


def test_partition_order_is_canonicalised():
    ascending = partition_restricted_ideal(P1, 3, (1, 2))
    descending = partition_restricted_ideal(P1, 3, (2, 1))
    assert ascending.ring == descending.ring
    assert ascending.gens == descending.gens


def test_emptiness_cascades_to_higher_multiplicity():
    rng = random.Random(77)
    terms = ["z^2", "z^3", "x*z", "y*z", "x^2", "y^2", "x*y*z", "z^4", "y*z^2"]
    seen_empty = 0
    for _ in range(40):
        p = " + ".join(rng.sample(terms, rng.randint(1, 4)))
        q = " + ".join(rng.sample(terms, rng.randint(1, 4)))
        f = germ(p, q)
        for k in (2, 3, 4):
            if is_unit_ideal(multiple_point_ideal(f, k)):
                seen_empty += 1
                assert is_unit_ideal(multiple_point_ideal(f, k + 1))
    assert seen_empty > 10


def test_diagonal_double_points_are_derivatives():
    I = partition_restricted_ideal(A1, 2, (2,))
    assert I.ring == ("x", "y", "z1")
    p, q = I.gens
    assert p == parse_poly("2*z1", I.ring)
    assert q == parse_poly("3*z1^2 + x^2 + y^2", I.ring)


# ----------------------------------------------------------- hand anchors


def test_triple_points_of_p1_reduce_to_a_plane_curve():
    # Eliminating x, y and one node from the four generators leaves the
    # cone z^2 + z*w + w^2, an ordinary double point with Milnor number 1.
    I = multiple_point_ideal(P1, 3)
    res = icis_milnor(I)
    assert res.mu == 1


def test_invariant_tuple_a1():
    t = invariant_tuple(A1)
    assert isinstance(t, InvariantTuple)
    assert (t.mu_d2, t.mu_d2h, t.mu_d3, t.mu_d3h1) == (1, 1, 0, 0)
    assert t.d2_nonempty and not t.d3_nonempty and not t.d4_nonempty
    assert t.quad_points == 0
    assert dict(t.routes)["d3"] == "empty"


def test_invariant_tuple_p1():
    t = invariant_tuple(P1)
    assert (t.mu_d2, t.mu_d2h, t.mu_d3, t.mu_d3h1) == (0, 0, 1, 1)
    assert t.d2_nonempty and t.d3_nonempty and not t.d4_nonempty
    assert t.quad_points == 0
    routes = dict(t.routes)
    assert routes["d2"] == "smooth"
    assert routes["d3"] == "chain"


def test_invariant_tuple_q2():
    t = invariant_tuple(Q2)
    assert (t.mu_d2, t.mu_d2h, t.mu_d3, t.mu_d3h1) == (1, 1, 1, 1)
    assert t.d2_nonempty and t.d3_nonempty and not t.d4_nonempty
    assert t.quad_points == 0


def test_invariant_tuple_b2():
    t = invariant_tuple(B2)
    assert (t.mu_d2, t.mu_d2h, t.mu_d3, t.mu_d3h1) == (3, 1, 0, 0)
    assert not t.d3_nonempty
    assert t.quad_points == 0


def test_invariant_tuple_parity_on_anchors():
    for f in (A1, P1, Q2, B2):
        t = invariant_tuple(f)
        assert (t.mu_d3 - t.mu_d3h1) % 2 == 0


def test_invariant_tuple_needs_three_dimensional_source():
    f = map_germ(("u", "w"), ("u", "w^2", "w^3 + u*w"))
    validate_corank1(f)
    with pytest.raises(BadParamsError):
        invariant_tuple(f)


def test_invariant_tuple_as_dict_round_trip():
    t = invariant_tuple(A1)
    d = t.as_dict()
    assert d["mu_d2"] == 1 and d["quad_points"] == 0
    assert d["routes"]["d2"] == "chain"


def test_invariant_tuple_deterministic():
    assert invariant_tuple(Q2) == invariant_tuple(Q2)


# ----------------------------------------------------------- empty spaces


@pytest.mark.parametrize("field", [None, 2147483647])
def test_empty_spaces_are_read_off_the_pure_powers_of_z(field):
    # D^k is the unit ideal from the least j with a pure power z^(j-1) in p
    # or q onward, and d3h1 exactly when D^3 is: on every catalog row, at
    # both moduli sets, the rule agrees with the unit test of the spaces
    # themselves, and the rows cover D^3 empty, D^4 empty and neither
    seen = set()
    for name in ACCEPTANCE_ROWS + FAST_ROWS + QUAD_ROWS + SCALED_ROWS:
        for moduli in (DEFAULT_MODULI, ALTERNATE_MODULI):
            f = resolve_row(name, moduli=moduli).germ
            empty = _first_empty(f, field)
            seen.add(empty)
            for k in (2, 3, 4):
                assert is_unit_ideal(multiple_point_ideal(f, k), field) == (k >= empty), (name, moduli, k)
            assert is_unit_ideal(partition_restricted_ideal(f, 3, (1, 2)), field) == (empty <= 3), name
    assert seen == {3, 4, 5}


def test_a_pure_power_that_p_divides_leaves_its_space_nonempty_mod_p():
    # Row I with 5*z^3 added to q: over Q the term makes D^4 the unit ideal,
    # over F_5 it vanishes, and the germ has row I's invariants there
    row = resolve_row("I").germ
    z = Polynomial.variable(row.source_vars[-1], row.source_vars)
    f = mp.MapGerm(row.source_vars, row.components[:-1] + (row.deep_part + 5 * z**3,))
    five = prime_field(5)
    assert is_unit_ideal(multiple_point_ideal(f, 4))
    assert not is_unit_ideal(multiple_point_ideal(f, 4), five)
    over_q = invariant_tuple(f)
    assert over_q.d3_nonempty and not over_q.d4_nonempty and over_q.quad_points == 0
    mod_five = invariant_tuple(f, field=five)
    assert mod_five == invariant_tuple(row, field=five)
    assert mod_five.d4_nonempty and mod_five.quad_points > 0


def test_a_pure_power_whose_denominator_p_divides_leaves_its_space_empty_mod_p():
    # q = z^2/5 + x*z/25 keeps the numerator 5 of z^2 over the denominator
    # 25; the coefficient 1/5 is no residue, so D^3 is read as the unit
    # ideal, and its unit test would raise BadPrimeError
    f = germ("z^3", "1/5*z^2 + 1/25*x*z")
    assert (f.deep_part.nums[2 << 32], f.deep_part.den) == (5, 25)
    assert _first_empty(f, prime_field(5)) == _first_empty(f, None) == 3


@pytest.mark.parametrize(
    "row,moduli,field,max_steps,error,space",
    [
        ("D_5", DEFAULT_MODULI, None, 0, ResourceLimitError, "double points"),
        ("I", DEFAULT_MODULI, None, 20, ResourceLimitError, "triple points"),
        ("IV", DEFAULT_MODULI, None, 20, ResourceLimitError, "triple points"),
        ("I", DEFAULT_MODULI, None, 40, ResourceLimitError, "quadruple points"),
        ("I", ALTERNATE_MODULI, 5, 36, ResourceLimitError, "quadruple points"),
        ("II", ALTERNATE_MODULI, 2, 10**6, NotZeroDimensionalError, "quadruple points"),
    ],
)
def test_invariant_tuple_names_the_space_that_fails(row, moduli, field, max_steps, error, space):
    # each space's error keeps its class and gains the space's name; row
    # I's triple points exhaust 20 row reductions and its quadruple points
    # 40 (36 over F_5 at the alternate moduli), where every space before
    # them is done. The quadruple points of row IV take 32 reductions,
    # fewer than its triple points' 38, so no budget ends there alone.
    f = resolve_row(row, moduli=moduli).germ
    with pytest.raises(error) as info:
        invariant_tuple(f, field=field, max_steps=max_steps)
    assert type(info.value) is error
    assert str(info.value).startswith(f"{space}: ")
    assert not str(info.value)[len(space) + 2:].startswith(("double", "triple", "quadruple"))


def test_triple_points_with_two_nodes_identified_are_named_when_they_fail(monkeypatch):
    # no budget stops d3h1 of a catalog row alone, as it takes no ladder
    # there, so its Milnor number, the third invariant_tuple takes off the
    # one elimination (after d2 and d3), is made to run out
    split_milnor = mp._split_milnor
    calls = []

    def third_fails(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ResourceLimitError("row reduction budget exhausted")
        return split_milnor(*args)

    monkeypatch.setattr(mp, "_split_milnor", third_fails)
    f = resolve_row("I").germ
    with pytest.raises(ResourceLimitError) as info:
        invariant_tuple(f)
    assert str(info.value) == "triple points with two nodes identified: row reduction budget exhausted"
    spaces = (multiple_point_ideal(f, 2), multiple_point_ideal(f, 3), partition_restricted_ideal(f, 3, (1, 2)))
    assert [J.ring for J, *_ in calls] == [eliminate_linear_generators(I)[0].ring for I in spaces]


def test_invariant_tuple_builds_no_generator_of_an_empty_space(monkeypatch):
    # D^3 empty (A_1): D^2 and d2h, 2 each; D^4 empty (P_1): D^3 4, d2h 2,
    # and d3h1 2 more than D^2's; none empty (row I): D^4 6, d2h 2, d3h1 2.
    # Building D^4, d2h and d3h1 in full took 12 on each.
    calls = []

    def counting(*args):
        calls.append(args)
        return divided_difference(*args)

    monkeypatch.setattr(mp, "divided_difference", counting)
    for f, n in ((A1, 4), (P1, 8), (resolve_row("I").germ, 10)):
        calls.clear()
        invariant_tuple(f)
        assert len(calls) == n
