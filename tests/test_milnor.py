"""Milnor numbers: hypersurface anchors, polar chains, point counts."""

import random

from hypothesis import given, settings, strategies as st
import pytest

from singchi.errors import (
    BadPrimeError,
    NonIsolatedError,
    NotAtOriginError,
    NotICISError,
    NotZeroDimensionalError,
    ResourceLimitError,
)
import singchi.milnor as milnor
import singchi.multiple_points as multiple_points
from singchi.catalog import ACCEPTANCE_ROWS, ALTERNATE_MODULI, DEFAULT_MODULI, resolve_row
from singchi.milnor import MilnorResult, _minor_ideal, hypersurface_milnor, icis_milnor, point_count
from singchi.multiple_points import _restricted_ideal, invariant_tuple
from singchi.poly import Polynomial, parse_poly
import singchi.standard_basis as sb
from singchi.standard_basis import (
    INFINITE,
    RATIONAL,
    IdealPresentation,
    colength,
    ideal,
    prime_field,
)

from corpus import (
    generic_linear_change,
    invariant_spaces,
    polar_chain,
    random_curve,
    random_poly,
    simplified,
    unchained_spaces,
)
from test_catalog import FAST_ROWS, QUAD_ROWS
from test_multiple_points import SCALED_ROWS

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, ring=XY):
    return parse_poly(text, ring)


# -- hypersurfaces -------------------------------------------------------------


@pytest.mark.parametrize(
    "text,ring,mu",
    [
        ("x^2 + y^2", XY, 1),
        ("x^3 + y^2", XY, 2),
        ("x^3 + y^3", XY, 4),
        ("x^2 + y^2 + z^2", ("x", "y", "z"), 1),
        ("x^4", ("x",), 3),
        ("x + y^5", XY, 0),
        ("x^3 - x*y^3", XY, 7),
    ],
)
def test_hypersurface_anchors(text, ring, mu):
    assert hypersurface_milnor(P(text, ring)) == mu


def test_hypersurface_one_variable_powers():
    for k in range(1, 8):
        assert hypersurface_milnor(P(f"x^{k + 1}", ("x",))) == k


def test_hypersurface_rejects_nonisolated():
    with pytest.raises(NonIsolatedError):
        hypersurface_milnor(P("x^2*y"))


@pytest.mark.parametrize(
    "text",
    [
        "-3*y^2*z - x*y*z^4 + 2*x^2*y^3 - x^4*z^3",
        "y^5 + x*z^3 + 2*x*y^2 + 2*x^2*z^4",
    ],
)
def test_nonisolated_along_an_axis_needs_no_standard_basis(text):
    # singular along the x-axis, so the axis witness settles them; Mora
    # runs out of steps or coefficient height on both
    with pytest.raises(NonIsolatedError):
        hypersurface_milnor(P(text, XYZ), max_steps=20000)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("text", ["y^3 + z^3", "y^2*z + z^3", "(x*y - z^2)^2", "x*y*z"])
def test_nonisolated_off_the_axes_is_never_finite(text, seed):
    # after a linear change the singular locus is no coordinate axis, so
    # the axis witness is silent and the answer rests on the ladder's
    # Bezout stop
    g = generic_linear_change(ideal(XYZ, text), seed).gens[0]
    jacobian = [g.partial(v).nums for v in XYZ]
    assert sb._axis_witness(sb._pure_powers(jacobian), len(XYZ)) is None
    with pytest.raises((NonIsolatedError, ResourceLimitError)):
        hypersurface_milnor(g, max_steps=20000)


def test_nonisolated_along_a_parabola():
    # singular along a parabola: no axis witness, and the Jacobian ideal's
    # d_D grows by one per degree, so the Bezout stop comes only at
    # d_27 = 28 > 3^3, after 4,033 row reductions; one fewer ends the
    # ladder instead
    g = generic_linear_change(ideal(XYZ, "(y - x^2)^2 + z^2"), 1).gens[0]
    with pytest.raises(NonIsolatedError):
        hypersurface_milnor(g, max_steps=4033)
    with pytest.raises(ResourceLimitError):
        hypersurface_milnor(g, max_steps=4032)


def test_nonisolated_message_is_formatted_when_read():
    # the message spells the germ out only when it is first read, and reads
    # as it always has, also where invariant_tuple re-raises it with a prefix
    g = P("x^2*y")
    with pytest.raises(NonIsolatedError) as info:
        hypersurface_milnor(g)
    assert info.value.values == (g,)
    text = "Jacobian ideal of x^2*y has infinite colength"
    assert str(info.value) == text == str(info.value)
    assert str(NonIsolatedError(f"d2: {info.value}")) == f"d2: {text}"


def test_hypersurface_rejects_nonvanishing():
    with pytest.raises(NotAtOriginError):
        hypersurface_milnor(P("1 + x"))


# -- complete intersection chains ----------------------------------------------


def test_smooth_germ():
    r = icis_milnor(ideal(XY, "x"))
    assert r.mu == 0 and r.route == "smooth"


def test_empty_germ():
    r = icis_milnor(ideal(XY, "1 + x", "y"))
    assert r.mu == 0 and r.route == "empty"


def test_linear_generators_are_split_off_over_the_field():
    # 5*x + y^2 is linear over Q, and its germ is smooth; over F_5 it is
    # y^2, a double line, which is no isolated singularity. Splitting x off
    # (5*x + y^2 + z^2, x^2 + y*z) over Q leaves denominators that 5
    # divides; over F_5 nothing is split off, and the residue ideal (y^2 +
    # z^2, x^2 + y*z), typed in directly, gives the same result.
    F5 = prime_field(5)
    I = ideal(XY, "5*x + y^2")
    assert icis_milnor(I) == MilnorResult(0, "smooth", (), 1)
    with pytest.raises(NotICISError):
        icis_milnor(I, field=F5)
    r = icis_milnor(ideal(XYZ, "5*x + y^2 + z^2", "x^2 + y*z"), field=F5)
    assert r == icis_milnor(ideal(XYZ, "y^2 + z^2", "x^2 + y*z"), field=F5)
    assert (r.mu, r.route, r.stages) == (5, "section", (4, 8))


def test_single_generator_matches_hypersurface():
    r = icis_milnor(ideal(XY, "x^3 + y^2"))
    assert r.mu == 2 and r.route == "chain"
    assert r.stages == (2,)


def test_eliminates_then_chains():
    r = icis_milnor(ideal(("x", "y", "z"), "x^2 + y^2", "z + x^3"))
    assert r.mu == 1


def test_fat_point_chain():
    mu, stages = polar_chain(ideal(XY, "x^3", "y^2"))
    assert mu == 5
    assert stages == (2, 7)
    assert mu + 1 == point_count(ideal(XY, "x^3", "y^2"))


def test_chain_stages_stable_across_seeds():
    for seed in (1, 2, 3):
        mu, stages = polar_chain(ideal(XY, "x^3", "y^2"), seed=seed)
        assert mu == 5 and stages == (2, 7)


def test_zero_dimensional_space_takes_one_colength(monkeypatch):
    # as many generators as variables: mu = colength - 1, with no chain;
    # the one colength is taken of the presentation already eliminated,
    # which no second elimination scans
    calls = []
    monkeypatch.setattr(milnor, "_chain", lambda *args: calls.append(args))
    for name in ("colength", "eliminate_linear_generators", "_split_colength"):
        monkeypatch.setattr(milnor, name, _counting(getattr(milnor, name), name, calls))
    I = ideal(("x", "y", "z"), "x^3", "y^2", "z - x*y")
    assert icis_milnor(I, seed=7) == MilnorResult(5, "points", (6,), 7)
    assert calls == ["eliminate_linear_generators", "_split_colength"]
    calls.clear()
    with pytest.raises(NotICISError, match="infinite colength"):
        icis_milnor(ideal(XY, "x*y", "x^2"))
    assert calls == ["eliminate_linear_generators", "_split_colength"]


def _counting(fn, name, calls):
    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return counted


def _mixed_chain(mixed, ring, field, max_steps):
    """The chain with every stage's minors taken from the mixed generators."""
    stages = []
    for i in range(1, len(mixed) + 1):
        gens = tuple(mixed[: i - 1]) + tuple(_minor_ideal(mixed[:i], ring, i))
        c = colength(IdealPresentation(ring, gens), field=field, max_steps=max_steps)
        if c is INFINITE:
            return None
        stages.append(c)
    return tuple(stages)


def test_last_stage_minors_of_unmixed_generators(monkeypatch):
    # minors(A*g) = det(A)*minors(g): every chain invariant_tuple runs on
    # the catalog rows, and the chain on each space that invariant_tuple
    # sends down the points route (d3h1) or the section route (the curve
    # D^3 of the quadruple rows, V, VII and S_{1,2}), gives the stages of
    # the all-mixed chain
    seen = []
    chain = milnor._chain

    def spy(mixed, gens, ring, field, max_steps):
        stages = chain(mixed, gens, ring, field, max_steps)
        seen.append((mixed, ring, field, max_steps, stages))
        return stages

    monkeypatch.setattr(milnor, "_chain", spy)
    for text in ACCEPTANCE_ROWS + FAST_ROWS + QUAD_ROWS:
        germ = resolve_row(text).germ
        for seed in (1, 2, 3):
            for I in unchained_spaces(germ, seed=seed):
                polar_chain(I, seed=seed)
    assert len(seen) == 234
    assert sum(len(mixed) > 1 for mixed, *_ in seen) == 48
    for mixed, ring, field, max_steps, stages in seen:
        assert stages == _mixed_chain(mixed, ring, field, max_steps), [str(g) for g in mixed]


def test_mixing_is_essential():
    # the unmixed flag starts with x^2, whose own singularity is a line
    I = ideal(XY, "x^2", "y^2 - x^3")
    assert polar_chain(I, seed=0) is None
    mu, _ = polar_chain(I, seed=1)
    assert mu == 3
    assert mu + 1 == point_count(I)


def test_rejects_overdetermined_presentation():
    with pytest.raises(NotICISError):
        icis_milnor(ideal(XY, "x^2", "x*y", "y^2"))


def test_rejects_nonisolated_curve():
    with pytest.raises(NotICISError):
        icis_milnor(ideal(XY, "x*y", "x^2"))


def test_lone_generator_runs_one_chain(monkeypatch):
    # one chain per call: a degenerate one raises at once, naming its seed
    calls = []
    chain = milnor._chain

    def counting(*args):
        calls.append(args)
        return chain(*args)

    monkeypatch.setattr(milnor, "_chain", counting)
    with pytest.raises(NotICISError, match="mixed by seed 1 degenerates"):
        icis_milnor(ideal(XYZ, "x*y^2 + z^2"))
    assert len(calls) == 1
    calls.clear()
    assert icis_milnor(ideal(XY, "x^3 + y^2")).mu == 2
    assert len(calls) == 1


def test_redundant_generators_are_dropped():
    r = icis_milnor(ideal(XY, "x", "x + x^2", "y"))
    assert r.mu == 0 and r.route == "smooth"


def _random_pairs(count=50):
    """Seeded zero-dimensional complete intersections (x^a + ..., y^b + ...)."""
    rng = random.Random(97)
    for _ in range(count):
        a, b = rng.randint(2, 4), rng.randint(2, 4)
        f = P(f"x^{a}") + random_poly(rng, XY, max_deg=a + 2, max_terms=2, min_deg=a + 1)
        g = P(f"y^{b}") + random_poly(rng, XY, max_deg=b + 2, max_terms=2, min_deg=b + 1)
        yield IdealPresentation(XY, (f, g))


def test_zero_dim_identity_randomised():
    # for zero-dimensional complete intersections, mu + 1 is the colength
    for I in _random_pairs():
        c = colength(I)
        mu, _ = polar_chain(I)
        assert mu + 1 == c, [str(g) for g in I.gens]


def test_chain_agrees_with_points():
    # the chain's alternating sum is colength - 1 on every zero-dimensional
    # ICIS here: the d3h1 spaces of the catalog rows (18 are nonempty) and
    # the random pairs
    spaces = [_restricted_ideal(resolve_row(text).germ, 3, (1, 2))
              for text in ACCEPTANCE_ROWS + FAST_ROWS + QUAD_ROWS]
    spaces += _random_pairs()
    checked = 0
    for I in spaces:
        for seed in (1, 2, 3):
            r = icis_milnor(I, seed=seed)
            if r.route != "points":
                assert r.route == "empty"
                continue
            c = colength(I)
            assert r == MilnorResult(c - 1, "points", (c,), seed)
            mu, _ = polar_chain(I, seed=seed)
            assert mu == c - 1, [str(g) for g in I.gens]
            checked += 1
    assert checked == 3 * (50 + 18)


def test_results_deterministic():
    I = ideal(XY, "x^3", "y^2")
    assert icis_milnor(I) == icis_milnor(I)


# -- curves: the section route ----------------------------------------------------

FIELDS = {"rational": RATIONAL, "fp:2147483647": prime_field(2147483647)}


def _curve(I):
    """I's simplified presentation (ring, gens) where it is a curve cut by
    two or more generators, the section route's input; None otherwise."""
    if sb.is_unit_ideal(I):
        return None
    ring, gens = simplified(I, RATIONAL)
    return (ring, gens) if len(gens) >= 2 and len(gens) + 1 == len(ring) else None


def _assert_sections_match_the_chain(ring, gens, field, every_seed=False):
    """Every coordinate whose section colength is finite, put last so that
    the section route takes it, gives the chain's mu at seeds 1..3, where
    the mixing of one seed may degenerate (unless every_seed), but not of
    all three; where its c_p is infinite, the curve is no ICIS and the
    chain degenerates at every seed. An infinite stage or c_p can take a
    late Bezout stop, so one that runs out of max_steps counts as
    infinite. Returns the number of coordinates with a finite section."""
    I = IdealPresentation(ring, gens)
    chain = []
    for seed in (1, 2, 3):
        try:
            chain.append(polar_chain(I, seed, field, max_steps=20000))
        except ResourceLimitError:
            chain.append(None)
    finite = 0
    for v in ring:
        section = IdealPresentation(ring, gens + (Polynomial.variable(v, ring),))
        c_s = colength(section, field)
        if c_s is INFINITE:
            continue
        finite += 1
        last = tuple(w for w in ring if w != v) + (v,)
        J = IdealPresentation(last, tuple(g.with_ring(last) for g in gens))
        try:
            r = icis_milnor(J, field=field, max_steps=20000)
        except (NotICISError, ResourceLimitError):
            assert chain == [None] * 3, [str(g) for g in gens]
            continue
        assert r.route == "section" and r.stages[0] == c_s, (v, [str(g) for g in gens])
        assert {c[0] for c in chain if c} == {r.mu}, (v, [str(g) for g in gens])
        assert not every_seed or None not in chain, [str(g) for g in gens]
    return finite


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("moduli", [DEFAULT_MODULI, ALTERNATE_MODULI])
def test_every_finite_section_of_a_catalog_curve_gives_the_chains_mu(field, moduli):
    curves = sections = 0
    for text in ACCEPTANCE_ROWS + FAST_ROWS + QUAD_ROWS + SCALED_ROWS:
        for I in invariant_spaces(resolve_row(text, moduli=moduli).germ).values():
            curve = _curve(I)
            if curve is not None:
                curves += 1
                sections += _assert_sections_match_the_chain(*curve, FIELDS[field], True)
    # D^3 of I, II, III, IV, V, VII, VIII, S_{1,2} and S_{4,6}, each with
    # three finite coordinate sections
    assert (curves, sections) == (9, 27)


# derandomized: a curve that is no ICIS can spend seconds over Q before
# its c_p or a chain stage runs out of max_steps, so the examples are fixed
@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.sampled_from((3, 4)))
def test_every_finite_section_of_a_random_curve_gives_the_chains_mu(seed, nvars):
    curve = _curve(random_curve(random.Random(seed), nvars))
    assert curve is not None
    for field in FIELDS.values():
        # the section by the last variable is finite by construction
        assert _assert_sections_match_the_chain(*curve, field) >= 1


def _section_curves(field):
    """(ring, gens) of every curve the section route sees, over field, in
    the catalog at both moduli and in random_curve at a few seeds, and two
    more: one whose section by z = 0 leaves the linear generator y + x^3,
    and four lines, whose every coordinate section is infinite."""
    spaces = [
        I
        for moduli in (DEFAULT_MODULI, ALTERNATE_MODULI)
        for text in ACCEPTANCE_ROWS + FAST_ROWS + QUAD_ROWS + SCALED_ROWS
        for I in invariant_spaces(resolve_row(text, moduli=moduli).germ).values()
    ]
    spaces += [random_curve(random.Random(seed), nvars) for seed in range(4) for nvars in (3, 4)]
    spaces += [ideal(XYZ, "y + y*z + x^3", "x^2 - z^2"), ideal(XYZ, "x*y", "z*(x + y + z)")]
    for I in spaces:
        try:
            if sb.is_unit_ideal(I, field):
                continue
            ring, gens = simplified(I, field)
        except (BadPrimeError, NotICISError):
            continue
        if len(gens) >= 2 and len(gens) + 1 == len(ring):
            yield ring, gens


def _colength_or_error(I, field):
    try:
        return colength(I, field, max_steps=20000)
    except ResourceLimitError as exc:
        return type(exc)


@pytest.mark.parametrize("field", [RATIONAL, prime_field(5), prime_field(2147483647)],
                         ids=["rational", "fp:5", "fp:2147483647"])
def test_a_section_by_restriction_is_the_section_by_elimination(field):
    # _section drops the terms in x_j, where colength once split the
    # generator x_j off: the same presentation once the linear generators
    # it leaves are split off too, and the same c_s
    sections = 0
    for ring, gens in _section_curves(field):
        for j, v in enumerate(ring):
            restricted = milnor._restricted(gens, ring, j)
            cut = IdealPresentation(ring, gens + (Polynomial.variable(v, ring),))
            J, audit = sb.eliminate_linear_generators(restricted, field)
            K, want = sb.eliminate_linear_generators(cut, field)
            assert (J.ring, [v] + audit) == (K.ring, want)
            assert [(g.nums, g.den) for g in J.gens] == [(g.nums, g.den) for g in K.gens]
            assert _colength_or_error(restricted, field) == _colength_or_error(cut, field)
            sections += 1
    assert sections == 2 * 3 * 9 + 4 * (3 + 4) + 2 * 3


@pytest.mark.parametrize("text", QUAD_ROWS)
def test_triple_points_of_the_quadruple_rows_do_not_depend_on_the_seed(text, monkeypatch):
    # invariant_tuple takes Milnor numbers of d2, d3 and d3h1, in that
    # order, off one elimination of linear generators, and of d2h through
    # icis_milnor; the curve d3 reads the same result at every seed
    results = []
    split_milnor = milnor._split_milnor

    def spy(*args):
        results.append(split_milnor(*args))
        return results[-1]

    monkeypatch.setattr(multiple_points, "_split_milnor", spy)
    germ = resolve_row(text).germ
    first, *others = [invariant_tuple(germ, seed=seed) for seed in (1, 2, 3)]
    assert others == [first, first]
    d3 = results[1::3]
    assert [r.seed for r in d3] == [1, 2, 3]
    assert {(r.mu, r.route, r.stages) for r in d3} == {(d3[0].mu, "section", d3[0].stages)}


def test_a_curve_with_no_finite_coordinate_section_takes_the_chain():
    # four lines, and each coordinate plane holds one of them
    I = ideal(XYZ, "x*y", "z*(x + y + z)")
    assert _assert_sections_match_the_chain(*_curve(I), RATIONAL) == 0
    for seed in (1, 2, 3):
        mu, stages = polar_chain(I, seed)
        assert icis_milnor(I, seed=seed) == MilnorResult(5, "chain", stages, seed)
        assert mu == 5


@pytest.mark.parametrize(
    "gens",
    [
        ("x^2", "y^2"),  # a double line: its section by z = 0 is finite, c_p is not
        ("x*y", "x*z"),  # a plane and a line: no coordinate section is finite
    ],
)
def test_a_curve_that_is_no_icis_keeps_the_chains_message(gens):
    with pytest.raises(NotICISError) as info:
        icis_milnor(ideal(XYZ, *gens))
    assert str(info.value) == (
        "the polar chain of the generators mixed by seed 1 degenerates; the "
        "singularity is probably not isolated or not a complete intersection, "
        "or the mixing is not generic: try another seed"
    )


# -- point counts ---------------------------------------------------------------


def test_point_count_basics():
    assert point_count(ideal(XY, "x", "y")) == 1
    assert point_count(ideal(XY, "x^3", "y^2")) == 6
    assert point_count(ideal(XY, "1 + x")) == 0


def test_point_count_rejects_positive_dimension():
    with pytest.raises(NotZeroDimensionalError):
        point_count(ideal(XY, "x"))
