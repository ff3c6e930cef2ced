"""Colength, its certificates and the transversal elimination, checked
against independent oracles, Mora's standard bases among them."""

import functools
import gc
import hashlib
import heapq
import inspect
import itertools
import math
import random
import sys
import types

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

import singchi.milnor as milnor
import singchi.standard_basis as sb
from singchi.errors import BadPrimeError, ResourceLimitError
from singchi.poly import Polynomial, _key, parse_poly, substitute
from singchi.standard_basis import (
    INFINITE,
    IdealPresentation,
    colength,
    eliminate_linear_generators,
    ideal,
    is_unit_ideal,
    prime_field,
)

from singchi.catalog import ACCEPTANCE_ROWS, ALTERNATE_MODULI, DEFAULT_MODULI, resolve_row
from singchi.multiple_points import (
    _restricted_ideal,
    invariant_tuple,
    multiple_point_ideal,
)

from corpus import (
    exponent_dict,
    generic_linear_change,
    polar_chain,
    prefix_ideal,
    random_monomial_ideal,
    random_poly,
    random_zero_dim_ideal,
    unchained_spaces,
)
from oracles import (
    brute_colength,
    brute_membership,
    in_ideal,
    ladder_stop,
    leading_monomials,
    fraction_pivot_profile,
    negdeglex,
    negdegrevlex,
    staircase,
    staircase_count_bfs,
    standard_basis,
    substitute_elimination,
    monomials_up_to,
    truncated_quotient_dim,
    truncated_quotient_dims,
)
from test_catalog import FAST_ROWS, QUAD_ROWS
from test_multiple_points import SCALED_ROWS
from test_poly import NEAR_GUARD

XY = ("x", "y")
XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")


def P(text, ring=XY):
    return parse_poly(text, ring)


def mono(text, ring=XY):
    """The exponent tuple, in ring order, of a monic monomial's text."""
    [(m, c)] = parse_poly(text, ring).terms.items()
    assert c == 1
    return m


# -- orderings ---------------------------------------------------------------


def test_local_orderings_rank_one_highest():
    for key in (negdegrevlex, negdeglex):
        assert key((0, 0)) > key((1, 0))
        assert key((1, 0)) > key((2, 0))
        assert key((1, 1)) > key((3, 0))


def test_orderings_differ_within_degree():
    # x*z vs y^2: revlex compares from the last variable
    assert negdegrevlex((1, 0, 1)) < negdegrevlex((0, 2, 0))
    assert negdeglex((1, 0, 1)) > negdeglex((0, 2, 0))


def test_unknown_ordering_kind_rejected():
    # deglex is global (x lies above 1), and Mora needs a local ordering
    with pytest.raises(ValueError):
        standard_basis(ideal(XY, "x"), key=lambda e: (sum(e), e))


# -- the classic local phenomena ---------------------------------------------


def test_unit_multiple_collapses():
    # x - x^2 = x(1 - x) generates (x) in the local ring
    I = ideal(("x",), "x - x^2")
    assert in_ideal(P("x", ("x",)), I)
    assert colength(I) == 1
    (lm,) = leading_monomials(I)
    assert lm == mono("x", ("x",))


def test_colength_of_x_squared_times_unit():
    I = ideal(("x",), "x^2 - x^3")
    assert colength(I) == 2
    assert not in_ideal(P("x", ("x",)), I)
    assert in_ideal(P("x^2", ("x",)), I)


def test_monomial_complete_intersection():
    I = ideal(XY, "x^3", "y^2")
    assert colength(I) == 6
    lms = set(leading_monomials(I))
    assert lms == {mono("x^3"), mono("y^2")}


def test_higher_order_tail_is_ignored():
    I = ideal(XY, "x^2 + x^3", "y")
    assert set(leading_monomials(I)) == {mono("x^2"), mono("y")}
    assert colength(I) == 2


def test_unit_ideal():
    I = ideal(("x",), "1 + x")
    assert is_unit_ideal(I)
    assert colength(I) == 0
    basis = standard_basis(I)
    assert len(basis.gens) == 1 and basis.gens[0] == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_unit_ideal_reads_residues(p):
    # A constant term that p divides is zero over F_p, so the ideal is
    # (x^2, y) there, with colength 2, and icis_milnor reads a point of
    # multiplicity 2; a constant term prime to p keeps it the unit ideal.
    # A generator whose denominator p divides raises BadPrimeError before
    # any constant term is read, even beside a unit.
    field = prime_field(p)
    I = ideal(XY, f"{p} + x^2", "y")
    assert is_unit_ideal(I) and not is_unit_ideal(I, field)
    assert colength(I) == 0 and colength(I, field) == 2
    assert milnor.icis_milnor(I, field=field) == milnor.MilnorResult(1, "points", (2,), 1)
    U = ideal(XY, f"{p + 1} + x^2", "y")
    assert is_unit_ideal(U, field) and colength(U, field) == 0
    assert milnor.icis_milnor(U, field=field).route == "empty"
    for gens in ((f"1/{p} + x^2", "y"), ("1 + x", f"1/{p}*x^2")):
        J = ideal(XY, *gens)
        assert is_unit_ideal(J) and colength(J) == 0
        for call in (is_unit_ideal, colength, lambda J, field: milnor.icis_milnor(J, field=field)):
            with pytest.raises(BadPrimeError):
                call(J, field)


def test_maximal_ideal():
    assert colength(ideal(XY, "2*x", "2*y")) == 1
    assert colength(ideal(XY, "x", "y")) == 1


def test_infinite_colength():
    assert colength(ideal(XY, "x")) == INFINITE
    assert colength(ideal(XY, "x*y", "x^2")) == INFINITE
    assert colength(IdealPresentation(XY, ())) == INFINITE


def test_empty_ring_conventions():
    assert colength(IdealPresentation((), ())) == 1
    assert colength(ideal((), "0")) == 1


def test_cusp_with_axis():
    I = ideal(XY, "y^2 - x^3", "x*y")
    assert set(leading_monomials(I)) == {mono("y^2"), mono("x*y"), mono("x^4")}
    assert colength(I) == 5
    assert brute_colength(I.gens, I.ring) == 5


def test_standard_basis_is_monic_and_sorted():
    I = ideal(XY, "3*y^2 - x^3", "5*x*y")
    sb = standard_basis(I)
    lms = leading_monomials(I)
    assert len(sb.gens) == len(lms)
    for g, lm in zip(sb.gens, lms):
        assert g.coefficient(lm) == 1
    degrees = [sum(lm) for lm in lms]
    assert degrees == sorted(degrees)
    # deterministic: same call twice gives identical output
    assert standard_basis(I) == sb


# -- membership --------------------------------------------------------------


def test_membership_basics():
    I = ideal(XY, "x^2", "x*y", "y^2")
    assert in_ideal(P("x^2 + 2*x*y + y^2"), I)
    assert not in_ideal(P("x + y"), I)
    assert in_ideal(P("0"), I)
    J = ideal(XY, "x")
    assert in_ideal(P("x*y"), J)
    assert not in_ideal(P("y"), J)


def test_membership_against_truncation_oracle():
    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        I, bound = random_zero_dim_ideal(rng, nvars=2)
        c = colength(I)
        if c is INFINITE or not isinstance(c, int) or c > 12:
            continue
        p = random_poly(rng, I.ring, max_deg=4, max_terms=3)
        got = in_ideal(p, I)
        want = brute_membership(p, I.gens, I.ring, max(c, 1))
        assert got == want, (str(I.gens), str(p))
        checked += 1


# -- colength vs independent oracles ----------------------------------------


def test_colength_agrees_with_truncation_oracle():
    rng = random.Random(7)
    for _ in range(120):
        I, bound = random_zero_dim_ideal(rng)
        c = colength(I)
        assert c is not INFINITE and c <= bound
        if c <= 40:
            assert brute_colength(I.gens, I.ring, cap=2 * c + 4) == c


def test_colength_infinite_cases_stay_large_under_truncation():
    rng = random.Random(11)
    seen_infinite = 0
    for _ in range(120):
        I = random_monomial_ideal(rng)
        c = colength(I)
        d = brute_colength(I.gens, I.ring, cap=10)
        if c is INFINITE:
            seen_infinite += 1
            assert isinstance(d, tuple)  # never stabilises
        elif isinstance(d, tuple):
            assert d[1] <= c  # finite but too big to stabilise within the cap
        else:
            assert d == c
    assert seen_infinite > 5


def test_monomial_staircase_matches_bfs():
    rng = random.Random(23)
    for _ in range(80):
        I = random_monomial_ideal(rng)
        c = colength(I)
        lms = leading_monomials(I)
        walk = staircase_count_bfs(lms, I.ring, cap=5000)
        if c is INFINITE:
            assert walk == ("at least", 5000)
        else:
            assert walk == c


def _exp_dicts(I):
    return [g.with_ring(I.ring).terms for g in I.gens if not g.is_zero]


def _rows(gens, ring, p=None):
    """The int rows colength hands _pivot_profile for the generators gens:
    their numerators divided by their content over Q, their nonzero
    residues mod p over Z/p."""
    gens = [g.with_ring(ring) for g in gens if not g.is_zero]
    if p is None:
        return [sb._scaled(g.nums) for g in gens]
    return [r for g in gens if (r := sb._residue(g, p))]


def _initial_colength(rows, nv, p=None):
    """What colength reads off the initial forms of the rows: an int,
    INFINITE, or None, where the ladder decides."""
    return sb._initial_colength(rows, nv, p, sb._pure_powers(rows))


#: The highest degree the pivot profile tests read to, per number of
#: variables.
_PROFILE_BOUND = {1: 9, 2: 7, 3: 4}


@functools.cache
def _profile_corpus():
    """60 ideals: random zero-dimensional, monomial, and linearly changed."""
    rng = random.Random(53)
    cases = [random_zero_dim_ideal(rng)[0] for _ in range(25)]
    cases += [random_monomial_ideal(rng) for _ in range(25)]
    # a generic linear change makes the rows dense, so reductions cascade
    cases += [generic_linear_change(I, 1 + i) for i, I in enumerate(cases[:20:2])]
    return tuple(cases)


def _ladder(rows, nv, p=None):
    """_pivot_profile on the rows, entered in their order."""
    return sb._pivot_profile(sb._ladder_parts(rows, nv, p), nv, p)


def _profile(rows, nv, bound, p=None):
    """The first bound + 1 pivot counts of _pivot_profile."""
    return list(itertools.islice(_ladder(rows, nv, p), bound + 1))


def _truncated_dims(counts, nv):
    """[d_0, ..., d_D] from the pivot counts counts[0..D] of _pivot_profile."""
    dims, rank = [], 0
    for D, filled in enumerate(counts):
        rank += filled
        dims.append(math.comb(D + nv, nv) - rank)
    return dims


def test_pivot_profile_matches_truncation_oracle():
    # the counts of the one elimination give every d_D, over Q and mod p,
    # and it seals exactly where d_D stops growing
    for I in _profile_corpus():
        nv = len(I.ring)
        bound = _PROFILE_BOUND[nv]
        rows = _rows(I.gens, I.ring)
        dims = _truncated_dims(_profile(rows, nv, bound), nv)
        want = [truncated_quotient_dim(I.gens, I.ring, D) for D in range(bound + 1)]
        assert dims == want, str(I.gens)
        stops = [D for D in range(1, bound + 1) if want[D] == want[D - 1]]
        if stops:
            assert sb._sealed_colength(rows, nv) == want[stops[0]], str(I.gens)
        for p in (5, 2147483647):
            counts_p = _profile(_rows(I.gens, I.ring, p), nv, bound, p)
            dims_p = _truncated_dims(counts_p, nv)
            assert all(a >= b for a, b in zip(dims_p, dims)), (p, str(I.gens))


def test_pivot_profile_stops_below_the_exponent_limit():
    # a key's exponent fields hold exponents below 2^15, so the
    # elimination ends in ResourceLimitError before degree 2^15
    profile = _ladder([{1: 1}], 1)
    assert list(itertools.islice(profile, 2**15)) == [0] + [1] * (2**15 - 1)
    with pytest.raises(ResourceLimitError):
        next(profile)


@pytest.mark.parametrize("n", [3, 4])
def test_slices_hold_terms_past_the_key_sum_limit_at_their_degree(n):
    # a key whose prefix sums reach 2^16, such as x^32767*y^32767*z^4,
    # must land in the slice of its true degree, above every degree
    # reached here, and leave the counts of the squares alone
    squares = [{2 << 16 * j: 1} for j in range(n)]
    expected = list(itertools.islice(_ladder(squares, n), 5))
    for exp in itertools.product(NEAR_GUARD, repeat=n):
        if sum(exp) > 4:
            profile = _ladder(squares + [{_key(exp, n): 1}], n)
            assert list(itertools.islice(profile, 5)) == expected, exp
    # a ladder that seals far below such a term: its colength is d_D at
    # the seal degree D
    ring = ("x", "y", "z", "w")[:n]
    huge = "x^32767*y^32767*z^4"
    I = ideal(ring, f"x^2 + {huge}", *(f"{v}^2" for v in ring[1:]))
    seal = next(D for D, filled in enumerate(_ladder([g.nums for g in I.gens], n))
                if D and filled == math.comb(D + n - 1, n - 1))
    assert seal < parse_poly(huge, ring).degree() == 2**16 + 2
    assert colength(I) == truncated_quotient_dim(I.gens, ring, seal) == 2**n


def _reaches(module, text, call):
    """Whether the one line of module's source that holds text runs in
    call()."""
    lines = inspect.getsource(module).splitlines()
    [target] = [n + 1 for n, line in enumerate(lines) if text in line]
    hits = []

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != module.__file__:
            return None
        hits.extend([1] if event == "line" and frame.f_lineno == target else [])
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return bool(hits)


def test_denominators_of_later_slices_match_truncation_oracle():
    # A pivot is divided by the content of its lead slice, which need not
    # divide its later slices: a row that meets such a slice carries a
    # denominator until it is scaled clear where it is reduced. Some
    # corpus and catalog ideals take that path over Q, and their counts
    # are the truncation oracle's, stepped to the seal, to the Bezout stop
    # or to degree 9, over Q and over Z/p, where no denominator arises.
    carried = []
    for I in [*_profile_corpus(), *_catalog_colength_ideals()]:
        rows = _rows(I.gens, I.ring)
        run = functools.partial(sb._sealed_colength, rows, len(I.ring))
        if _reaches(sb, "s *= pden // g", run):
            carried.append(I)
    assert len(carried) >= 5
    for I in carried:
        nv = len(I.ring)
        for p in (None, 5, 2147483647):
            rows = _rows(I.gens, I.ring, p)
            bezout = max(sum(e) for d in rows for e in exponent_dict(d, nv)) ** nv
            dims, _ = ladder_stop(I.gens, I.ring, bezout, p, top=9)
            counts = _profile(rows, nv, len(dims) - 1, p)
            assert _truncated_dims(counts, nv) == dims, (p, str(I.gens))


scales = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)


@settings(max_examples=12, deadline=None)
@given(st.lists(scales, min_size=1, max_size=5))
def test_fraction_free_profile_matches_fraction_elimination(multipliers):
    # the integer rows give the same pivots per degree as Fraction rows
    # truncated at every bound, whatever nonzero constants the generators
    # carry
    for I in _profile_corpus():
        nv = len(I.ring)
        gens = [
            {e: c * multipliers[i % len(multipliers)] for e, c in g.items()}
            for i, g in enumerate(_exp_dicts(I))
        ]
        rows = _rows([Polynomial(I.ring, g) for g in gens], I.ring)
        got = _profile(rows, nv, _PROFILE_BOUND[nv])
        for bound in range(1, _PROFILE_BOUND[nv] + 1):
            want = fraction_pivot_profile(gens, nv, bound)
            assert got[: bound + 1] == want, (bound, str(I.gens))


def _redundant_presentations(I):
    """I's generators with later ones that already lie in the ideal of
    earlier ones: a duplicate, g next to x*g, g1 + g2 appended, one
    combination per variable (more generators than variables), and I's
    generators in reverse order."""
    gens = [g for g in I.gens if not g.is_zero]
    xs = [Polynomial.variable(v, I.ring) for v in I.ring]
    first, last = gens[0], gens[-1]
    yield gens + [first]
    yield [first, xs[0] * first] + gens[1:]
    yield gens + [first + last]
    yield gens + [x * gens[i % len(gens)] + gens[(i + 1) % len(gens)] for i, x in enumerate(xs)]
    yield gens[::-1]


def test_profile_of_redundant_generators_matches_all_rows():
    # rows x^a*g_i whose x^a leads the earlier generators' image are
    # never built; where later generators lie in the ideal of earlier
    # ones, the profile still matches elimination over all rows
    for I in _profile_corpus():
        nv = len(I.ring)
        top = _PROFILE_BOUND[nv]
        for gens in _redundant_presentations(I):
            dicts = [g.with_ring(I.ring).terms for g in gens]
            for p in (None, 5, 2147483647):
                rows = _rows(gens, I.ring, p)
                want = [truncated_quotient_dim(gens, I.ring, D, p) for D in range(top + 1)]
                counts = _profile(rows, nv, top, p)
                assert _truncated_dims(counts, nv) == want, (p, gens)
                if p is None:
                    for bound in range(1, top + 1):
                        want = fraction_pivot_profile(dicts, nv, bound)
                        assert counts[: bound + 1] == want, (bound, gens)


@pytest.fixture
def profile_runs(monkeypatch):
    """The steps read from each _pivot_profile run, one list per run: per
    degree, its count, whether the step built a row, that is listed the
    shifts of a generator's new rows (_monomials, outside the seal check
    _covers, which lists a degree's monomials too), and the rows it
    reduced: the rows that were no pivot at once, new or pending, each of
    which heapifies its columns once."""
    runs, calls, heaps = [], [0], [0]
    profile, monomials, covers = sb._pivot_profile, sb._monomials, sb._covers

    def counting(nv, k):
        calls[0] += 1
        return monomials(nv, k)

    def checking(leads, nv, D):
        before = calls[0]
        try:
            return covers(leads, nv, D)
        finally:
            calls[0] = before

    def heapify(columns):
        heaps[0] += 1
        heapq.heapify(columns)

    def recording(parts, nv, p=None, budget=None):
        runs.append([])
        before, reduced = calls[0], heaps[0]
        for count in profile(parts, nv, p, budget):
            runs[-1].append((count, calls[0] > before, heaps[0] - reduced))
            yield count
            before, reduced = calls[0], heaps[0]

    monkeypatch.setattr(sb, "_monomials", counting)
    monkeypatch.setattr(sb, "_covers", checking)
    monkeypatch.setattr(sb, "heapq", types.SimpleNamespace(heapify=heapify, heappop=heapq.heappop, heappush=heapq.heappush))
    monkeypatch.setattr(sb, "_pivot_profile", recording)
    return runs


def _assert_stops_like_stepping(gens, ring, p, runs, top=None):
    """_sealed_colength on the rows of gens, over Q when p is None and
    over Z/p otherwise, runs one elimination, stops where the oracle that
    steps one degree at a time stops, with its value, and reads the counts
    up to that degree and no further. The oracle steps at most to degree
    top: where it has not stopped by then, the elimination's d_D up to top
    must be the oracle's and its stop must come later. Returns the stop
    degree, the oracle's value (None past top) and whether the stop's step
    built a row, or None when every generator vanishes over the field:
    colength's witness settles that ideal."""
    nv = len(ring)
    rows = _rows(gens, ring, p)
    if not rows:
        return None
    bezout = max(sum(e) for d in rows for e in exponent_dict(d, nv)) ** nv
    dims, value = ladder_stop(gens, ring, bezout, p, top)
    runs.clear()
    got = sb._sealed_colength(rows, nv, p)
    where = (p, [str(g) for g in gens])
    assert len(runs) == 1, where
    read = _truncated_dims([count for count, *_ in runs[0]], nv)
    stop = len(read) - 1
    if value is None:
        assert stop > top and read[: top + 1] == dims, where
    else:
        assert read == dims and got == value, where
    return stop, value, runs[0][-1][1]


#: Ideals by the degree where they seal, from 2 to 9.
_SEAL_DEGREES = (
    (XY, ("x^2", "x*y", "y^2"), 2),
    (XY, ("x^2", "y^2"), 3),
    (XY, ("x^2", "y^3"), 4),
    (XY, ("x^2 + y^3", "x*y"), 4),
    (XY, ("x^3", "y^3"), 5),
    (XY, ("x^4", "y^5"), 8),
    (XY, ("x^5", "y^5"), 9),
    (XYZ, ("x^2", "y^2", "z^3"), 5),
    (XYZ, ("x^3", "y^3", "z^4"), 8),
    (XYZ, ("x^3", "y^4", "z^4"), 9),
    (XYZW, ("x^2", "y^2", "z^2", "w^2"), 5),
)
#: Ideals that stop past degree 9, or by Bezout, where the stepping
#: oracle can afford them only on sparse rows. Some seal with a colength
#: of exactly d^n, which the Bezout stop must let through: (x^22, y^22)
#: 484, (x^5, y^5, z^5) 125, (x^3, y^3, z^3, w^3) 81. Two are infinite
#: and stop by Bezout: (x^2*y, x*y^3) at 7 (d^n = 16) and
#: (x*y, y*z, z^3 + x^4) at 17 (d^n = 64).
_SPARSE_STOPS = (
    (XY, ("x^21", "y^22"), 42),
    (XY, ("x^22", "y^22"), 43),
    (XY, ("x^2*y", "x*y^3"), 7),
    (XYZ, ("x^5", "y^5", "z^5"), 13),
    (XYZ, ("x^5", "y^5", "z^6"), 14),
    (XYZ, ("x*y", "y*z", "z^3 + x^4"), 17),
    (XYZW, ("x^3", "y^3", "z^3", "w^3"), 9),
    (XYZW, ("x^3", "y^3", "z^3", "w^4"), 10),
)
#: Bezout stops at 2, 3 and 4, and seals at 16 and 17, there with a
#: colength of exactly d^n = 81.
_MORE_STOPS = (
    (XY, ("x*y",), 2, True),
    (XYZ, ("x*y", "y*z", "x*z"), 3, True),
    (XY, ("x^2*y", "x*y^2"), 4, True),
    (XY, ("x^8", "y^9"), 16, False),
    (XY, ("x^9", "y^9"), 17, False),
)


@pytest.mark.parametrize(
    "ring, gens, degree, dense",
    [(*case, True) for case in _SEAL_DEGREES]
    + [(*case, False) for case in _SPARSE_STOPS]
    + list(_MORE_STOPS),
)
def test_seal_ladder_on_and_past_its_caps(ring, gens, degree, dense, profile_runs):
    # one elimination stops at the first seal or Bezout degree, with the
    # stepping oracle's value, and is read no further. The sum of the
    # generators is appended as a redundant one, and a generic linear
    # change, which keeps every d_D, makes the rows dense where the oracle
    # can afford it. In (x^2 + y^3, x*y) the lead y^4 comes only from a
    # pending row: y*g_1 less x*g_2 cancels in degree 3.
    I = ideal(ring, *gens, "+".join(gens))
    if dense:
        I = generic_linear_change(I, 1)
    for p in (None, 5, 2147483647):
        stop, *_ = _assert_stops_like_stepping(I.gens, ring, p, profile_runs)
        assert stop == degree, p


@functools.cache
def _catalog_colength_ideals(rows=FAST_ROWS):
    """The ideals whose colengths invariant_tuple takes on the catalog
    rows (polar-chain stages, the section and polar ideals of each curve
    and point counts), as left by eliminate_linear_generators, where
    generators and variables are left. The stages of the polar chain on
    each space that invariant_tuple sends down the points route (d3h1) or
    the section route (a curve) are added."""
    stages = []
    measure = milnor.colength

    def recording(I, **kwargs):
        J = eliminate_linear_generators(I)[0]
        if J.ring and any(not g.is_zero for g in J.gens):
            stages.append(J)
        return measure(I, **kwargs)

    milnor.colength = recording
    try:
        for text in rows:
            for I in unchained_spaces(resolve_row(text).germ):
                polar_chain(I)
    finally:
        milnor.colength = measure
    return tuple(stages)


def test_seal_ladder_matches_stepping_oracle(profile_runs):
    # every corpus, redundant presentations included, over three fields,
    # with the oracle stepping to degree 9 at most; the elimination runs on
    # past 9 alone. On each field some of the cases are decided without
    # building their stop degree, and some are not: colength reads them
    # off the initial forms, or the ladder seals from the leads of the
    # degree below, building no row at the seal degree.
    ideals = [*_profile_corpus(), *_witness_corpus(), *_catalog_colength_ideals()]
    cases = [(I.gens, I.ring) for I in ideals]
    cases += [(gens, I.ring) for I in _profile_corpus() for gens in _redundant_presentations(I)]
    seals, bezout, past = set(), set(), 0
    early = dict.fromkeys((None, 5, 2147483647), 0)
    for gens, ring in cases:
        for p in early:
            result = _assert_stops_like_stepping(gens, ring, p, profile_runs, top=9)
            if result is None:
                continue
            stop, value, built = result
            early[p] += not built or _initial_colength(_rows(gens, ring, p), len(ring), p) is not None
            if value is None:
                past += 1
            else:
                (bezout if value is INFINITE else seals).add(stop)
    assert {1, 2, 3, 4, 5, 8, 9} <= seals
    assert {1, 2, 3, 4, 5, 8, 9} <= bezout
    assert past
    assert all(60 <= n < len(cases) // 2 for n in early.values()), early


@pytest.mark.parametrize("p", [None, 5, 2147483647])
def test_seal_read_off_the_leads_of_the_degree_below(p, profile_runs):
    # The leads form a monomial ideal, so degree D fills when the leads of
    # degree D - 1 have every monomial of degree D among their multiples,
    # and the elimination then seals at D without building a row of that
    # degree. (x^2, y^2) seals so at 3. (x^2, y^3) leaves the pure power y^2
    # free at degree 2, which keeps degree 3 open, and seals so at 4.
    # (x^2, x*y, y^3) leaves y^2 free too, and degree 3 fills only through
    # the lead y^3, which its rows of degree 3 make.
    for gens, degree, built in (
        (("x^2", "y^2"), 3, False),
        (("x^2", "y^3"), 4, False),
        (("x^2", "x*y", "y^3"), 3, True),
    ):
        I = ideal(XY, *gens)
        stop, _, step_built = _assert_stops_like_stepping(I.gens, XY, p, profile_runs)
        assert (stop, step_built) == (degree, built), gens
    # D^4 of rows I and IV seals at 7 from the leads of degree 6, which
    # leave z2*z3^2*z4^3 free: 43 and 32 reductions, where rows that built
    # the children of pending rows took 483 and 345, rows built as shifts
    # of their generators 598 and 460, and building degree 7 as well 963
    # and 761. The leads do not depend on the order the generators enter
    # in, so neither does the seal degree.
    field = sb.RATIONAL if p is None else prime_field(p)
    for row, steps in (("I", 43), ("IV", 32)):
        D4 = multiple_point_ideal(resolve_row(row).germ, 4)
        profile_runs.clear()
        assert colength(D4, field, max_steps=steps) == 24
        [run] = profile_runs
        assert len(run) == 8 and not run[-1][1], row
        with pytest.raises(ResourceLimitError):
            colength(D4, field, max_steps=steps - 1)


@pytest.mark.parametrize("p, value, steps", [(None, 25, 25), (5, 25, 15), (2147483647, 25, 25)])
def test_rows_start_from_the_pivots_of_the_degree_below(p, value, steps):
    # The chain stage of P_3^4 with colength 25, two cubic cones that share
    # a line, takes 25 reductions (15 over F_5) when a row starts as x_j
    # times the pivot its parent row became, where rows built as shifts of
    # their generators took 55 (45 over F_5).
    [J] = [J for J in _catalog_colength_ideals(("P_3^4",)) if colength(J) == 25]
    field = sb.RATIONAL if p is None else prime_field(p)
    assert colength(J, field, max_steps=steps) == value
    with pytest.raises(ResourceLimitError):
        colength(J, field, max_steps=steps - 1)


@pytest.mark.parametrize("p", [None, 5, 2147483647])
def test_transversal_tangent_cones_build_no_row(p, profile_runs):
    # The double-point chain stage of P_13, two binary forms of degree 13
    # with no common line, has colength 13*13 = 169, read off its cones with
    # no ladder run. Over F_5 the forms share a factor: the ladder reads the
    # stage infinite, with 63 reductions where rows built as shifts of their
    # generators took 105.
    [J] = [J for J in _catalog_colength_ideals(("P_13",)) if colength(J) == 169]
    field = sb.RATIONAL if p is None else prime_field(p)
    if p == 5:
        assert colength(J, field, max_steps=63) == INFINITE
        with pytest.raises(ResourceLimitError):
            colength(J, field, max_steps=62)
        return
    profile_runs.clear()
    assert colength(J, field, max_steps=0) == 169
    assert profile_runs == []


def _binary_form(rng, degree, scale=1):
    """A binary form in x, y of this degree, with small integer entries
    times scale, and x^degree among its terms, with the entry +-scale."""
    terms = {(i, degree - i): rng.randint(-3, 3) for i in range(degree)}
    terms[degree, 0] = rng.choice([-1, 1])
    return Polynomial(XY, {e: scale * c for e, c in terms.items()})


def _tail(rng, low, high):
    """One to three terms of degrees low..high with small integer entries."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(low, high)
        i = rng.randint(0, d)
        terms[i, d - i] = rng.choice([-2, -1, 1, 2])
    return Polynomial(XY, terms)


def _cone_pair(rng, kind, scale):
    """Two plane germs whose tangent cones are, by kind: random; made to
    share a random line; made to share the line y = 0, the zero (1:0);
    random, the first times scale; or random, both times a common
    component."""
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    if kind in ("tangent", "infinity"):
        line = Polynomial(XY, {(1, 0): 1, (0, 1): rng.randint(-3, 3)})
        if kind == "infinity":
            line = P("y")
        a, b = max(a, 2), max(b, 2)
        f, g = line * _binary_form(rng, a - 1), line * _binary_form(rng, b - 1)
    else:
        f, g = _binary_form(rng, a, scale if kind == "scaled" else 1), _binary_form(rng, b)
    f, g = f + _tail(rng, a + 1, a + 2), g + _tail(rng, b + 1, b + 2)
    if kind == "component":
        h = _binary_form(rng, 1) + _tail(rng, 2, 2)
        f, g = h * f, h * g
    return f, g


def _initial_forms(rows, nv):
    """The lowest part of each row, as a dict of exponent tuples."""
    forms = []
    for row in rows:
        terms = exponent_dict(row, nv)
        order = min(map(sum, terms))
        forms.append({e: c for e, c in terms.items() if sum(e) == order})
    return forms


def _resultant_mod(f, g, q):
    """The resultant of binary forms f, g (int dicts of exponent tuples,
    homogeneous of degrees a, b) mod q: the determinant of their Sylvester
    matrix, by elimination mod q."""
    a, b = (sum(next(iter(h))) for h in (f, g))
    rows = [[f.get((a - j + i, j - i), 0) % q if 0 <= j - i <= a else 0 for j in range(a + b)] for i in range(b)]
    rows += [[g.get((b - j + i, j - i), 0) % q if 0 <= j - i <= b else 0 for j in range(a + b)] for i in range(a)]
    det = 1
    for c in range(a + b):
        r = next((r for r in range(c, a + b) if rows[r][c]), None)
        if r is None:
            return 0
        rows[c], rows[r] = rows[r], rows[c]
        det = det * rows[c][c] % q
        inv = pow(rows[c][c], -1, q)
        for r in range(c + 1, a + b):
            t = rows[r][c] * inv % q
            rows[r] = [(x - t * y) % q for x, y in zip(rows[r], rows[c])]
    return det


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7, 2147483647])
def test_tangent_cone_closed_form_matches_truncation_oracle(p, profile_runs):
    # Seeded plane germs (f, g): with cones that share no line the colength
    # is read off them; random cones, cones forced to share a line or the
    # zero (1:0), a first cone times p (or, over Q, times 2^31 - 1, which
    # the cone test reads as zero) and germs with a common component. The
    # initial forms decide exactly where the leads are coprime or the
    # resultant of the cones is nonzero mod p (mod 2^31 - 1 over Q), or
    # where the weighted leads decide, with the ladder's value; every
    # ladder run matches the truncation oracle up to its stop.
    rng = random.Random(p or 0)
    q = p or sb._CONE_PRIME
    kinds = ("random", "random", "tangent", "infinity", "scaled", "component")
    closed, ladder = 0, 0
    for n in range(60):
        kind = kinds[n % len(kinds)]
        gens = _cone_pair(rng, kind, q)
        if kind == "component":
            assert colength(ideal(XY, *gens), p) == INFINITE, gens
            continue
        rows = _rows(gens, XY, p)
        profile_runs.clear()
        got = sb._sealed_colength(rows, 2, p)
        [run] = profile_runs
        read = _truncated_dims([count for count, *_ in run], 2)
        where = (p, kind, [str(g) for g in gens])
        assert read == truncated_quotient_dims(gens, XY, len(read) - 1, p), where
        assert got == (read[-1] if read[-1] == read[-2] else INFINITE), where
        if len(rows) < 2:
            continue
        cones = _initial_forms(rows, 2)
        # a lead is the term of its cone with the lowest power of y
        (x1, y1), (x2, y2) = (min(cone, key=lambda e: e[::-1]) for cone in cones)
        coprime = not (x1 and x2 or y1 and y2)
        decided = _initial_colength(rows, 2, p)
        transversal = coprime or _resultant_mod(*cones, q) != 0
        assert (decided is not None) == (transversal or _weighted_leads(rows, 2) is not None), where
        assert decided in (None, got), where
        closed += decided is not None
        ladder += decided is None
        if kind in ("tangent", "infinity") or kind == "scaled" and p is None:
            assert not transversal, where
    assert closed and ladder


@pytest.mark.parametrize("p", [None, 5, 2147483647])
def test_rows_start_from_their_parents_only_off_the_f5_skips(p):
    # Modulo the image of g_1..g_(i-1), the row x_j*p of g_i is h*g_i, where
    # h holds x_j times the shifts of the rows of g_i that p combines. Where
    # one of those is a shift F5 skips, the F5 identity ties it to higher
    # columns, x^a among them, and x_j*p can lose the lead of x^a*g_i; such
    # a row starts as x^a*g_i. Without that check the colength of
    # (x^2*y^2 + x^3*y + x*y^3, y^2, x^6), whose J is (x^3*y, y^2, x^6),
    # reads 10, and (x*y^2 + x^4 + x^3*y, 3*x) loses a lead in degree 5.
    field = sb.RATIONAL if p is None else prime_field(p)
    assert colength(ideal(XY, "x^2*y^2 + x^3*y + x*y^3", "y^2", "x^6"), field) == 9
    rows = _rows(ideal(XY, "x*y^2 + x^4 + x^3*y", "3*x").gens, XY, p)
    assert _profile(rows, 2, 8, p) == list(range(9))


@pytest.mark.parametrize("p", [None, 5, 2147483647])
def test_rows_of_a_pending_parent_wait_for_its_pivot(p):
    # D^4 of row VIII (colength 24) and the stage of row II's D^3 chain
    # with colength 26 take 41 and 161 reductions (36 and 119 over F_5)
    # when a row whose parent is pending waits, dormant, for the parent's
    # pivot, where building it took 452 and 245 (405 and 194)
    steps = (36, 119) if p == 5 else (41, 161)
    field = sb.RATIONAL if p is None else prime_field(p)
    D4 = multiple_point_ideal(resolve_row("VIII").germ, 4)
    [J] = [J for J in _catalog_colength_ideals(("II",)) if colength(J) == 26]
    for I, value, n in ((D4, 24, steps[0]), (J, 26, steps[1])):
        assert colength(I, field, max_steps=n) == value
        with pytest.raises(ResourceLimitError):
            colength(I, field, max_steps=n - 1)


def _reductions_to_seal(parts, nv, p):
    """The row reductions of _pivot_profile on parts, entered in their
    order, up to its seal."""
    budget = [sb.DEFAULT_MAX_STEPS]
    for D, filled in enumerate(sb._pivot_profile(parts, nv, p, budget)):
        if D and filled == math.comb(D + nv - 1, nv - 1):
            return sb.DEFAULT_MAX_STEPS - budget[0]


@pytest.mark.parametrize("p", [None, 5, 2147483647])
def test_smooth_generators_enter_the_ladder_first(p, profile_runs, monkeypatch):
    # D^4 of rows I and IV keeps, last, one generator of order 1, h_1 =
    # z1 + z2 + z3 + z4 plus higher terms, from which no variable splits
    # off. The ladder enters it first: its rows are pivots at once and lead
    # every multiple of z1, so F5 skips those shifts of the other three,
    # and the seal at 7 takes 43 and 32 reductions, with 62 rows reduced,
    # where entered last it took 103 and 71, with 113. D^4 of row VIII has
    # two generators of order 1, the last two, both with the lead z1: the
    # first of them enters first and the second keeps its place, 41
    # reductions (36 over F_5) against 33 (26) in index order, and 63 rows
    # reduced against 73.
    field = sb.RATIONAL if p is None else prime_field(p)
    entered = []
    recording = sb._pivot_profile

    def entering(parts, nv, p=None, budget=None):
        entered.append(parts)
        return recording(parts, nv, p, budget)

    monkeypatch.setattr(sb, "_pivot_profile", entering)
    for row, orders, order, steps, reduced, before in (
        ("I", [3, 2, 2, 1], (3, 0, 1, 2), 43, 62, (103, 113)),
        ("IV", [3, 2, 2, 1], (3, 0, 1, 2), 32, 62, (71, 113)),
        ("VIII", [3, 2, 1, 1], (2, 0, 1, 3), 36 if p == 5 else 41, 63, (26 if p == 5 else 33, 73)),
    ):
        J, _ = eliminate_linear_generators(multiple_point_ideal(resolve_row(row).germ, 4), field)
        nv = len(J.ring)
        parts = sb._ladder_parts(_rows(J.gens, J.ring, p), nv, p)
        assert [part[0] for part in parts] == orders, row
        # the generators of order 1 share the lead z1
        assert {part[3][0] for part in parts if part[0] == 1} == {1}, row
        entered.clear()
        profile_runs.clear()
        assert colength(J, field, max_steps=steps) == 24
        assert entered == [[parts[i] for i in order]], row
        [run] = profile_runs
        assert sum(rows for *_, rows in run) == reduced, row
        with pytest.raises(ResourceLimitError):
            colength(J, field, max_steps=steps - 1)
        profile_runs.clear()
        assert _reductions_to_seal(parts, nv, p) == before[0], row
        assert sum(rows for *_, rows in profile_runs[0]) == before[1], row


@pytest.mark.parametrize("p", [None, 5, 2147483647])
def test_a_smooth_generator_entered_first_cuts_the_rows_reduced(p, profile_runs):
    # x + y^2 + x*y is smooth, and no variable splits off from it. Entered
    # first, it leads every multiple of x, so only the rows y^k*g of
    # g = x^4 + y^9 are built, and the one of them reduced, g, stays
    # pending from degree 4 to 8, as the pivots of the smooth generator
    # substitute x's power series into it term by term: 5 rows reduced
    # against 14 with the smooth generator last. The substitution takes
    # more reductions, 14 against 8, yet fewer rows make the shorter
    # ladder.
    rows = _rows(ideal(XY, "x^4 + y^9", "x + y^2 + x*y").gens, XY, p)
    parts = sb._ladder_parts(rows, 2, p)
    profile_runs.clear()
    assert sb._sealed_colength(rows, 2, p) == 8
    for order, work in (([parts[1], parts[0]], (5, 14)), (parts, (14, 8))):
        reductions = _reductions_to_seal(order, 2, p)
        steps = profile_runs[-1]
        assert [count for count, *_ in steps] == [*range(8), 9]
        assert (sum(rows for *_, rows in steps), reductions) == work
    entered, first, _ = profile_runs
    assert entered == first


@functools.cache
def _quad_ladders():
    """Every seal ladder of invariant_tuple on the quadruple rows, over Q,
    F_5 and F_2147483647: D^4 of each row and the section's c_p of its
    triple point curve, as (generators, variables, p) for
    _sealed_colength."""
    ladders = []
    sealed = sb._sealed_colength

    def recording(gens, nv, p=None, max_steps=sb.DEFAULT_MAX_STEPS):
        ladders.append((tuple(gens), nv, p))
        return sealed(gens, nv, p, max_steps)

    sb._sealed_colength = recording
    try:
        for p in (None, 5, 2147483647):
            for row in QUAD_ROWS:
                invariant_tuple(resolve_row(row).germ, field=sb.RATIONAL if p is None else prime_field(p))
    finally:
        sb._sealed_colength = sealed
    return tuple(ladders)


def test_counts_do_not_depend_on_the_entry_order(profile_runs):
    # The counts per degree are those of J and D alone. On every seal
    # ladder of the quadruple rows, entered in each order of its
    # generators, the elimination makes the counts of the entry order
    # _sealed_colength chooses up to its seal, and _sealed_colength gives
    # the same colength.
    ladders = _quad_ladders()
    assert len(ladders) == 30 and sum(nv == 4 for _, nv, _ in ladders) == 9
    for gens, nv, p in ladders:
        profile_runs.clear()
        value = sb._sealed_colength(list(gens), nv, p)
        counts = [count for count, *_ in profile_runs[0]]
        parts = sb._ladder_parts(gens, nv, p)
        for order in itertools.permutations(range(len(gens))):
            profile = sb._pivot_profile([parts[i] for i in order], nv, p)
            assert list(itertools.islice(profile, len(counts))) == counts, (p, order)
            assert sb._sealed_colength([gens[i] for i in order], nv, p) == value, (p, order)


@pytest.mark.parametrize("p", [None, 5, 2147483647])
def test_a_dormant_row_enters_as_x_j_times_its_parents_pivot(p, profile_runs):
    # In (x^2*y + y^4, x^3) the row y*x^3 meets the pivot of x*g_1 and
    # cancels in degree 4, leaving -x*y^4, so y^2*x^3 waits dormant at 5,
    # where its parent becomes the pivot of x*y^4. It enters at 6 as y
    # times that pivot, already reduced: 3 reductions in all, where
    # building it as y^2*x^3 took 9.
    I = ideal(XY, "x^2*y + y^4", "x^3")
    _, value, _ = _assert_stops_like_stepping(I.gens, XY, p, profile_runs)
    assert value == 12
    field = sb.RATIONAL if p is None else prime_field(p)
    assert colength(I, field, max_steps=3) == 12
    with pytest.raises(ResourceLimitError):
        colength(I, field, max_steps=2)


@pytest.mark.parametrize("p", [None, 2, 3, 2147483647])
def test_dormant_rows_leave_an_anchor_whose_support_meets_an_f5_skip(p):
    # A dormant row cannot wait on once x_j times a shift in its anchor's
    # support is one that F5 skips. In (x^4 + x*y^3 + x^2*y, x^2*y, x*y)
    # that comes about both ways: pending anchors meet pivots of their
    # generator that widen their supports, and anchors become pivots
    # whose supports hold such a shift. In the second ideal only the
    # latter. Such rows enter as x^t times the anchor as it stood before
    # the step; left waiting, or entered as x_j times the pivot, they lose
    # leads.
    for ring, gens, top in (
        (XY, ("x^4 + x*y^3 + x^2*y", "x^2*y", "x*y"), 14),
        (XYZ, ("y^4 + x^3 + x*y*z + y^2*z + 3*y*z^2 + 2*z^3", "-y*z - z^2", "x^3"), 9),
    ):
        I = ideal(ring, *gens)
        counts = _profile(_rows(I.gens, ring, p), len(ring), top, p)
        assert _truncated_dims(counts, len(ring)) == truncated_quotient_dims(I.gens, ring, top, p), gens


def _dense_ideal(rng):
    """2 or 3 variables and 2 to 4 generators, each drawing every monomial
    of degree low..high (2 <= low <= high <= 6) with probability 0.3 and
    a coefficient in -3..3, where 0 leaves it out."""
    ring = rng.choice((XY, XYZ))
    gens = []
    for _ in range(rng.randint(2, 4)):
        low = rng.randint(2, 3)
        high = rng.randint(low, 6)
        terms = {e: rng.randint(-3, 3) for e in monomials_up_to(ring, high) if sum(e) >= low and rng.random() < 0.3}
        gens.append(Polynomial(ring, {e: Fraction(c) for e, c in terms.items() if c}))
    return ring, gens


def test_dormant_rows_keep_every_count_on_random_dense_ideals(profile_runs):
    # Seeded random dense ideals over Q, F_2, F_3, F_5 and F_7, where rows
    # wait dormant, enter, leave their anchors and are dropped. The d_D
    # read up to the stop (seal, Bezout, or the budget running out) are
    # those of one truncated elimination, and the stop is where d_D stops
    # growing or first passes d^n. Counts are compared, not which row
    # became a pivot: where a stop is far, a dormant row can lead before
    # its pending parent and another row take the lead it would have had.
    rng = random.Random(2021)
    stops = set()
    for _ in range(24):
        ring, gens = _dense_ideal(rng)
        nv, top = len(ring), 10 if len(ring) == 2 else 6
        for p in (None, 2, 3, 5, 7):
            rows = _rows(gens, ring, p)
            if not rows or any(0 in d for d in rows):
                continue
            bezout = max(sum(e) for d in rows for e in exponent_dict(d, nv)) ** nv
            profile_runs.clear()
            try:
                value = sb._sealed_colength(rows, nv, p, max_steps=1500)
            except ResourceLimitError:
                value = None
            read = _truncated_dims([count for count, *_ in profile_runs[0]], nv)
            stop = len(read) - 1
            dims = truncated_quotient_dims(gens, ring, min(stop, top), p)
            where = (p, [str(g) for g in gens])
            assert read[: top + 1] == dims, where
            if value is not None and stop <= top:
                grew = [D for D in range(1, stop + 1) if dims[D] == dims[D - 1] or dims[D] > bezout]
                assert grew == [stop] and value == (INFINITE if dims[stop] > bezout else dims[stop]), where
            stops.add("budget" if value is None else "Bezout" if value is INFINITE else "seal")
    assert stops == {"seal", "Bezout", "budget"}


def _lead(row, nv):
    """The exponents of a row's lead: of its terms of least degree, the
    first in lex order with the last variable most significant."""
    return min(exponent_dict(row, nv), key=lambda e: (sum(e), e[::-1]))


def _coprime_lead_ideal(rng):
    """1 to 4 variables and 1 to 4 generators whose leads over Q are
    pairwise coprime: each lead a product of powers of its own variables
    (x*y beside z^2, not only pure powers), with terms of its degree
    after it and terms of higher degree. A variable can be left out of
    every lead; a constant generator comes now and then; and a lead
    coefficient is sometimes 6 or 35, so that over F_2, F_3, F_5 or F_7
    the lead is a later term."""
    nv = rng.randint(1, 4)
    ring = XYZW[:nv]
    order = list(range(nv))
    rng.shuffle(order)
    gens = []
    for _ in range(rng.randint(1, 4)):
        mine = [order.pop() for _ in range(min(len(order), rng.randint(1, 2)))]
        if not mine:
            break
        lead = [0] * nv
        for j in mine:
            lead[j] = rng.randint(1, 3)
        lead = tuple(lead)
        degree = sum(lead)
        terms = {lead: Fraction(rng.choice((1, -2, 3, 6, 35) if rng.random() < 0.4 else (1, -1, 2, -3)))}
        same = [e for e in monomials_up_to(ring, degree) if sum(e) == degree and e[::-1] > lead[::-1]]
        for e in rng.sample(same, min(len(same), rng.randint(0, 2))):
            terms[e] = Fraction(rng.randint(-3, 3))
        higher = [e for e in monomials_up_to(ring, degree + 3) if sum(e) > degree]
        for e in rng.sample(higher, min(len(higher), rng.randint(0, 3))):
            terms[e] = Fraction(rng.randint(-3, 3))
        gens.append(Polynomial(ring, {e: c for e, c in terms.items() if c}))
    if rng.random() < 0.05:
        gens.append(Polynomial(ring, {(0,) * nv: Fraction(rng.choice((1, 2, 7)))}))
    rng.shuffle(gens)
    return ring, gens


def _weighted_leads(rows, nv):
    """The exponents e_j of a matching of the n rows to distinct variables
    that makes each matched pure power the lead of its row's weighted
    initial form, under the weights w_j = 1/(e_j + 1), where x_j^(e_j) is
    the lowest pure power of x_j in the row matched to x_j; None where no
    matching does. A lead is the term of least weighted degree, then the
    first with the last variable most significant. Every matching is
    tried, in Fractions, on exponent tuples: the weighted certificate of
    _initial_colength by brute force."""
    if len(rows) != nv:
        return None
    terms = [exponent_dict(row, nv) for row in rows]
    for match in itertools.permutations(range(nv)):
        pure = [min((t[j] for t in terms[i] if t[j] == sum(t) > 0), default=None) for i, j in enumerate(match)]
        if None in pure:
            continue
        exps = [0] * nv
        for j, e in zip(match, pure):
            exps[j] = e
        w = [Fraction(1, e + 1) for e in exps]

        def lead(ts):
            return min(ts, key=lambda t: (sum(a * b for a, b in zip(t, w)), t[::-1]))

        if all(lead(terms[i]) == tuple(exps[j] if k == j else 0 for k in range(nv)) for i, j in enumerate(match)):
            return exps
    return None


def _expected_decision(rows, nv, p):
    """Whether the initial forms decide: coprime leads in total degree,
    two transversal cones in two variables, or the weighted leads of
    _weighted_leads."""
    leads = [_lead(row, nv) for row in rows]
    if not any(a[j] and b[j] for a, b in itertools.combinations(leads, 2) for j in range(nv)):
        return True
    if nv == len(rows) == 2 and _resultant_mod(*_initial_forms(rows, 2), p or sb._CONE_PRIME):
        return True
    return _weighted_leads(rows, nv) is not None


#: The largest exponent of a pure power in the semi-quasihomogeneous sweep,
#: per number of variables, and the degree to which the truncation oracle
#: runs on it: every colength that the sweep's initial forms decide seals
#: by then.
_SQH_EXPONENT = {2: 6, 3: 4, 4: 2}
_SQH_TOP = {2: 12, 3: 10, 4: 6}


def _semi_quasihomogeneous_ideal(rng):
    """2 to 4 generators in as many variables: g_i = c*x_j^(e_j), for a
    random matching of generators to variables, plus one to three terms of
    higher weighted degree for the weights w_j = 1/(e_j + 1), other pure
    powers among them. A third of the generators also get a term of
    exactly the weighted degree of x_j^(e_j), before it or after it in key
    order: a tie at the boundary, which sends the ideal to the ladder when
    that term leads. Now and then c is 6, 10, 14 or 35, so that the pure
    power vanishes mod 2, 3, 5 or 7."""
    nv = rng.randint(2, 4)
    ring = XYZW[:nv]
    exps = [rng.randint(1, _SQH_EXPONENT[nv]) for _ in range(nv)]
    weight = [Fraction(1, e + 1) for e in exps]
    monos = [t for t in itertools.product(*(range(e + 2) for e in exps)) if 0 < sum(t) <= max(exps) + 2]
    degree = {t: sum(a * w for a, w in zip(t, weight)) for t in monos}
    gens = []
    for j in rng.sample(range(nv), nv):
        pure = tuple(exps[j] if k == j else 0 for k in range(nv))
        low = Fraction(exps[j], exps[j] + 1)
        above = [t for t in monos if degree[t] > low]
        terms = {t: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for t in rng.sample(above, min(len(above), rng.randint(1, 3)))}
        ties = [t for t in monos if degree[t] == low and t != pure]
        if ties and rng.random() < 0.34:
            terms[rng.choice(ties)] = Fraction(rng.choice((-1, 1, 2)))
        terms[pure] = Fraction(rng.choice((6, 10, 14, 35) if rng.random() < 0.2 else (1, -1, 2, -3)))
        gens.append(Polynomial(ring, terms))
    return ring, gens


@functools.cache
def _semi_quasihomogeneous_sweep(count=60):
    rng = random.Random(2027)
    return tuple(_semi_quasihomogeneous_ideal(rng) for _ in range(count))


def test_weighted_initial_forms_give_semi_quasihomogeneous_colengths():
    # Seeded semi-quasihomogeneous ideals over Q, F_2, F_3, F_5, F_7 and
    # F_2147483647: the initial forms decide exactly where total-degree
    # leads are coprime, two cones are transversal, or the weighted leads
    # are the matched pure powers, and there give prod e_j when the
    # weights decide. Each value decided is the one where the truncation
    # oracle's d_D stop growing by its top degree, and the ladder's. Ties
    # at the boundary whose term leads, and pure powers whose coefficient
    # p divides, leave the ideal to the ladder or to other weights. Some
    # of those residues are infinite, and a ladder run to their Bezout
    # stop takes seconds in four variables, so it is not made here.
    seen = dict.fromkeys(["weighted", "ladder", "residue"], 0)
    for ring, gens in _semi_quasihomogeneous_sweep():
        nv = len(ring)
        for p in (None, 2, 3, 5, 7, 2147483647):
            rows = _rows(gens, ring, p)
            where = (p, [str(g) for g in gens])
            seen["residue"] += p is not None and any(g.nums.keys() != r.keys() for g, r in zip(gens, rows))
            if len(rows) < nv:
                continue
            decided = _initial_colength(rows, nv, p)
            assert (decided is not None) == _expected_decision(rows, nv, p), where
            if decided is None:
                seen["ladder"] += 1
                continue
            dims = truncated_quotient_dims(gens, ring, _SQH_TOP[nv], p)
            assert dims[-1] == dims[-2] == decided == sb._sealed_colength(rows, nv, p), where
            exps = _weighted_leads(rows, nv)
            if exps is not None:
                assert decided == math.prod(exps), where
                seen["weighted"] += not sb._initial_forms(rows, nv)[1]
    assert all(seen.values()), seen
    # Ties at the boundary, weights (1/3, 1/6): x*y^2 ties with x^2 after
    # it in key order, and x^2, y^5 lead, where the total-degree leads x^2
    # and x^3 meet; x*y^3 ties with y^5 before it, leads, and meets x^2.
    for gens, value in ((("x^2 + x*y^2", "y^5 + x^3"), 10), (("x^2 + y^7", "y^5 + x*y^3"), None)):
        rows = _rows(ideal(XY, *gens).gens, XY)
        assert _initial_colength(rows, 2) == value, gens
        assert sb._sealed_colength(rows, 2) == 10, gens


def test_coprime_leads_give_every_count_without_a_row():
    # Seeded random ideals whose leads over the field are pairwise coprime:
    # the initial forms decide exactly these, two-variable pairs with
    # transversal cones and ideals whose weighted leads decide, and no
    # others. Their colength is the product of the leads' degrees where
    # every variable has a pure power among the leads, a lead 1 giving 0,
    # and infinite otherwise. The ladder's counts are those of one
    # truncated elimination to degree 10, 9 or 8 (up to 2, 3 or 4
    # variables); it seals at the same finite colength, and on an infinite
    # one it has not sealed by then (its Bezout stop takes more than 3 s on
    # some four-variable ideals here, which have an axis witness). Where a
    # lead coefficient vanishes mod p, the leads over F_p are the
    # residues', coprime or not.
    rng = random.Random(2022)
    fields = (None, 2, 3, 5, 7, 2147483647)
    seen = dict.fromkeys(["coprime", "ladder", "finite", "infinite", "moved", "mixed", "constant"], 0)
    for _ in range(40):
        ring, gens = _coprime_lead_ideal(rng)
        nv, top = len(ring), {1: 10, 2: 10, 3: 9, 4: 8}[len(ring)]
        for p in fields:
            rows = _rows(gens, ring, p)
            if not rows:
                continue
            leads = [_lead(row, nv) for row in rows]
            decided = _initial_colength(rows, nv, p)
            where = (p, [str(g) for g in gens])
            if any(a[j] and b[j] for a, b in itertools.combinations(leads, 2) for j in range(nv)):
                cones = nv == len(rows) == 2 and _resultant_mod(*_initial_forms(rows, 2), p or sb._CONE_PRIME)
                assert (decided is not None) == (bool(cones) or _weighted_leads(rows, nv) is not None), where
                assert decided is None or decided == sb._sealed_colength(rows, nv, p), where
                seen["ladder"] += 1
                continue
            seen["coprime"] += 1
            seen["moved"] += p is not None and leads != [_lead(row, nv) for row in _rows(gens, ring)]
            seen["mixed"] += any(sum(map(bool, t)) > 1 for t in leads)
            unit = not all(map(any, leads))
            seen["constant"] += unit
            dims = _truncated_dims(_profile(rows, nv, top, p), nv)
            assert dims == truncated_quotient_dims(gens, ring, top, p), where
            powers = {t.index(sum(t)) for t in leads if sum(map(bool, t)) == 1}
            if len(powers) == nv or unit:
                assert decided == sb._sealed_colength(rows, nv, p) == math.prod(map(sum, leads)), where
                seen["finite"] += 1
            else:
                assert decided is INFINITE and all(a < b for a, b in zip(dims, dims[1:])), where
                seen["infinite"] += 1
    assert all(seen.values()), seen


def test_initial_forms_decide_as_the_ladder_does():
    # Wherever the initial forms decide an ideal that colength hands them,
    # one with no axis witness, the ladder run to its stop gives the same
    # colength: on the profile, witness, redundant and catalog corpora and
    # on the coprime, cone and semi-quasihomogeneous sweeps, over Q, F_5
    # and F_2147483647. Finite and infinite answers both occur, and some
    # ideals are left to the ladder.
    cases = [(I.gens, I.ring) for I in [*_profile_corpus(), *_witness_corpus(), *_catalog_colength_ideals()]]
    cases += [(gens, I.ring) for I in _profile_corpus() for gens in _redundant_presentations(I)]
    rng = random.Random(2022)
    cases += [_coprime_lead_ideal(rng)[::-1] for _ in range(40)]
    rng = random.Random(0)
    kinds = ("random", "random", "tangent", "infinity", "scaled", "component")
    cases += [(_cone_pair(rng, kinds[n % len(kinds)], sb._CONE_PRIME), XY) for n in range(60)]
    cases += [(gens, ring) for ring, gens in _semi_quasihomogeneous_sweep()]
    seen = dict.fromkeys(["finite", "infinite", "ladder"], 0)
    for gens, ring in cases:
        nv = len(ring)
        for p in (None, 5, 2147483647):
            rows = _rows(gens, ring, p)
            if not rows or sb._axis_witness(sb._pure_powers(rows), nv) is not None:
                continue
            value = _initial_colength(rows, nv, p)
            if value is not None:
                assert value == sb._sealed_colength(rows, nv, p), (p, [str(g) for g in gens])
            seen["ladder" if value is None else "infinite" if value is INFINITE else "finite"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("field", [sb.RATIONAL, prime_field(2147483647)])
def test_coprime_leads_reach_the_exponent_limit_without_a_hang(field, profile_runs):
    # (x^2 + z^30000, y^2) has no axis witness, and its Bezout bound
    # 30000^3 lies far past the last degree a key can hold. Its leads x^2
    # and y^2 are coprime, so its initial forms are a regular sequence of
    # two forms in three variables, and colength reads it infinite with no
    # ladder run. The ladder would climb without a reduction to
    # ResourceLimitError at degree 2^15, which ran past 20 s built as rows.
    I = ideal(XYZ, "x^2 + z^30000", "y^2")
    assert colength(I, field) is INFINITE
    assert profile_runs == []


@pytest.mark.parametrize("field", [sb.RATIONAL, prime_field(2147483647)])
def test_milnor_number_read_off_coprime_leads(field, profile_runs):
    # The Jacobian ideal of x^5 + y^4 + z^3 + x^2*y^2*z, (5*x^4 + 2*x*y^2*z,
    # 4*y^3 + 2*x^2*y*z, 3*z^2 + x^2*y^2), has the leads x^4, y^3 and z^2:
    # mu = 4*3*2 = 24, with no ladder run
    g = parse_poly("x^5 + y^4 + z^3 + x^2*y^2*z", XYZ)
    assert milnor.hypersurface_milnor(g, field=field) == 24
    assert profile_runs == []


#: Isolated germs x^a + y^b + z^c plus two terms of weighted degree above
#: 1, with (a, b, c): their Jacobian ideals have no coprime leads in total
#: degree, so the ladder used to build rows for them. The first three have
#: coprime leads under another order of the variables.
_WEIGHTED_GERMS = (
    ("-2*x^2 + 3*y^4 - 3*z^5 - 2*y^4*z^4 + x^2*y*z^2", (2, 4, 5)),
    ("3*x^4 + y^3 - 3*z^4 + y^3*z^4 - 2*x^2*y*z", (4, 3, 4)),
    ("2*x^6 - 3*y^3 + 2*z^6 + 2*x^4*y*z + x^6*y^3*z", (6, 3, 6)),
    ("x^4 - y^5 - 3*z^6 - x*y^5*z + 3*x^2*y*z^2", (4, 5, 6)),
    ("-x^5 + y^5 - z^2 - 2*y*z^2 - x^5*y^4*z^2", (5, 5, 2)),
    ("x^2 + 3*y^2 - 2*z^6 + 3*y^2*z^4 - x^2*y^2*z", (2, 2, 6)),
    ("-2*x^3 + 2*y^6 - z^2 - 2*x*y^5*z^2 + 2*x^2*y*z", (3, 6, 2)),
    ("x^3 + 3*y^6 - z^5 + y^6*z^2 - 2*x*y*z^3", (3, 6, 5)),
    ("3*x^4 - 2*y^2 - 3*z^6 + x*y^2*z^2 + 3*x^2*y^2", (4, 2, 6)),
    ("2*x^3 - 2*y^4 - 2*z^6 - 2*x*y^3*z^5 + x^3*z", (3, 4, 6)),
    ("2*x^5 + 3*y^2 - 3*z^3 + 2*x*y*z - 2*x^5*y^2", (5, 2, 3)),
    ("-3*x^2 - 3*y^5 + z^3 + 2*y*z^3 - 3*x*y^2*z^3", (2, 5, 3)),
    ("-2*x^2 + 2*y^4 - 3*z^2 - 2*y*z^2 + 3*x*y*z^2", (2, 4, 2)),
    ("3*x^5 - 3*y^5 - z^2 + x*z^2 + 3*x^5*y*z^2", (5, 5, 2)),
)


@pytest.mark.parametrize("field", [sb.RATIONAL, prime_field(2147483647)])
def test_milnor_number_read_off_weighted_initial_forms(field, profile_runs):
    # Arnold's theorem: a semi-quasihomogeneous germ of weights 1/a, 1/b,
    # 1/c has mu = (a-1)(b-1)(c-1). Its Jacobian ideal's weighted initial
    # forms are the pure powers x^(a-1), y^(b-1), z^(c-1), and colength
    # reads mu off them with no ladder run.
    for text, (a, b, c) in _WEIGHTED_GERMS:
        g = parse_poly(text, XYZ)
        rows = _rows([g.partial(v) for v in XYZ], XYZ, field)
        assert not sb._initial_forms(rows, 3)[1], text
        assert milnor.hypersurface_milnor(g, field=field) == (a - 1) * (b - 1) * (c - 1), text
    assert profile_runs == []


def test_colength_leaves_no_reference_cycle():
    # an elimination is freed by reference counting alone: its nested
    # functions hold no cycle that would keep it alive until a collection
    D4 = multiple_point_ideal(resolve_row("I").germ, 4)
    gc.collect()
    gc.disable()
    try:
        for field in (sb.RATIONAL, prime_field(5), prime_field(2147483647)):
            assert colength(D4, field) == 24
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def _assert_witness_sound(I):
    """When the axis witness names x_i, every generator vanishes on the
    x_i-axis and rational Mora agrees that the colength is infinite.
    Returns whether a witness was found."""
    keys = [g.with_ring(I.ring).nums for g in I.gens]
    i = sb._axis_witness(sb._pure_powers(keys), len(I.ring))
    if i is None:
        return False
    off_axis = {v: Polynomial.zero(I.ring) for j, v in enumerate(I.ring) if j != i}
    assert all(substitute(g, off_axis).is_zero for g in I.gens), (i, str(I.gens))
    try:
        lms = leading_monomials(I, max_steps=500)
    except ResourceLimitError:
        # rational Mora can swell even on three small generators; then
        # the truncated dimensions, which must never settle, stand in
        assert isinstance(brute_colength(I.gens, I.ring, cap=6), tuple), str(I.gens)
    else:
        assert staircase(lms, len(I.ring)) is INFINITE, str(I.gens)
    assert colength(I) is INFINITE
    return True


def test_axis_witness_is_sound_on_the_profile_corpus():
    found = [_assert_witness_sound(I) for I in _profile_corpus()]
    assert 5 <= sum(found) < len(found)


@st.composite
def sparse_ideals(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    ring = ("x", "y", "z")[: draw(st.integers(1, 3))]
    count = draw(st.integers(1, 3))
    return IdealPresentation(ring, tuple(random_poly(rng, ring, 4, 3) for _ in range(count)))


@settings(max_examples=60, deadline=None)
@given(sparse_ideals())
def test_axis_witness_is_sound_on_random_ideals(I):
    _assert_witness_sound(I)


def test_bad_prime_changes_only_the_prime_field_answer():
    # over F_3 the quadratic part degenerates to x^2 and the colength grows
    # to 5; over Q no prime is consulted, so no prime can be bad there
    I = ideal(XY, "x^2 + 3*y^2 + y^3", "x*y")
    assert colength(I, field=prime_field(3)) == 5
    assert colength(I) == 4
    p = 2147483647
    J = ideal(XY, f"x^2 + {p}*y^2 + y^3", "x*y")
    assert colength(J) == 4
    assert colength(J, field=prime_field(p)) == 5
    # a prime dividing a denominator is an error only over its own field
    K = ideal(XY, "x^2", "1/3*y^3")
    assert colength(K) == 6
    with pytest.raises(BadPrimeError):
        colength(K, field=prime_field(3))


def test_colength_past_the_ladder(profile_runs):
    # (x^45, y^2) seals at degree 46: one elimination, read to degree 46.
    # colength reads the same 90 off the coprime leads, with no ladder run.
    I = ideal(XY, "x^45", "y^2")
    for p in (None, 32003):
        profile_runs.clear()
        assert colength(I, field=sb.RATIONAL if p is None else prime_field(p)) == 90
        assert profile_runs == []
        assert sb._sealed_colength(_rows(I.gens, XY, p), 2, p) == 90
        assert [len(steps) for steps in profile_runs] == [47]


def _witness_corpus():
    """Sparse random ideals drawn like sparse_ideals, many with a witness."""
    rng = random.Random(59)
    cases = []
    for _ in range(30):
        ring = XYZ[: rng.randint(1, 3)]
        gens = tuple(random_poly(rng, ring, 4, 3) for _ in range(rng.randint(1, 3)))
        cases.append(IdealPresentation(ring, gens))
    return cases


def test_rational_colength_consults_no_prime(monkeypatch):
    # seal, witness and Bezout stop all run without reducing anything mod
    # p; of the last two cases one seals past degree 32, and the other is
    # infinite along a line that is no coordinate axis
    g = generic_linear_change(ideal(XYZ, "y^3 + z^3"), 1).gens[0]
    jacobian = IdealPresentation(XYZ, tuple(g.partial(v) for v in XYZ))
    cases = list(_profile_corpus()) + _witness_corpus() + [ideal(XY, "x^45", "y^2"), jacobian]
    want = [colength(I) for I in cases]
    assert want[-2:] == [90, INFINITE]

    def no_prime(c, p):
        raise AssertionError(f"rational colength reduced {c} mod {p}")

    monkeypatch.setattr(sb, "_residue", no_prime)
    assert [colength(I) for I in cases] == want


def _bezout_bound(I):
    """d^n for I as colength hands it to the ladder: after
    eliminate_linear_generators, d the largest total degree of a
    generator and n the number of variables left."""
    J = eliminate_linear_generators(I)[0]
    return max((g.degree() for g in J.gens), default=0) ** len(J.ring)


def test_finite_colengths_are_within_bezout():
    # u <= d^n, the bound the ladder's Bezout stop rests on, for every
    # finite colength of the corpora and of the acceptance and fast rows'
    # stage ideals; u is checked against a Mora staircase wherever Mora
    # finishes
    ideals = [*_profile_corpus(), *_witness_corpus(), *_catalog_colength_ideals(ACCEPTANCE_ROWS),
              *_catalog_colength_ideals()]
    finite = staircases = 0
    for I in ideals:
        u = colength(I)
        if u is INFINITE:
            continue
        finite += 1
        assert u <= _bezout_bound(I), str(I.gens)
        try:
            lms = leading_monomials(I, max_steps=2000)
        except ResourceLimitError:
            continue
        staircases += 1
        assert staircase(lms, len(I.ring)) == u, str(I.gens)
    assert finite >= 100 and staircases >= 100


def _nonisolated_jacobians():
    """Jacobian ideals of germs singular along a line that is no coordinate
    axis: the honesty-guard germs, and seeded random germs in (y, z)^2,
    singular along the x-axis, each after a generic linear change."""
    texts = ["y^3 + z^3", "y^2*z + z^3", "(x*y - z^2)^2", "x*y*z"]
    germs = [generic_linear_change(ideal(XYZ, t), seed).gens[0] for t in texts for seed in (1, 2)]
    rng = random.Random(61)
    y, z = (Polynomial.variable(v, XYZ) for v in ("y", "z"))
    for seed in range(1, 13):
        parts = [random_poly(rng, XYZ, 1, 3) for _ in range(3)]
        f = y * y * parts[0] + y * z * parts[1] + z * z * parts[2]
        germs.append(generic_linear_change(IdealPresentation(XYZ, (f,)), seed).gens[0])
    return [IdealPresentation(XYZ, tuple(g.partial(v) for v in XYZ)) for g in germs]


def test_bezout_infinite_agrees_with_mora():
    # no axis witness is left after elimination, so INFINITE comes from
    # the ladder's Bezout stop; Mora's staircase agrees wherever it finishes
    finished = 0
    for I in _nonisolated_jacobians():
        J = eliminate_linear_generators(I)[0]
        keys = [g.nums for g in J.gens]
        assert sb._axis_witness(sb._pure_powers(keys), len(J.ring)) is None, str(I.gens)
        assert colength(I) is INFINITE, str(I.gens)
        assert colength(I, field=prime_field(32003)) is INFINITE, str(I.gens)
        try:
            lms = leading_monomials(I, max_steps=20000)
        except ResourceLimitError:
            continue
        finished += 1
        assert staircase(lms, len(I.ring)) is INFINITE, str(I.gens)
    assert finished >= 16


def test_former_mora_inputs_need_no_mora():
    # the inputs on which colength used to fall back to Mora: infinite
    # Jacobians without an axis witness, (x^45, y^2) past the old top of
    # the ladder, and the step-budget ideal
    for I in _nonisolated_jacobians()[:8]:
        assert colength(I, max_steps=20000) is INFINITE
    assert colength(ideal(XY, "x^45", "y^2")) == 90
    assert colength(ideal(XY, "x^45", "y^2"), field=prime_field(32003)) == 90
    J = generic_linear_change(ideal(XYZ, "x^2*y + y^4 + z^5", "x*y^3 - z^4"), 1)
    assert colength(J) is INFINITE
    with pytest.raises(ResourceLimitError):
        colength(J, max_steps=5)


# -- invariance properties ---------------------------------------------------


def test_colength_invariant_under_generator_order():
    rng = random.Random(31)
    for _ in range(60):
        I, _ = random_zero_dim_ideal(rng)
        base = colength(I)
        gens = list(I.gens)
        rng.shuffle(gens)
        assert colength(IdealPresentation(I.ring, tuple(gens))) == base


def test_colength_invariant_under_ordering_choice():
    rng = random.Random(37)
    for _ in range(60):
        I, _ = random_zero_dim_ideal(rng)
        lms = leading_monomials(I, negdeglex)
        assert staircase(lms, len(I.ring)) == colength(I)


def test_colength_invariant_under_linear_change():
    rng = random.Random(41)
    for _ in range(40):
        I, _ = random_zero_dim_ideal(rng, nvars=2)
        base = colength(I)
        seed = rng.randint(1, 10**6)
        assert colength(generic_linear_change(I, seed)) == base


def test_generic_linear_change_seed_zero_is_identity():
    I = ideal(XY, "x^2 + y^3", "x*y")
    assert generic_linear_change(I, 0) is I
    J1 = generic_linear_change(I, 5)
    J2 = generic_linear_change(I, 5)
    assert J1.gens == J2.gens
    assert J1.gens != I.gens


# -- transversal elimination --------------------------------------------------


def test_eliminate_single_linear_generator():
    I = ideal(XY, "x + y^2", "y^3")
    J, audit = eliminate_linear_generators(I)
    assert J.ring == ("y",)
    assert audit == ["x"]
    assert colength(I) == colength(J) == 3


def test_eliminate_cascades():
    I = ideal(("x", "y", "z"), "x + y", "y + z^2", "z^3")
    J, audit = eliminate_linear_generators(I)
    assert J.ring == ("z",)
    assert len(audit) == 2
    assert colength(I) == 3


def test_eliminate_scaled_variable():
    I = ideal(XY, "2*x", "y^4 + x*y")
    J, audit = eliminate_linear_generators(I)
    assert J.ring == ("y",)
    assert J.gens[0] == parse_poly("y^4", ("y",))
    assert colength(I) == 4


def test_eliminate_leaves_generators_free_of_the_variable_alone():
    # z is split off; generators free of z are neither split nor rebuilt,
    # and over the prefix ring (x, y) they keep their very term dicts
    I = ideal(XYZ, "x^3 + y^2", "z - x*y", "y^5 + x*y^3", "z^2 + x^4")
    J, audit = eliminate_linear_generators(I)
    assert audit == ["z"] and J.ring == XY
    assert J.gens[0].nums is I.gens[0].nums and J.gens[1].nums is I.gens[2].nums
    assert J.gens == (P("x^3 + y^2"), P("y^5 + x*y^3"), P("x^2*y^2 + x^4"))


def test_generator_linear_only_mod_p_is_split_off():
    # y + 5*y^2 is y over F_5: the residues are taken first, so y is split
    # off there, and the colength is settled within a small budget; over Q
    # y is not transversal, and the answer is the same
    I = ideal(XYZ, "y + 5*y^2", "(x + z)^2*(x^3 + z^4)", "(x + z)^3")
    J, audit = eliminate_linear_generators(I, prime_field(5))
    assert audit == ["y"] and J.ring == ("x", "z")
    assert all(0 <= c < 5 for g in J.gens for c in g.nums.values())
    assert colength(I, field=prime_field(5), max_steps=500) == INFINITE
    assert eliminate_linear_generators(I)[1] == []
    assert colength(I) == INFINITE
    # a prime dividing a denominator still comes first
    with pytest.raises(BadPrimeError):
        eliminate_linear_generators(ideal(XY, "x + 1/5*y^2", "y^3"), prime_field(5))
    K = ideal(("y", "z"), "-30*y^5 - 2*y", "z^2 + y*z")
    J, audit = eliminate_linear_generators(K, prime_field(5))
    assert audit == ["y"] and J.gens == (parse_poly("z^2", ("z",)),)


def test_eliminate_ignores_nonconstant_coefficient():
    # y*x + y^2 is not transversal in x: the coefficient of x vanishes at 0
    I = ideal(XY, "y*x + y^2")
    J, audit = eliminate_linear_generators(I)
    assert audit == []
    assert J.ring == XY


def test_eliminate_preserves_colength_randomised():
    rng = random.Random(43)
    for _ in range(40):
        I, _ = random_zero_dim_ideal(rng, nvars=2)
        extra = random_poly(rng, ("x", "y"), max_deg=3, max_terms=2)
        lin = parse_poly("w", ("x", "y", "w")) + extra * Fraction(rng.randint(1, 3))
        wide = IdealPresentation(
            ("x", "y", "w"),
            tuple(g.with_ring(("x", "y", "w")) for g in I.gens) + (lin,),
        )
        J, audit = eliminate_linear_generators(wide)
        assert audit
        direct = colength(wide)
        assert direct == colength(J)
        if direct is not INFINITE and direct <= 30:
            assert brute_colength(wide.gens, wide.ring, cap=2 * direct + 4) == direct


def _assert_same_elimination(I):
    """The integer Horner elimination gives the rational substitution's
    presentation term for term: ring, audit, and every generator."""
    J, audit = eliminate_linear_generators(I)
    K, want = substitute_elimination(I)
    assert (J.ring, audit) == (K.ring, want)
    assert len(J.gens) == len(K.gens)
    for g, h in zip(J.gens, K.gens):
        assert g.ring == h.ring and g.terms == h.terms, (str(g), str(h))
        assert all(type(c) is Fraction for c in g.terms.values())
    return J, audit


@pytest.mark.parametrize("moduli", [DEFAULT_MODULI, ALTERNATE_MODULI])
def test_elimination_matches_substitution_on_catalog_spaces(moduli):
    eliminated = 0
    for text in ACCEPTANCE_ROWS + FAST_ROWS + QUAD_ROWS:
        f = resolve_row(text, moduli=moduli).germ
        d4 = multiple_point_ideal(f, 4)
        for I in (
            prefix_ideal(d4, 2),
            prefix_ideal(d4, 3),
            d4,
            _restricted_ideal(f, 2, (2,)),
            _restricted_ideal(f, 3, (1, 2)),
        ):
            eliminated += len(_assert_same_elimination(I)[1])
    assert eliminated


def _assert_same_presentation(state, ring, fresh):
    """state, read over the first len(ring) variables of its ring, is the
    from-scratch elimination fresh = (presentation, audit): the same ring,
    audit order, generators and denominators."""
    J, audit = fresh
    K = state.presentation(len(ring))
    assert (K.ring, [state.ring[i] for i, _, _ in state.subs]) == (J.ring, audit)
    assert [(g.ring, g.nums, g.den) for g in K.gens] == [(g.ring, g.nums, g.den) for g in J.gens]


@pytest.mark.parametrize("field", [sb.RATIONAL, prime_field(2147483647)], ids=["rational", "fp"])
@pytest.mark.parametrize("moduli", [DEFAULT_MODULI, ALTERNATE_MODULI])
def test_elimination_extended_space_by_space_is_each_space_from_scratch(moduli, field):
    # invariant_tuple's one elimination per germ: D^2's generators, then a
    # copy extended by d3h1's two more, and the original by D^3's and
    # D^4's; every nonempty space reads what eliminating it alone gives
    spaces = 0
    for text in ACCEPTANCE_ROWS + QUAD_ROWS + SCALED_ROWS:
        f = resolve_row(text, moduli=moduli).germ
        d4 = multiple_point_ideal(f, 4)
        state = sb._Elimination(d4.ring, field)
        for k in (2, 3, 4):
            I = prefix_ideal(d4, k)
            if is_unit_ideal(I, field):
                break
            if k == 3:
                d3h1 = _restricted_ideal(f, 3, (1, 2))
                below = state.copy()
                below.extend(d3h1.gens[2:])
                _assert_same_presentation(below, d3h1.ring, eliminate_linear_generators(d3h1, field))
                spaces += 1
            state.extend(I.gens[2 * (k - 2):])
            _assert_same_presentation(state, I.ring, eliminate_linear_generators(I, field))
            spaces += 1
    assert spaces > len(ACCEPTANCE_ROWS + QUAD_ROWS + SCALED_ROWS)


def _elimination_corpus(count, seed):
    """Random rational ideals in four variables, built to reach every
    branch of the elimination: linear generators c*v + r with c = +-1 and
    non-unit c of both signs, r in later-eliminated variables (cascades),
    and constant multiples of earlier generators, so that the partner of
    an eliminated linear generator becomes zero."""
    ring = ("x", "y", "z", "w")
    rng = random.Random(seed)
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.random()
            if kind < 0.45:
                v = rng.choice(ring)
                rest = tuple(u for u in ring if u != v)
                c = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
                r = random_poly(rng, rest, max_deg=3, max_terms=3).with_ring(ring)
                gens.append(Polynomial.variable(v, ring) * c + r)
            elif kind < 0.6 and gens:
                gens.append(rng.choice(gens) * Fraction(rng.choice([-2, 3]), rng.choice([1, 7])))
            else:
                gens.append(random_poly(rng, ring, max_deg=4, max_terms=4))
        rng.shuffle(gens)
        yield IdealPresentation(ring, tuple(gens))


def test_elimination_matches_substitution_on_random_ideals():
    cascades = zeros = 0
    for I in _elimination_corpus(400, seed=20261):
        J, audit = _assert_same_elimination(I)
        cascades += len(audit) >= 2
        zeros += any(g.is_zero for g in J.gens)
    assert cascades >= 50 and zeros >= 20


def test_colength_survives_coefficient_swell():
    # Mixing dense high-degree pairs produces reductions whose rational
    # coefficients compound multiplicatively; the elimination route must
    # settle such inputs quickly and exactly.
    g1 = P("3*x*y^5 + 2/3*y^5 + x^4")
    g2 = P("2*x^8 - 3*x^4*y^3 + y^6")
    m1 = g1 + g2 * Fraction(2)
    m2 = g1 * Fraction(3) + g2 * Fraction(7)
    det = m1.partial("x") * m2.partial("y") - m1.partial("y") * m2.partial("x")
    I = IdealPresentation(XY, (m1, det))
    c = colength(I)
    assert c is not INFINITE
    assert brute_colength(I.gens, I.ring, cap=2 * c + 4) == c


# -- budgets and alternate fields ---------------------------------------------


def test_step_budget_raises():
    I = ideal(("x", "y", "z"), "x^4 + y^4 + z^4", "x*y*z + z^5", "x^3*y - z^4")
    with pytest.raises(ResourceLimitError):
        standard_basis(I, max_steps=5)
    # an axis witness settles an infinite colength without any row
    # reduction: J vanishes on the x-axis. After a linear change no axis
    # is left, and the budget is spent by the ladder's row reductions
    # (402 of them before its Bezout stop), over Q and over Z/p alike.
    J = ideal(("x", "y", "z"), "x^2*y + y^4 + z^5", "x*y^3 - z^4")
    assert colength(J) is INFINITE
    assert colength(J, max_steps=5) is INFINITE
    assert colength(J, field=prime_field(32003), max_steps=5) is INFINITE
    K = generic_linear_change(J, 1)
    for field in (sb.RATIONAL, prime_field(32003)):
        assert colength(K, field=field) is INFINITE
        with pytest.raises(ResourceLimitError):
            colength(K, field=field, max_steps=5)


def test_prime_field_agrees_on_good_prime():
    F = prime_field(32003)
    I = ideal(XY, "x^3", "y^2 + x^2*y")
    assert colength(I, field=F) == colength(I) == 6


#: sha256 of _standard_basis_lines(), recorded from the rational Mora
#: engine that the package carried before it became this test oracle.
STANDARD_BASIS_SHA256 = "dcd9596d8773a7d5f4e654269088086e3e72939c390eceb118cbb8ff5ca91e4d"


def _standard_basis_lines():
    """One line per ideal and ordering of the seeded corpora: the terms of
    every element of Mora's standard basis over Q, or the error's name."""
    for I in list(_profile_corpus()) + _witness_corpus():
        for key in (negdegrevlex, negdeglex):
            try:
                basis = standard_basis(I, key, max_steps=400)
            except ResourceLimitError as exc:
                yield type(exc).__name__
                continue
            yield repr([[(e, str(c)) for e, c in sorted(g.terms.items())] for g in basis.gens])


def test_standard_bases_match_pinned_digest():
    digest = hashlib.sha256("\n".join(_standard_basis_lines()).encode()).hexdigest()
    assert digest == STANDARD_BASIS_SHA256


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        prime_field(32001)


def test_prime_field_can_lie_on_bad_prime():
    # over F_2 the quadratic head of the first generator disappears and the
    # quotient becomes infinite dimensional
    F = prime_field(2)
    I = ideal(XY, "2*x^2 + y^3", "x*y")
    assert colength(I) == 5
    assert colength(I, field=F) is INFINITE
