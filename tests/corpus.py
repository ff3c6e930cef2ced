"""Seeded random inputs shared by the kernel test suites.

Plain random.Random generators rather than hypothesis strategies, so the
acceptance suite can replay the exact same cases with its own seeds and
case counts. Sizes are chosen to keep rational row reduction in the
oracles comfortable: big colengths only appear in two variables.
"""

import random
from fractions import Fraction

from singchi import milnor
from singchi.multiple_points import (
    _restricted_ideal,
    invariant_tuple,
    multiple_point_ideal,
)
from singchi.poly import Polynomial, _exponents, determinant, substitute
from singchi.standard_basis import (
    DEFAULT_MAX_STEPS,
    RATIONAL,
    IdealPresentation,
    eliminate_linear_generators,
)


def exponent_dict(nums, n):
    """nums, a dict keyed by the package's monomial keys (a Polynomial's
    nums, a row of the colength elimination), keyed by exponent tuples in
    n variables instead: the one place the tests read a key's exponents."""
    return {_exponents(m, n): c for m, c in nums.items()}


def polar_chain(I, seed=1, field=RATIONAL, max_steps=DEFAULT_MAX_STEPS):
    """(mu, stages) of the polar chain on I's simplified presentation
    mixed by seed, or None when a stage degenerates. icis_milnor sends a
    zero-dimensional I down the points route, and a curve down the
    section route, instead; this runs the chain on it too, so the two can
    be compared."""
    ring, gens = simplified(I, field)
    return milnor._polar_mu(gens, ring, seed, field, max_steps)


def simplified(I, field=RATIONAL):
    """(ring, gens) of I as icis_milnor routes it: its transversal linear
    generators split off and zero ones dropped (NotICISError for more
    generators than variables)."""
    return milnor._generators(eliminate_linear_generators(I, field)[0])


def prefix_ideal(I, k):
    """D^k from a deeper D^K: the generators over the prefixes up to k
    involve only z_1..z_k, so they are the first 2(k-1) of D^K's, over
    the first variables of its ring."""
    deeper = len(I.gens) // 2 + 1
    ring = I.ring[: len(I.ring) - (deeper - k)]
    return IdealPresentation(ring, tuple(g.with_ring(ring) for g in I.gens[: 2 * (k - 1)]))


def invariant_spaces(germ):
    """The spaces invariant_tuple takes a Milnor number of, by the names
    of InvariantTuple.routes."""
    d4 = multiple_point_ideal(germ, 4)
    return {
        "d2": prefix_ideal(d4, 2),
        "d2h": _restricted_ideal(germ, 2, (2,)),
        "d3": prefix_ideal(d4, 3),
        "d3h1": _restricted_ideal(germ, 3, (1, 2)),
    }


def unchained_spaces(germ, seed=1):
    """The spaces whose Milnor number invariant_tuple(germ, seed), which
    this runs, takes without the polar chain: on the points route (a
    zero-dimensional space) or the section route (a curve). Tests run the
    chain on them too, so that its ideals stay checked."""
    spaces = invariant_spaces(germ)
    routes = invariant_tuple(germ, seed=seed).routes
    return [spaces[name] for name, route in routes if route in ("points", "section")]


def random_coeff(rng):
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def random_poly(rng, ring, max_deg=3, max_terms=3, min_deg=1):
    """Random sparse polynomial with small exact coefficients."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            d = rng.randint(min_deg, max_deg)
            exps = {}
            for v in rng.choices(ring, k=d):
                exps[v] = exps.get(v, 0) + 1
            mono = tuple(exps.get(v, 0) for v in ring)
            terms[mono] = terms.get(mono, Fraction(0)) + random_coeff(rng)
        p = Polynomial(ring, terms)
        if not p.is_zero:
            return p


def random_zero_dim_ideal(rng, nvars=None):
    """An ideal of guaranteed finite colength: pure powers plus noise.

    Returns (presentation, bound) where bound is the product of the pure
    power exponents, an upper bound for the colength.
    """
    if nvars is None:
        nvars = rng.choice([1, 2, 2, 3])
    ring = ("x", "y", "z")[:nvars]
    cap = {1: 9, 2: 6, 3: 3}[nvars]
    gens = []
    bound = 1
    for v in ring:
        e = rng.randint(1, cap)
        bound *= e
        p = Polynomial(ring, {tuple(e if w == v else 0 for w in ring): Fraction(1)})
        if rng.random() < 0.5:
            # perturb strictly above degree e so the pure power survives as
            # the lowest-order term and finiteness stays guaranteed
            p = p + random_poly(rng, ring, max_deg=e + 2, max_terms=2, min_deg=e + 1)
        gens.append(p)
    for _ in range(rng.randint(0, 2)):
        gens.append(random_poly(rng, ring, max_deg=cap, max_terms=2))
    return IdealPresentation(ring, tuple(gens)), bound


def random_curve(rng, nvars):
    """nvars - 1 generators in nvars variables, the last one t:
    x_i^e + c*t^m for each other variable x_i, plus noise of order above
    e. Their leading forms at t = 0 are pure powers, so the section by
    t = 0 is finite. That the curve is an ICIS is not built in. In four
    variables the degrees stay lower, which keeps the colengths small."""
    ring = ("x", "y", "z", "w")[:nvars]
    t = ring[-1]
    e_top, top = {3: (3, 5), 4: (2, 4)}[nvars]
    gens = []
    for v in ring[:-1]:
        e = rng.randint(2, e_top)
        p = Polynomial(ring, {tuple(e if w == v else 0 for w in ring): Fraction(1)})
        p = p + Polynomial(
            ring, {tuple(rng.randint(e, top) if w == t else 0 for w in ring): random_coeff(rng)}
        )
        if rng.random() < 0.7:
            p = p + random_poly(rng, ring, max_deg=min(e + 2, top), max_terms=2, min_deg=e + 1)
        gens.append(p)
    return IdealPresentation(ring, tuple(gens))


def random_monomial_ideal(rng, nvars=None):
    """Monomial generators, finite colength not guaranteed."""
    if nvars is None:
        nvars = rng.choice([1, 2, 2, 3])
    ring = ("x", "y", "z")[:nvars]
    gens = []
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(1, 5)
        exps = {}
        for v in rng.choices(ring, k=d):
            exps[v] = exps.get(v, 0) + 1
        gens.append(Polynomial(ring, {tuple(exps.get(v, 0) for v in ring): Fraction(1)}))
    return IdealPresentation(ring, tuple(gens))


def generic_linear_change(I, seed):
    """I after a seeded random invertible linear change of coordinates,
    with small random rational entries a/b, b in {1, 2}.

    Seed 0 is the identity, by convention.
    """
    if seed == 0 or not I.ring:
        return I
    rng = random.Random(seed)
    n = len(I.ring)
    while True:
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)
        ]
        if not determinant([[Polynomial.constant(c, ()) for c in row] for row in rows]).is_zero:
            break
    xs = [Polynomial.variable(w, I.ring) for w in I.ring]
    images = {}
    for var, row in zip(I.ring, rows):
        value = Polynomial.zero(I.ring)
        for x, a in zip(xs, row):
            value = value + x * a
        images[var] = value
    gens = tuple(substitute(g.with_ring(I.ring), images).with_ring(I.ring) for g in I.gens)
    return IdealPresentation(I.ring, gens)
