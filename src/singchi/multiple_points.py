"""Multiple point spaces of corank one map germs.

A germ (C^n, 0) -> (C^(n+1), 0) of corank one is taken in the normal form

    f(x_1, .., x_{n-1}, z) = (x_1, .., x_{n-1}, p(x, z), q(x, z))

with p, q vanishing at the origin to second order in z. Its k-th multiple
point space lives in the source coordinates together with k copies
z_1, .., z_k of the distinguished variable, cut out by the divided
differences of p and q over growing node prefixes (Marar and Mond,
"Multiple point schemes for corank 1 maps", J. London Math. Soc., 1989).
Writing g = sum_m c_m(x) z^m, the generator over z_1..z_j is
sum_m c_m(x) h_(m-j+1)(z_1, .., z_j), with h_d the complete homogeneous
symmetric polynomial; it involves z_1..z_j only, so D^(k-1) is a
generator prefix of D^k. Identifying nodes according to a partition of k
gives the spaces that stratify how sheets collide; the identified
generators are confluent divided differences, the same h_d over the nodes
taken as a multiset, which is the same thing as substituting repeated
node variables into the distinct ones.

The headline invariants for n = 3 are collected by invariant_tuple: Milnor
numbers of the double and triple point spaces and of their partition
slices, emptiness indicators, and the quadruple point count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    BadParamsError,
    NotCorankOneError,
    NotNormalFormError,
    QuadrupleOrbitError,
    SingchiError,
    UnknownVariableError,
)
from .milnor import MilnorResult, _split_milnor, icis_milnor, point_count
from .poly import _BITS, Polynomial, _check_ring, divided_difference, parse_poly
from .standard_basis import (
    DEFAULT_MAX_STEPS,
    IdealPresentation,
    RATIONAL,
    _Elimination,
)


@dataclass(frozen=True)
class MapGerm:
    """A corank one candidate in normal form coordinates.

    source_vars lists the source coordinates with the distinguished
    variable last; components has length len(source_vars) + 1.
    """

    source_vars: tuple
    components: tuple

    @property
    def dim(self) -> int:
        return len(self.source_vars)

    @property
    def hyperplane_part(self) -> Polynomial:
        return self.components[-2]

    @property
    def deep_part(self) -> Polynomial:
        return self.components[-1]


def map_germ(source_vars, component_texts) -> MapGerm:
    source_vars = tuple(source_vars)
    comps = tuple(
        c if isinstance(c, Polynomial) else parse_poly(c, source_vars)
        for c in component_texts
    )
    return MapGerm(source_vars, comps)


def validate_corank1(f: MapGerm) -> None:
    """Check the normal form outlined in the module docstring."""
    n = f.dim
    if n < 2:
        raise NotNormalFormError("need at least two source variables")
    if len(f.components) != n + 1:
        raise NotNormalFormError(
            f"expected {n + 1} components for a map from {n}-space, got {len(f.components)}"
        )
    _check_ring(f.source_vars)
    for i, v in enumerate(f.source_vars[:-1]):
        c = f.components[i]
        # the coordinate v is the one term v, over whatever ring c has
        if not (c.den == 1 and v in c.ring and c.nums == {1 << _BITS * c.ring.index(v): 1}):
            raise NotNormalFormError(f"component {i} must be the coordinate {v!r}, got {c}")
    z = f.source_vars[-1]
    for g in (f.hyperplane_part, f.deep_part):
        if 0 in g.nums:
            raise NotNormalFormError(f"component {g} does not vanish at the origin")
    for g in (f.hyperplane_part, f.deep_part):
        if z not in g.ring:
            raise UnknownVariableError(f"variable {z!r} not in ring {g.ring}")
        if 1 << _BITS * g.ring.index(z) in g.nums:
            raise NotCorankOneError(
                f"component {g} is regular in {z!r} at the origin; the germ has corank 0"
            )


def _node_names(f: MapGerm, k: int) -> tuple:
    z = f.source_vars[-1]
    names = tuple(f"{z}{i}" for i in range(1, k + 1))
    clash = set(names) & set(f.source_vars)
    if clash:
        raise BadParamsError(f"node names {sorted(clash)} collide with source variables")
    return names


def _ideal(f: MapGerm, nodes, ring, below=()) -> IdealPresentation:
    """Divided differences of p and q over the prefixes nodes[:j], j >= 2;
    below holds those over the first len(below) // 2 prefixes, already
    built in ring."""
    z = f.source_vars[-1]
    gens = list(below)
    for j in range(2 + len(below) // 2, len(nodes) + 1):
        for g in (f.hyperplane_part, f.deep_part):
            gens.append(divided_difference(g, z, nodes[:j]).with_ring(ring))
    return IdealPresentation(ring, tuple(gens))


def multiple_point_ideal(f: MapGerm, k: int) -> IdealPresentation:
    """The k-th multiple point space ideal, k >= 2.

    Generators are the divided differences of the two nonlinear
    components over the node prefixes (z_1..z_j) for j = 2..k, giving
    2(k-1) generators in the x variables plus k node variables.
    """
    validate_corank1(f)
    if k < 2:
        raise BadParamsError("multiple point spaces need k >= 2")
    nodes = _node_names(f, k)
    return _ideal(f, nodes, f.source_vars[:-1] + nodes)


def _check_partition(partition, k) -> tuple:
    parts = tuple(sorted(int(m) for m in partition))
    if not parts or parts[0] < 1 or sum(parts) != k:
        raise BadParamsError(f"{partition} is not a partition of {k}")
    return parts


def _restricted_ideal(f: MapGerm, k: int, parts: tuple) -> IdealPresentation:
    nodes = _node_names(f, k)
    identified = []
    survivors = []
    pos = 0
    for size in parts:
        first = nodes[pos]
        survivors.append(first)
        identified.extend([first] * size)
        pos += size
    return _ideal(f, tuple(identified), f.source_vars[:-1] + tuple(survivors))


def partition_restricted_ideal(f: MapGerm, k: int, partition) -> IdealPresentation:
    """The k-th multiple point space with nodes identified by blocks.

    The parts are sorted ascending and then name consecutive blocks of
    nodes; within a block every node is identified with the block's first
    one. Generators are the same divided difference prefixes as for the
    full space, now confluent in the repeated nodes. Sorting pins down one
    representative; any other block layout differs only by renaming the
    surviving variables.
    """
    validate_corank1(f)
    if k < 2:
        raise BadParamsError("multiple point spaces need k >= 2")
    return _restricted_ideal(f, k, _check_partition(partition, k))


@dataclass(frozen=True)
class InvariantTuple:
    """The n = 3 multiple point invariants feeding the Euler formulas."""

    mu_d2: int
    mu_d2h: int
    mu_d3: int
    mu_d3h1: int
    d2_nonempty: bool
    d3_nonempty: bool
    d4_nonempty: bool
    quad_points: int
    routes: tuple = ()  # ((space, route), ...) audit of how each mu was obtained

    def as_dict(self) -> dict:
        return {
            "mu_d2": self.mu_d2,
            "mu_d2h": self.mu_d2h,
            "mu_d3": self.mu_d3,
            "mu_d3h1": self.mu_d3h1,
            "d2_nonempty": self.d2_nonempty,
            "d3_nonempty": self.d3_nonempty,
            "d4_nonempty": self.d4_nonempty,
            "quad_points": self.quad_points,
            "routes": {name: route for name, route in self.routes},
        }


def _first_empty(f: MapGerm, field) -> int:
    """The least k <= 4 for which D^k is the unit ideal over field, or 5.

    The constant term of g[z_1..z_j] is c_(j-1)(0), the coefficient of
    z^(j-1) in g, as h_(m-j+1) has one only for m = j - 1. So D^k is the
    unit ideal exactly when p or q has a pure power z^(j-1), 2 <= j <= k,
    with a nonzero coefficient, over prime_field(p) a nonzero residue (a
    coefficient whose denominator p divides is read as nonzero: it is a
    term of D^2's generators, whose unit test raises BadPrimeError first).
    validate_corank1 leaves no term z, so D^2 is never the unit ideal."""
    z = f.source_vars[-1]
    for k in (3, 4):
        for g in (f.hyperplane_part, f.deep_part):
            num = g.nums.get((k - 1) << _BITS * g.ring.index(z))
            if num and (field is RATIONAL or num // math.gcd(num, g.den) % field):
                return k
    return 5


def invariant_tuple(
    f: MapGerm,
    seed: int = 1,
    field=RATIONAL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> InvariantTuple:
    """All multiple point invariants of a germ (C^3, 0) -> (C^4, 0).

    Which spaces are empty is read off p and q first (_first_empty), and
    no generator of an empty space is built: each gets what the unit ideal
    gets, the route "empty", mu 0, and no quadruple point. The deepest
    nonempty space among D^2, D^3, D^4 is built once, and the lower ones are
    its generator prefixes; d3h1, empty exactly when D^3 is, as it has the
    same constant terms, is D^2's generators and two more. So one
    elimination of linear generators serves them all, extended by each
    space's further generators in turn (eliminate_linear_generators says
    why each space gets what eliminating it alone gives). Each space's
    error keeps its class and is prefixed with the space's name.
    """
    validate_corank1(f)
    nodes = _node_names(f, 4)
    if f.dim != 3:
        raise BadParamsError(f"invariant tuple is defined for 3-dimensional sources, got {f.dim}")
    empty = _first_empty(f, field)
    deepest = min(empty - 1, 4)
    top = _ideal(f, nodes[:deepest], f.source_vars[:-1] + nodes[:deepest])
    # D^k has the first 2(k - 1) generators of top and the first 2 + k
    # variables of its ring. One elimination of linear generators runs in
    # top's ring and is extended space by space: D^2's, then a copy by
    # d3h1's two more generators, and the original by D^3's and D^4's;
    # d2h, no prefix of top, is eliminated on its own
    state = _Elimination(top.ring, field)

    def within(space: str, run, *args):
        try:
            return run(*args)
        except SingchiError as exc:
            raise type(exc)(f"{space}: {exc}") from exc

    def mu(elimination: _Elimination, gens, nvars: int) -> MilnorResult:
        elimination.extend(gens)
        return _split_milnor(elimination.presentation(nvars), seed, field, max_steps)

    def count(gens) -> int:
        state.extend(gens)
        return point_count(state.presentation(), field=field, max_steps=max_steps)

    r_d2 = within("double points", mu, state, top.gens[:2], 4)
    d2h = _restricted_ideal(f, 2, (2,))
    r_d2h = within("diagonal double points", icis_milnor, d2h, seed, field, max_steps)
    r_d3 = r_d3h1 = MilnorResult(0, "empty", (), seed)
    if empty > 3:
        below = state.copy()
        r_d3 = within("triple points", mu, state, top.gens[2:4], 5)
        d3h1 = _ideal(f, (nodes[0], nodes[1], nodes[1]), top.ring[:4], top.gens[:2])
        r_d3h1 = within("triple points with two nodes identified", mu, below, d3h1.gens[2:], 4)
    ordered_quads = 0
    if empty > 4:
        ordered_quads = within("quadruple points", count, top.gens[4:])
    # The quadruple point scheme carries a free action permuting the four
    # node coordinates, so the ordered count is 24 per actual point.
    if ordered_quads % 24 != 0:
        raise QuadrupleOrbitError(
            f"quadruple points: ordered count {ordered_quads} is not a multiple of 24"
        )
    return InvariantTuple(
        mu_d2=r_d2.mu,
        mu_d2h=r_d2h.mu,
        mu_d3=r_d3.mu,
        mu_d3h1=r_d3h1.mu,
        d2_nonempty=empty > 2,
        d3_nonempty=empty > 3,
        d4_nonempty=empty > 4,
        quad_points=ordered_quads // 24,
        routes=(
            ("d2", r_d2.route),
            ("d2h", r_d2h.route),
            ("d3", r_d3.route),
            ("d3h1", r_d3h1.route),
        ),
    )
