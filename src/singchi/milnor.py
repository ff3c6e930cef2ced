"""Milnor numbers of isolated singularities, by colengths.

The hypersurface case is the colength of the Jacobian ideal. A complete
intersection takes one of five routes, named in its MilnorResult:

  * "empty": the ideal is the unit ideal, so the germ is empty; mu = 0;
  * "smooth": every generator is split off as a transversal linear one,
    so the germ is smooth; mu = 0;
  * "points": as many generators remain as variables, so the germ is a
    zero-dimensional complete intersection. Its Milnor fibre is
    `colength` points, as deformations of complete intersections are
    flat, so mu = colength - 1 (Looijenga, "Isolated singular points on
    complete intersections", LMS Lecture Notes 77, 1984);
  * "section": a curve X, cut by k >= 2 generators f in k + 1 variables.
    Let X_j be its section by the hyperplane {x_j = 0} of a coordinate.
    If X and X_j are both ICIS, then, with no genericity needed,

        mu(X) + mu(X_j) = dim O / (f, J(f, x_j))

    (Le, Funct. Anal. Appl. 8, 1974; Greuel, Math. Ann. 214, 1975), and
    J(f, x_j) is the one k x k minor M of Jac(f) in the other variables.
    The coordinates are tried last first, and the first with a finite
    section colength c_s = dim O/(f, x_j) is taken; c_p = dim O/(f, M).
    c_s is read off f restricted to x_j = 0, the terms that contain x_j
    dropped, over the other variables: what splitting the generator x_j
    off would leave.
    A finite c_s makes X a complete intersection of dimension 1 and X_j
    a point, an ICIS with mu = c_s - 1 (points route); a finite c_p
    puts Sing(X) inside V(f, M) = {0}, so X is an ICIS. Then
    mu = c_p - c_s + 1, with stages (c_s, c_p). Where no section is
    finite, or c_p is infinite, the curve takes the chain;
  * "chain": any other germ with fewer generators than variables. For a
    generic choice of generators f_1, ..., f_m the alternating sum of the
    colengths

        c_i = dim O / ( (f_1..f_{i-1}) + (i x i minors of Jac(f_1..f_i)) )

    computes the Milnor number (the Le-Greuel formula). Genericity
    matters: the chain is only valid when every truncated tuple
    (f_1..f_i) again has an isolated singularity, which can fail for the
    generators as given but holds for a generic invertible recombination.
    We therefore mix generators with a seeded random matrix, and a stage
    that degenerates raises NotICISError.

Seed 0 means "no mixing"; it exists so tests can exhibit chains that
genuinely need the recombination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    NonIsolatedError,
    NotAtOriginError,
    NotICISError,
    NotZeroDimensionalError,
)
from .poly import _BITS, _MASK, Polynomial, _reduced, determinant, jacobian
from .standard_basis import (
    DEFAULT_MAX_STEPS,
    INFINITE,
    IdealPresentation,
    RATIONAL,
    _split_colength,
    colength,
    eliminate_linear_generators,
    is_unit_ideal,
)

@dataclass(frozen=True)
class MilnorResult:
    """Milnor number plus an audit of how it was obtained."""

    mu: int
    route: str  # "chain", "section", "points", "smooth", or "empty"
    stages: tuple  # chain: the stage colengths; section: (c_s, c_p); points: (colength,); else ()
    seed: int


def hypersurface_milnor(
    g: Polynomial,
    ring=None,
    field=RATIONAL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> int:
    """Milnor number of a hypersurface germ: colength of the Jacobian ideal."""
    ring = tuple(ring) if ring is not None else g.ring
    g = g.with_ring(ring)
    if g.constant_term():
        raise NotAtOriginError("germ does not vanish at the origin")
    partials = [g.partial(v) for v in ring]
    mu = colength(IdealPresentation(ring, tuple(partials)), field=field, max_steps=max_steps)
    if mu is INFINITE:
        raise NonIsolatedError("Jacobian ideal of {} has infinite colength", g)
    return mu


def random_invertible_matrix(size: int, rng: random.Random):
    """Invertible integer matrix: rows of small random rationals a/b with
    b in {1, 2}, each row scaled by its denominator (1 or 2)."""
    while True:
        rows = []
        for _ in range(size):
            row = [(rng.randint(-9, 9), rng.randint(1, 2)) for _ in range(size)]
            scale = 2 if any(b == 2 and a % 2 for a, b in row) else 1
            rows.append([a * scale // b for a, b in row])
        if not determinant([[Polynomial.constant(c, ()) for c in row] for row in rows]).is_zero:
            return rows


def _mix_generators(gens, ring, seed):
    """A*gens for a seeded random invertible integer matrix A. Scaling a
    row of A scales one mixed generator, which changes no stage ideal of
    the chain."""
    if seed == 0 or len(gens) <= 1:
        return gens
    rng = random.Random(seed)
    rows = random_invertible_matrix(len(gens), rng)
    return tuple(sum((g * a for a, g in zip(row, gens)), Polynomial.zero(ring)) for row in rows)


def _minor_ideal(gens, ring, size):
    """All size x size minors of the Jacobian matrix of gens."""
    rows = jacobian(list(gens), ring)
    minors = []
    for cols in combinations(range(len(ring)), size):
        sub = [[rows[r][c] for c in cols] for r in range(size)]
        minors.append(determinant(sub))
    return minors


def _chain(mixed, gens, ring, field, max_steps):
    """Stage colengths (c_1, ..., c_m), or None if a stage degenerates.

    mixed = A*gens, A invertible. The last stage takes its minors from gens:
    each m x m minor of mixed is det(A) != 0 times the one of gens.
    """
    m = len(mixed)
    stages = []
    for i in range(1, m + 1):
        stage_gens = list(mixed[: i - 1]) + _minor_ideal(mixed[:i] if i < m else gens, ring, i)
        c = colength(
            IdealPresentation(ring, tuple(stage_gens)),
            field=field,
            max_steps=max_steps,
        )
        if c is INFINITE:
            return None
        stages.append(c)
    return tuple(stages)


def _polar_mu(gens, ring, seed, field, max_steps):
    """(mu, stages) of the polar chain on gens mixed by seed: mu is the
    alternating sum of the stage colengths. None if a stage degenerates."""
    stages = _chain(_mix_generators(gens, ring, seed), gens, ring, field, max_steps)
    if stages is None:
        return None
    mu = 0
    for c in stages:
        mu = c - mu
    return mu, stages


def _restricted(gens, ring, j):
    """The curve's section by {x_j = 0}, over the ring without x_j: each
    generator with the terms that contain x_j dropped. This is the
    presentation that splitting the generator x_j off leaves, as x_j = 0
    is then substituted."""
    at = _BITS * j
    out = ring[:j] + ring[j + 1:]
    section = (_reduced(ring, {m: a for m, a in g.nums.items() if not m >> at & _MASK}, g.den)
               for g in gens)
    return IdealPresentation(out, tuple(g.with_ring(out) for g in section))


def _section(gens, ring, field, max_steps):
    """(c_s, c_p) of a curve's first coordinate section of finite colength,
    last coordinate first (module docstring), or None where there is none
    or c_p is infinite."""
    for j in reversed(range(len(ring))):
        c_s = colength(_restricted(gens, ring, j), field=field, max_steps=max_steps)
        if c_s is INFINITE:
            continue
        M = determinant(jacobian(gens, ring[:j] + ring[j + 1:]))
        c_p = colength(IdealPresentation(ring, gens + (M,)), field=field, max_steps=max_steps)
        return None if c_p is INFINITE else (c_s, c_p)
    return None


def _generators(J: IdealPresentation):
    """(ring, gens) of J, a presentation with its transversal linear
    generators split off, once zero generators are dropped. More
    generators than variables raise."""
    gens = tuple(g for g in J.gens if not g.is_zero)
    if len(gens) > len(J.ring):
        raise NotICISError(
            f"{len(gens)} generators in {len(J.ring)} variables cannot present "
            "an isolated complete intersection"
        )
    return J.ring, gens


def icis_milnor(
    I: IdealPresentation,
    seed: int = 1,
    field=RATIONAL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> MilnorResult:
    """Milnor number of the isolated complete intersection germ V(I).

    The presentation is first simplified by splitting off transversal
    linear generators (which changes nothing up to isomorphism) and by
    dropping generators that become identically zero. A presentation with
    more remaining generators than variables cannot be a complete
    intersection and is rejected; one with as many takes the points
    route, a curve with two or more the section route where it certifies,
    and any other the polar chain (module docstring).
    """
    if is_unit_ideal(I, field):
        return MilnorResult(0, "empty", (), seed)
    return _split_milnor(eliminate_linear_generators(I, field)[0], seed, field, max_steps)


def _split_milnor(J: IdealPresentation, seed, field, max_steps) -> MilnorResult:
    """icis_milnor of J, a presentation as eliminate_linear_generators
    returns it over field, not the unit ideal: the routes after the
    simplification, with no generator scanned again."""
    ring, gens = _generators(J)
    if not gens:
        return MilnorResult(0, "smooth", (), seed)
    if len(gens) == len(ring):
        c = _split_colength(IdealPresentation(ring, gens), field, max_steps)
        if c is INFINITE:
            raise NotICISError(
                f"{len(gens)} generators in {len(ring)} variables with infinite "
                "colength do not present a zero-dimensional complete intersection"
            )
        return MilnorResult(c - 1, "points", (c,), seed)
    if len(gens) >= 2 and len(gens) + 1 == len(ring):
        stages = _section(gens, ring, field, max_steps)
        if stages is not None:
            c_s, c_p = stages
            return MilnorResult(c_p - c_s + 1, "section", stages, seed)
    polar = _polar_mu(gens, ring, seed, field, max_steps)
    if polar is None:
        raise NotICISError(
            f"the polar chain of the generators mixed by seed {seed} degenerates; "
            "the singularity is probably not isolated or not a complete "
            "intersection, or the mixing is not generic: try another seed"
        )
    mu, stages = polar
    return MilnorResult(mu, "chain", stages, seed)


def point_count(
    I: IdealPresentation,
    field=RATIONAL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> int:
    """Local intersection multiplicity of a zero-dimensional ideal.

    For the generically reduced ideals this package feeds it, this is the
    number of points a stable perturbation presents.
    """
    c = colength(I, field=field, max_steps=max_steps)
    if c is INFINITE:
        raise NotZeroDimensionalError("ideal does not cut out a finite scheme")
    return c
