"""Milnor numbers of isolated singularities, by polar chains.

The hypersurface case is the colength of the Jacobian ideal. The complete
intersection case walks a chain: for a generic choice of generators
f_1, ..., f_m the alternating sum of the colengths

    c_i = dim O / ( (f_1..f_{i-1}) + (i x i minors of Jac(f_1..f_i)) )

computes the Milnor number. Genericity matters: the chain is only valid
when every truncated tuple (f_1..f_i) again has an isolated singularity,
which can fail for the generators as given but holds for a random
invertible recombination. We therefore mix generators with a seeded
random matrix and retry with fresh seeds when a stage degenerates.

Seed 0 means "no mixing" and disables retries; it exists so tests can
exhibit chains that genuinely need the recombination.
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
from .poly import Polynomial, determinant, jacobian
from .standard_basis import (
    DEFAULT_MAX_STEPS,
    INFINITE,
    IdealPresentation,
    RATIONAL,
    colength,
    eliminate_linear_generators,
    is_unit_ideal,
)

RETRY_ATTEMPTS = 5


@dataclass(frozen=True)
class MilnorResult:
    """Milnor number plus an audit of how it was obtained."""

    mu: int
    route: str  # "chain", "smooth", or "empty"
    stages: tuple  # stage colengths, empty unless route == "chain"
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
        raise NonIsolatedError(f"Jacobian ideal of {g} has infinite colength")
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
    intersection and is rejected.
    """
    if is_unit_ideal(I):
        return MilnorResult(0, "empty", (), seed)
    J, _ = eliminate_linear_generators(I)
    gens = tuple(g for g in J.gens if not g.is_zero)
    if not gens:
        return MilnorResult(0, "smooth", (), seed)
    if len(gens) > len(J.ring):
        raise NotICISError(
            f"{len(gens)} generators in {len(J.ring)} variables cannot present "
            "an isolated complete intersection"
        )
    # mixing leaves a lone generator as it is, so a retry would repeat the chain
    attempts = 1 if seed == 0 or len(gens) == 1 else RETRY_ATTEMPTS
    for attempt in range(attempts):
        attempt_seed = seed if attempt == 0 else seed + 1000003 * attempt
        mixed = _mix_generators(gens, J.ring, attempt_seed)
        stages = _chain(mixed, gens, J.ring, field, max_steps)
        if stages is None:
            continue
        mu = 0
        for c in stages:
            mu = c - mu
        if mu < 0:
            continue
        return MilnorResult(mu, "chain", stages, attempt_seed)
    raise NotICISError(
        "no generic recombination produced a valid polar chain; "
        "the singularity is probably not isolated or not a complete intersection"
    )


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
