"""Euler characteristics of image Milnor fibres and their strata.

The image of a stable perturbation of a finitely determined germ
(C^3, 0) -> (C^4, 0) is stratified by how many sheets cross and whether a
sheet is pinched: the smooth part, double, triple and quadruple crossing
loci, the pinch (cross-cap) points, and the crossings of a pinch curve
with a sheet. Every closed formula evaluated here expresses an Euler
characteristic of that picture, or of a closely related fibration, as
exact rational arithmetic in the multiple point invariants; all results
are forced to be integers and a non-integral value is reported as proof
that the input tuple is not realizable.

Three independent routes to chi of the image Milnor fibre are kept side
by side on purpose: a direct closed form, the disentanglement value plus
a correction, and a stratified sum over transverse Milnor fibres. Their
agreement is a strong end-to-end check of both the formulas and the
upstream colength engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadParamsError,
    NegativeMuImageError,
    NonIntegralChiError,
    SingchiError,
)
from .milnor import hypersurface_milnor
from .multiple_points import InvariantTuple
from .poly import Polynomial, resultant
from .standard_basis import DEFAULT_MAX_STEPS, RATIONAL


def _as_int(value: Fraction, formula: str) -> int:
    value = Fraction(value)
    if value.denominator != 1:
        raise NonIntegralChiError(
            f"{formula} evaluates to the non-integer {value}; "
            "the invariant tuple is not realizable by a map germ"
        )
    return int(value)


def _unpack(t: InvariantTuple):
    a = Fraction(t.mu_d2)
    b = Fraction(t.mu_d2h)
    c = Fraction(t.mu_d3)
    d = Fraction(t.mu_d3h1)
    beta2 = Fraction(1 if t.d2_nonempty else 0)
    beta3 = Fraction(1 if t.d3_nonempty else 0)
    q = Fraction(t.quad_points)
    return a, b, c, d, beta2, beta3, q


# ------------------------------------------------------------------ strata


@dataclass(frozen=True)
class StratumDatum:
    """One stratum's contribution to a stratified Euler comparison.

    chi_pair is chi of (closure, closure minus stratum) inside the ball;
    chi_tmf_reduced is the reduced Euler characteristic of the transverse
    Milnor fibre of the defining equation along the stratum. Top
    dimensional strata of a reduced equation contribute zero and may be
    omitted.
    """

    name: str
    chi_pair: int
    chi_tmf_reduced: int


def stratified_euler_difference(strata) -> int:
    """chi(general fibre) minus chi(special fibre) of a quasi-Milnor
    fibration, as the sum over strata of chi~(TMF) times the pair value."""
    return sum(s.chi_tmf_reduced * s.chi_pair for s in strata)


@dataclass(frozen=True)
class StratumReport:
    """Euler characteristics of the closed strata of the stable image,
    plus the relative (closure, boundary) values of the non-top strata
    that bound something."""

    chi_sheet: int
    chi_double: int
    chi_triple: int
    chi_quadruple: int
    chi_pinch: int
    chi_pinch_crossing: int
    pair_double: int
    pair_triple: int
    pair_pinch: int

    def as_dict(self) -> dict:
        return {
            "chi_sheet": self.chi_sheet,
            "chi_double": self.chi_double,
            "chi_triple": self.chi_triple,
            "chi_quadruple": self.chi_quadruple,
            "chi_pinch": self.chi_pinch,
            "chi_pinch_crossing": self.chi_pinch_crossing,
            "pair_double": self.pair_double,
            "pair_triple": self.pair_triple,
            "pair_pinch": self.pair_pinch,
        }


def strata_chi(t: InvariantTuple) -> StratumReport:
    """Euler characteristics of the six closed strata of the stable image.

    The sheet closure is the whole image; double, triple and quadruple
    refer to the crossing loci, pinch to the cross-cap points, and pinch
    crossing to points where a pinch curve meets a third sheet.
    """
    a, b, c, d, beta2, beta3, q = _unpack(t)
    chi_sheet = _as_int(
        1 - (Fraction(1, 2) * (a + b) + Fraction(1, 6) * (c + 3 * d + 2 * beta3) + q),
        "chi of the image",
    )
    chi_double = _as_int(
        beta2 + Fraction(1, 2) * (a - b) + Fraction(1, 3) * (c - beta3) + 3 * q,
        "chi of the double point locus",
    )
    chi_triple = _as_int(
        beta3 - (Fraction(1, 6) * (c - 3 * d + 2 * beta3) + 3 * q),
        "chi of the triple point locus",
    )
    chi_pinch = _as_int(beta2 - b, "chi of the pinch point locus")
    chi_quadruple = _as_int(q, "chi of the quadruple points")
    chi_pinch_crossing = _as_int(d + beta3, "chi of the pinch crossings")

    pair_double = chi_double - chi_triple - chi_pinch + chi_pinch_crossing
    pair_triple = chi_triple - chi_quadruple - chi_pinch_crossing
    pair_pinch = chi_pinch - chi_pinch_crossing
    return StratumReport(
        chi_sheet=chi_sheet,
        chi_double=chi_double,
        chi_triple=chi_triple,
        chi_quadruple=chi_quadruple,
        chi_pinch=chi_pinch,
        chi_pinch_crossing=chi_pinch_crossing,
        pair_double=pair_double,
        pair_triple=pair_triple,
        pair_pinch=pair_pinch,
    )


# ------------------------------------------------------- image Milnor fibre


def image_milnor_number(t: InvariantTuple) -> int:
    """Number of 3-spheres in the disentanglement of the image."""
    a, b, c, d, _, beta3, q = _unpack(t)
    mu = _as_int(
        Fraction(1, 2) * (a + b) + Fraction(1, 6) * (c + 3 * d + 2 * beta3) + q,
        "image Milnor number",
    )
    if mu < 0:
        raise NegativeMuImageError(
            f"image Milnor number {mu} is negative; the tuple is not realizable"
        )
    return mu


def chi_mf_image(t: InvariantTuple) -> int:
    """chi of the Milnor fibre of the image hypersurface, directly."""
    a, b, c, d, beta2, beta3, q = _unpack(t)
    return _as_int(
        1 + beta2 - (a + 2 * b + Fraction(1, 2) * (c + 5 * d) + 2 * beta3 + 4 * q),
        "chi of the image Milnor fibre",
    )


def chi_difference_3to4(t: InvariantTuple) -> int:
    """chi(Milnor fibre of the image) minus chi(disentanglement)."""
    a, b, c, d, beta2, beta3, q = _unpack(t)
    return _as_int(
        beta2
        - (
            Fraction(1, 2) * (a + 3 * b)
            + Fraction(1, 3) * (c + 6 * d + 5 * beta3)
            + 3 * q
        ),
        "chi difference between Milnor fibre and disentanglement",
    )


def image_strata_data(t: InvariantTuple) -> tuple:
    """The stable-image stratification as generic stratified-sum input.

    The transverse Milnor fibre along the pinch locus is a punctured
    cross-cap image with Euler characteristic 2, so its reduced value is
    +1; along the multi-sheet strata the transverse fibre has Euler
    characteristic 0, reduced value -1. The top stratum contributes
    nothing and is omitted.
    """
    return _strata_data(strata_chi(t))


def _strata_data(s: StratumReport) -> tuple:
    """image_strata_data from the Euler characteristics of the strata."""
    return (
        StratumDatum("pinch points", s.pair_pinch, 1),
        StratumDatum("double crossings", s.pair_double, -1),
        StratumDatum("triple crossings", s.pair_triple, -1),
        StratumDatum("quadruple crossings", s.chi_quadruple, -1),
        StratumDatum("pinch crossings", s.chi_pinch_crossing, -1),
    )


@dataclass(frozen=True)
class ImageChiReport:
    """All routes to chi of the image Milnor fibre, side by side."""

    invariants: InvariantTuple
    mu_image: int
    chi_disentanglement: int
    chi_mf: int
    chi_difference: int
    strata: StratumReport
    consistent: bool

    def as_dict(self) -> dict:
        return {
            "invariants": self.invariants.as_dict(),
            "mu_image": self.mu_image,
            "chi_disentanglement": self.chi_disentanglement,
            "chi_mf": self.chi_mf,
            "chi_difference": self.chi_difference,
            "strata": self.strata.as_dict(),
            "consistent": self.consistent,
        }


def image_chi_report(t: InvariantTuple) -> ImageChiReport:
    """Evaluate every chi formula on one invariant tuple and cross-check.

    consistent records that the direct value, the disentanglement plus
    difference, and the stratified transverse-fibre sum all coincide;
    on a realizable tuple it is always true.
    """
    mu = image_milnor_number(t)
    chi_dis = 1 - mu
    chi_mf = chi_mf_image(t)
    diff = chi_difference_3to4(t)
    strata = strata_chi(t)
    stratified = chi_dis + stratified_euler_difference(_strata_data(strata))
    consistent = chi_mf == chi_dis + diff == stratified
    return ImageChiReport(
        invariants=t,
        mu_image=mu,
        chi_disentanglement=chi_dis,
        chi_mf=chi_mf,
        chi_difference=diff,
        strata=strata,
        consistent=consistent,
    )


# ------------------------------------------------- composed singularities


@dataclass(frozen=True)
class ComposedChiReport:
    """chi bookkeeping for a composed map built from a function with
    Milnor number mu_outer applied after a stable perturbation of a germ
    with image Milnor number mu_image_inner."""

    chi_mf_composed: int
    chi_special_fibre: int
    chi_mf_inner: int

    def as_dict(self) -> dict:
        return {
            "chi_mf_composed": self.chi_mf_composed,
            "chi_special_fibre": self.chi_special_fibre,
            "chi_mf_inner": self.chi_mf_inner,
        }


def zariski_chi(mu_g: int, mu_f: int, n: int, mu_image_f: int) -> ComposedChiReport:
    """Euler characteristics for a composed singularity.

    mu_g is the Milnor number of the outer plane-curve-type function, mu_f
    the Milnor number of the inner fibre (an isolated complete
    intersection of dimension n - 2), and mu_image_f the image Milnor
    number of the inner germ, supplied by the caller. For odd n the
    reduced chi of the special fibre collapses to mu_image_f exactly.
    """
    if n < 2:
        raise BadParamsError("need n >= 2")
    if min(mu_g, mu_f, mu_image_f) < 0:
        raise BadParamsError("Milnor numbers must be non-negative")
    sign = -1 if n % 2 else 1  # (-1)^(n-2) = (-1)^n
    chi_mf_f = 1 + sign * mu_f
    chi_special = mu_image_f + (sign + 1) * mu_g * chi_mf_f + 1
    chi_mf_F = chi_special - mu_g * chi_mf_f
    return ComposedChiReport(
        chi_mf_composed=chi_mf_F,
        chi_special_fibre=chi_special,
        chi_mf_inner=chi_mf_f,
    )


# ------------------------------------------------ equidimensional example


@dataclass(frozen=True)
class EquidimReport:
    """Both routes to chi of the Milnor fibre of the discriminant of the
    fold-cusp family (x, y^3 + phi(x) y), plus the discriminant itself."""

    mu_phi: int
    chi_direct: int
    chi_stratified: int
    discriminant: Polynomial
    agree: bool

    def as_dict(self) -> dict:
        return {
            "mu_phi": self.mu_phi,
            "chi_direct": self.chi_direct,
            "chi_stratified": self.chi_stratified,
            "discriminant": str(self.discriminant),
            "agree": self.agree,
        }


def _fresh_names(taken, wanted) -> list:
    names = []
    for base in wanted:
        name = base
        while name in taken or name in names:
            name = name + "0"
        names.append(name)
    return names


def equidim_chi_check(
    phi: Polynomial,
    n: int,
    field=RATIONAL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> EquidimReport:
    """chi of the Milnor fibre of the discriminant of (x, y^3 + phi(x) y).

    The map folds n-space over itself along a cuspidal edge lying over
    the zero set of phi. Route one suspends the plane cusp; route two
    stratifies the discriminant by the cuspidal edge, whose transverse
    Milnor fibre is that of a plane cusp (chi = -1, reduced -2). The two
    must agree identically. The discriminant is recomputed by eliminating
    the fold coordinate with a resultant and compared against the
    classical cubic discriminant shape, projectively.
    """
    if n < 2:
        raise BadParamsError("need n >= 2")
    if len(phi.ring) != n - 1:
        raise BadParamsError(
            f"phi must live in {n - 1} variables for a map of {n}-space, got {len(phi.ring)}"
        )
    mu = hypersurface_milnor(phi, field=field, max_steps=max_steps)
    sign = 1 if (n - 1) % 2 == 0 else -1  # (-1)^(n-1)
    chi_direct = -1 + 3 * sign * mu

    chi_dis = 1 + sign * mu
    chi_edge = 1 - sign * mu  # (-1)^(n-2) = -(-1)^(n-1)
    edge = StratumDatum("cuspidal edge", chi_edge, -2)
    chi_stratified = chi_dis + stratified_euler_difference((edge,))

    fold_var, target_var = _fresh_names(phi.ring, ("s", "w"))
    ring = tuple(phi.ring) + (fold_var, target_var)
    s = Polynomial.variable(fold_var, ring)
    w = Polynomial.variable(target_var, ring)
    phi_big = phi.with_ring(ring)
    fibre_eq = s**3 + phi_big * s - w
    critical_eq = 3 * s**2 + phi_big
    disc = resultant(fibre_eq, critical_eq, fold_var)
    expected = (phi_big**3) * 4 + (w**2) * 27
    _check_proportional(disc, expected)

    return EquidimReport(
        mu_phi=mu,
        chi_direct=chi_direct,
        chi_stratified=chi_stratified,
        discriminant=disc,
        agree=chi_direct == chi_stratified,
    )


def _check_proportional(disc: Polynomial, expected: Polynomial) -> None:
    """Require disc to be a nonzero rational multiple of expected."""
    if disc.is_zero or expected.is_zero:
        raise SingchiError("discriminant degenerated to zero")
    anchor = next(iter(expected.terms))
    ratio = disc.with_ring(expected.ring).coefficient(anchor) / expected.terms[anchor]
    if not ratio or disc != expected * ratio:
        raise SingchiError("discriminant is not proportional to the cubic shape")
