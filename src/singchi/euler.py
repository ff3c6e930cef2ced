"""Euler characteristics of image Milnor fibres and their strata.

The image of a stable perturbation of a finitely determined germ
(C^3, 0) -> (C^4, 0) is stratified by how many sheets cross and whether a
sheet is pinched: the smooth part, double, triple and quadruple crossing
loci, the pinch (cross-cap) points, and the crossings of a pinch curve
with a sheet. Every closed formula evaluated here expresses an Euler
characteristic of that picture, or of a closely related fibration, as
an integer combination of the multiple point invariants over 2, 3 or 6.
Each is evaluated on ints multiplied through by its denominator, and the
division must be exact: a non-integral value is reported as proof that
the input tuple is not realizable.

Three independent routes to chi of the image Milnor fibre are kept side
by side on purpose: a direct closed form, the disentanglement value plus
a correction, and a stratified sum over transverse Milnor fibres. Their
agreement is a strong end-to-end check of both the formulas and the
upstream colength engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, mul

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


def _exact(num: int, den: int, formula: str) -> int:
    """num / den, which must be an integer: the formula's value."""
    value, rest = divmod(num, den)
    if rest:
        raise NonIntegralChiError(
            f"{formula} evaluates to the non-integer {Fraction(num, den)}; "
            "the invariant tuple is not realizable by a map germ"
        )
    return value


def _unpack(t: InvariantTuple):
    beta2 = 1 if t.d2_nonempty else 0
    beta3 = 1 if t.d3_nonempty else 0
    return t.mu_d2, t.mu_d2h, t.mu_d3, t.mu_d3h1, beta2, beta3, t.quad_points


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
        return dict(vars(self))


def strata_chi(t: InvariantTuple) -> StratumReport:
    """Euler characteristics of the six closed strata of the stable image.

    The sheet closure is the whole image; double, triple and quadruple
    refer to the crossing loci, pinch to the cross-cap points, and pinch
    crossing to points where a pinch curve meets a third sheet.
    """
    a, b, c, d, beta2, beta3, q = _unpack(t)
    # 1 - ((a + b)/2 + (c + 3d + 2 beta3)/6 + q)
    chi_sheet = _exact(6 - 3 * (a + b) - (c + 3 * d + 2 * beta3) - 6 * q, 6, "chi of the image")
    # beta2 + (a - b)/2 + (c - beta3)/3 + 3q
    chi_double = _exact(
        6 * beta2 + 3 * (a - b) + 2 * (c - beta3) + 18 * q, 6, "chi of the double point locus"
    )
    # beta3 - ((c - 3d + 2 beta3)/6 + 3q)
    num = 6 * beta3 - (c - 3 * d + 2 * beta3) - 18 * q
    chi_triple = _exact(num, 6, "chi of the triple point locus")
    chi_pinch = beta2 - b
    chi_quadruple = q
    chi_pinch_crossing = d + beta3

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
    # (a + b)/2 + (c + 3d + 2 beta3)/6 + q
    mu = _exact(3 * (a + b) + c + 3 * d + 2 * beta3 + 6 * q, 6, "image Milnor number")
    if mu < 0:
        raise NegativeMuImageError(
            f"image Milnor number {mu} is negative; the tuple is not realizable"
        )
    return mu


def chi_mf_image(t: InvariantTuple) -> int:
    """chi of the Milnor fibre of the image hypersurface, directly."""
    a, b, c, d, beta2, beta3, q = _unpack(t)
    # 1 + beta2 - (a + 2b + (c + 5d)/2 + 2 beta3 + 4q)
    num = 2 + 2 * beta2 - (2 * a + 4 * b + c + 5 * d + 4 * beta3 + 8 * q)
    return _exact(num, 2, "chi of the image Milnor fibre")


def chi_difference_3to4(t: InvariantTuple) -> int:
    """chi(Milnor fibre of the image) minus chi(disentanglement)."""
    a, b, c, d, beta2, beta3, q = _unpack(t)
    # beta2 - ((a + 3b)/2 + (c + 6d + 5 beta3)/3 + 3q)
    num = 6 * beta2 - (3 * (a + 3 * b) + 2 * (c + 6 * d + 5 * beta3) + 18 * q)
    return _exact(num, 6, "chi difference between Milnor fibre and disentanglement")


#: The strata of the stable image below the top one: name, the field of
#: StratumReport holding the pair value, and the reduced chi of the
#: transverse Milnor fibre.
_STRATA = (
    ("pinch points", "pair_pinch", 1),
    ("double crossings", "pair_double", -1),
    ("triple crossings", "pair_triple", -1),
    ("quadruple crossings", "chi_quadruple", -1),
    ("pinch crossings", "chi_pinch_crossing", -1),
)
_PAIRS = attrgetter(*(pair for _, pair, _ in _STRATA))
_TMF = tuple(tmf for _, _, tmf in _STRATA)


def image_strata_data(t: InvariantTuple) -> tuple:
    """The stable-image stratification as generic stratified-sum input.

    The transverse Milnor fibre along the pinch locus is a punctured
    cross-cap image with Euler characteristic 2, so its reduced value is
    +1; along the multi-sheet strata the transverse fibre has Euler
    characteristic 0, reduced value -1. The top stratum contributes
    nothing and is omitted.
    """
    s = strata_chi(t)
    return tuple(StratumDatum(name, getattr(s, pair), tmf) for name, pair, tmf in _STRATA)


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
        nested = {"invariants": self.invariants.as_dict(), "strata": self.strata.as_dict()}
        return {**vars(self), **nested}


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
    # the sum of stratified_euler_difference over image_strata_data
    stratified = chi_dis + sum(map(mul, _PAIRS(strata), _TMF))
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
        return dict(vars(self))


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
        return {**vars(self), "discriminant": str(self.discriminant)}


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
    """Require disc to be a nonzero rational multiple of expected: their
    numerators have one support, and are proportional at every term."""
    if disc.is_zero or expected.is_zero:
        raise SingchiError("discriminant degenerated to zero")
    got, want = disc.with_ring(expected.ring).nums, expected.nums
    anchor = next(iter(want))
    if got.keys() != want.keys() or any(
        got[m] * want[anchor] != want[m] * got[anchor] for m in want
    ):
        raise SingchiError("discriminant is not proportional to the cubic shape")
