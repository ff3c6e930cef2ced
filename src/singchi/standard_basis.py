"""Colengths of ideals in local polynomial rings.

Colengths take one route over every field. An infinite colength is
certified first by a witness, a coordinate axis on which every generator
vanishes, read off the exponents. Everything else is decided by row
reduction in truncated quotients O/m^(D+1), on plain integers:
fraction-free over Q and reduced mod p over Z/p. One elimination runs
degree by degree and stops at the first D where Nakayama seals the
quotient (the colength is finite), or where the truncated dimension
passes the Bezout bound d^n that every finite colength of generators of
degree <= d in n variables obeys (it is infinite). Before any of this,
variables that a generator cuts transversally are split off
(eliminate_linear_generators). No standard basis is computed: Mora's
tangent cone algorithm is kept only as an independent oracle in the
test suite.

Everything here is exact. The default coefficient field is the rationals,
RATIONAL. A prime field Z/p can be requested instead, as prime_field(p),
with coefficients kept as plain ints reduced mod p; results are then
exact over Z/p, which agrees with Q except for the finitely many primes
where some rank drops.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import BadPrimeError, ResourceLimitError
from .poly import Polynomial, _integral, _mul_into, _poly, determinant, parse_poly, substitute

DEFAULT_MAX_STEPS = 10**6

#: Sentinel for an infinite-dimensional quotient.
INFINITE = float("inf")


@dataclass(frozen=True)
class IdealPresentation:
    """An ordered list of generators in a declared ring."""

    ring: tuple
    gens: tuple

    def __post_init__(self):
        for g in self.gens:
            for v in g.ring:
                if v not in self.ring and g.degree_in(v) > 0:
                    raise ValueError(f"generator uses {v!r} outside ring {self.ring}")


def ideal(ring, *gens) -> IdealPresentation:
    ring = tuple(ring)
    polys = tuple(g if isinstance(g, Polynomial) else parse_poly(g, ring) for g in gens)
    return IdealPresentation(ring, polys)


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

#: The rational field, the default of every field= parameter. A prime
#: field is its prime (prime_field).
RATIONAL = None


def _is_probable_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _residue(c: Fraction, p: int) -> int:
    """c mod p as a plain int in [0, p)."""
    den = c.denominator % p
    if den == 0:
        raise BadPrimeError(f"{p} divides the denominator of the coefficient {c}")
    return c.numerator * pow(den, -1, p) % p


def prime_field(p: int) -> int:
    """The coefficient field Z/p for a word-sized prime p: p itself, once
    checked to be prime (ValueError otherwise)."""
    if not _is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _scaled(d):
    """The exponent dict d over Q scaled to coprime integer coefficients."""
    [num], _ = _integral([d])
    g = math.gcd(*num.values())
    return {e: c // g for e, c in num.items()}


def _residues(gens, p):
    """The exponent dicts gens reduced mod p, dropping what vanishes."""
    out = []
    for d in gens:
        m = {}
        for e, c in d.items():
            r = _residue(c, p)
            if r:
                m[e] = r
        if m:
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# Colength
# ---------------------------------------------------------------------------


def _axis_witness(exps, nvars):
    """The first i such that no exponent in exps is a power of x_i alone
    (1 included), or None.

    For the terms of J's generators this certifies an infinite colength:
    every generator vanishes on the x_i-axis, so O/J maps onto C{x_i}.
    """
    on_axis = set()
    for e in exps:
        support = [i for i, a in enumerate(e) if a]
        if not support:
            return None
        if len(support) == 1:
            on_axis.add(support[0])
    return next((i for i in range(nvars) if i not in on_axis), None)


def _pivot_profile(gens, nv, bound, p=None, budget=None):
    """Pivots per degree of the image of J in O/m^(bound+1): yields
    counts[D], the number of pivots in degree D, for D = 0, ..., bound.

    gens are J's nonzero generators as exponent dicts with plain int
    coefficients: primitive integer dicts over Q (_scaled), or residues
    mod p when p is given (_residues). The rows are the truncated monomial multiples
    of the generators, which span exactly the image of J, because every
    unit of the truncated ring is itself a polynomial image. Columns are
    ordered by degree first, and the leads of an echelon basis are those
    of its span, so counts[D] depends on J and D alone, not on the bound:
        d_D = dim O/(J + m^(D+1)) = #monomials of degree <= D
                                    - counts[0] - ... - counts[D].
    When the pivots fill degree D, m^D lies in J + m^(D+1), Nakayama
    pushes it into J, and d_D is the colength of J: the quotient seals.

    The elimination is degree-major. At step D each g_i in turn takes its
    pending rows (earlier rows whose entries below degree D all cancelled)
    and its new rows x^a*g_i of degree D, and reduces them, lowest column
    first, by the pivots of degree D. The first column of degree D left
    without a pivot becomes a row's pivot; a row with none is pending. No
    row at step D has an entry below D, so counts[D] is final after it.

    No row x^a*g_i is built when x^a already leads the image of J' =
    (g_1, ..., g_{i-1}) (the F5 criterion: Faugere, ISSAC 2002). If q in
    that image has lowest term c*x^a, then
        c*x^a*g_i = q*g_i - (q - c*x^a)*g_i,
    where q*g_i lies in the image of J' and the second term is a
    combination of rows x^b*g_i with columns above x^a, or of zero rows.
    So the span, and with it every count, is unchanged. A pivot keeps the
    index of the generator that made it. Rows of g_i meet only pivots of
    degree D, made by g_1..g_i, so the pivots of lower index span the
    image of J' up to degree D, which holds x^a, and lead all of it.

    Over Q the elimination is fraction-free: a row with entry f at the
    column of a pivot with lead a becomes (a/g)*row - (f/g)*pivot,
    g = gcd(a, f), and a row is stripped of its content when it is stored
    as a pivot. Mod p pivots are stored with lead 1, so the same update
    runs with a/g = 1, reduced mod p. Row reduction in a fixed
    finite-dimensional space keeps heights polynomial (entries are
    multiples of minors of the input), unlike iterated Mora normal forms,
    whose heights can compound.

    budget, when given, is a one-item list holding the reductions (a row
    combined with a pivot) still allowed, shared by every run handed the
    same list; ResourceLimitError is raised when a reduction would take it
    below zero.
    """
    if budget is None:
        budget = [math.inf]
    # The column of e is the integer with digits (deg(e), e_1, ..., e_nv)
    # in base bound + 1, so columns order by degree and then exponent, and
    # the column of a product of monomials is the sum of their columns.
    weights = [(bound + 1) ** (nv - i) for i in range(nv + 1)]
    base = weights[0]
    shifts = [0]
    for w in weights[1:]:
        shifts = [k + j * (base + w) for k in shifts for j in range(bound - k // base + 1)]
    shifts.sort()
    starts = [bisect.bisect_left(shifts, D * base) for D in range(bound + 2)]
    # per generator: its order, and its terms as (degree, column, entry)
    rows_of = []
    for gen in gens:
        terms = [(sum(e), sum(map(mul, (sum(e),) + e, weights)), c) for e, c in gen.items()]
        rows_of.append((min(t[0] for t in terms), terms))
    # lead column -> (lead entry, the row's other entries, generator index)
    pivots = {}
    # per generator: degree of the lowest entry -> rows waiting for it
    pending = [{} for _ in gens]
    for D in range(bound + 1):
        top, made = (D + 1) * base, len(pivots)
        for i, (order, terms) in enumerate(rows_of):
            rows, k = pending[i].pop(D, []), D - order
            for shift in shifts[starts[k] : starts[k + 1]] if k >= 0 else ():
                # F5: skip x^a*g_i when x^a leads a pivot of g_1..g_(i-1)
                if pivots.get(shift, (0, 0, i))[2] >= i:
                    rows.append({col + shift: c for deg, col, c in terms if deg + k <= bound})
            for row in rows:
                # Reducing at a column only brings in columns above it, so a
                # column the heap has handed out never comes back, and the
                # first one left without a pivot is the row's lead.
                todo = [col for col in row if col < top]
                heapq.heapify(todo)
                while todo:
                    lead = heapq.heappop(todo)
                    if lead in row and lead not in pivots:
                        break
                    f = row.pop(lead, 0)
                    if not f:
                        continue
                    budget[0] -= 1
                    if budget[0] < 0:
                        raise ResourceLimitError("row reduction budget exhausted")
                    a, pivot, _ = pivots[lead]
                    g = math.gcd(a, f)
                    if a != g:
                        s = a // g
                        for col in row:
                            row[col] *= s
                    f //= g
                    for col, v in pivot.items():
                        x = row.get(col)
                        if x is None:
                            x = -f * v
                            if col < top:
                                heapq.heappush(todo, col)
                        else:
                            x -= f * v
                        if p is not None:
                            x %= p
                        if x:
                            row[col] = x
                        else:
                            del row[col]
                else:
                    if row:
                        pending[i].setdefault(min(row) // base, []).append(row)
                    continue
                a = row.pop(lead)
                if p is None:
                    content = math.gcd(a, *row.values())
                    # a positive lead: a lead of -1 would rescale every row
                    if a < 0:
                        content = -content
                    if content != 1:
                        a //= content
                        row = {col: v // content for col, v in row.items()}
                else:
                    inv, a = pow(a, -1, p), 1
                    row = {col: v * inv % p for col, v in row.items()}
                pivots[lead] = (a, row, i)
        yield len(pivots) - made


def _sealed_colength(gens, nv, p=None, max_steps=DEFAULT_MAX_STEPS):
    """The colength of the ideal J generated by gens (as _pivot_profile
    takes them): an int, or INFINITE.

    The counts are read at caps 2, 4, 8, ... and the first of two stops
    decides, with d_D = dim O/(J + m^(D+1)):
      * seal: the first degree D >= 1 that fills; d_D is then the
        colength, by Nakayama. The counts up to D are intrinsic to
        O/m^(D+1), so every cap finds the same first seal, where the
        elimination stops;
      * Bezout: the first D with d_D > d^nv, d the largest total degree
        of a generator; the colength is then infinite.
    The Bezout stop rests on this. Let J have a finite colength u. Over
    an infinite field, nv generic combinations of the generators generate
    a reduction K of J (Northcott-Rees, "Reductions of ideals in local
    rings", 1954), so K lies in J and is m-primary, and the origin is an
    isolated point of V(K). By the refined Bezout theorem (Fulton,
    Intersection Theory, 12.3), u <= colength(K) <= d^nv. The colength
    does not change when the field is extended, so this holds over Z/p
    too, and d_D <= u <= d^nv for every D. Before the seal every degree
    leaves a monomial out, so d_D >= D + 1, and one of the two stops comes
    by degree d^nv.

    Rows carry tails up to the cap, so the caps double rather than start
    at the last degree that can be needed. Every cap takes its reductions
    from one budget of max_steps, and ResourceLimitError ends the ladder
    when it runs out.
    """
    bezout = max(sum(e) for d in gens for e in d) ** nv
    budget, cap = [max_steps], 1
    while True:
        cap *= 2
        dim = 0
        for D, filled in enumerate(_pivot_profile(gens, nv, cap, p, budget)):
            full = math.comb(D + nv - 1, nv - 1)
            dim += full - filled
            if D and filled == full:
                return dim
            if dim > bezout:
                return INFINITE


def colength(
    I: IdealPresentation,
    field=RATIONAL,
    max_steps: int = DEFAULT_MAX_STEPS,
):
    """Dimension of the local quotient ring by I; INFINITE when unbounded.

    Unit ideals have colength 0. Variables a generator cuts transversally
    are split off first, which leaves the quotient unchanged.

    Everything returned is exact for the requested field, and every
    answer carries one of three certificates:
      * witness: a variable x_i of which no term of any generator is a
        pure power, so J vanishes on the x_i-axis and the colength is
        infinite; it reads exponents only;
      * seal: one degree-by-degree elimination in O/m^(D+1) fills degree
        D, so m^D lies in J by Nakayama and the colength is d_D =
        dim O/(J + m^(D+1)); the counts of degree <= D are intrinsic, so
        the first D found is the same at every truncation, and the
        elimination stops there;
      * Bezout: the same elimination reaches a degree D with d_D > d^n,
        d the largest total degree of a generator and n the number of
        variables, and the colength is infinite, since a finite one is
        at most d^n (reductions of ideals and the refined Bezout theorem;
        the argument is at _sealed_colength). Before a seal d_D >= D + 1,
        so one of the two comes by degree d^n.
    field is RATIONAL or prime_field(p). Both fields take this one route,
    on integer rows prepared once: over Q the generators scaled to
    primitive integer dicts, over Z/p their residues mod p, where a prime
    that divides a coefficient's
    denominator raises BadPrimeError first. Every row reduction of the
    elimination counts against max_steps, and ResourceLimitError is
    raised when they exceed it. The colength does not depend on the local
    ordering.
    """
    if is_unit_ideal(I):
        return 0
    J, _ = eliminate_linear_generators(I)
    nvars = len(J.ring)
    gens = [g.terms for g in J.gens if g.terms]
    if not gens:
        return INFINITE if nvars else 1
    gens = [_scaled(d) for d in gens] if field is RATIONAL else _residues(gens, field)
    if _axis_witness((e for d in gens for e in d), nvars) is not None:
        return INFINITE
    return _sealed_colength(gens, nvars, field, max_steps)


def is_unit_ideal(I: IdealPresentation) -> bool:
    """Whether I is the whole local ring.

    A generator with nonzero value at the origin is invertible in the local
    ring; conversely if every generator vanishes at the origin the ideal
    sits inside the maximal ideal. No basis computation is needed.
    """
    return any(g.constant_term() for g in I.gens)


def random_invertible_matrix(size: int, rng: random.Random):
    """Invertible matrix with small random rational entries."""
    while True:
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 2)) for _ in range(size)]
            for _ in range(size)
        ]
        constants = [[Polynomial.constant(c, ()) for c in row] for row in rows]
        if not determinant(constants).is_zero:
            return rows


def generic_linear_change(I: IdealPresentation, seed: int) -> IdealPresentation:
    """Apply a seeded random invertible linear change of coordinates.

    Seed 0 is the identity, by convention.
    """
    if seed == 0 or not I.ring:
        return I
    rng = random.Random(seed)
    rows = random_invertible_matrix(len(I.ring), rng)
    images = {}
    for i, var in enumerate(I.ring):
        value = Polynomial.zero(I.ring)
        for j, w in enumerate(I.ring):
            value = value + Polynomial.variable(w, I.ring) * rows[i][j]
        images[var] = value
    gens = tuple(substitute(g.with_ring(I.ring), images).with_ring(I.ring) for g in I.gens)
    return IdealPresentation(I.ring, gens)


def eliminate_linear_generators(I: IdealPresentation):
    """Split off variables that a generator cuts out transversally.

    Whenever some generator has the shape c*v + r with c a nonzero constant
    and v absent from r, the germ is isomorphic to the one presented by the
    remaining generators with v replaced by -r/c. Colengths, unit-ness and
    Milnor numbers are all preserved. Returns the reduced presentation and
    the names of the eliminated variables, in order. Generators must
    vanish at the origin.

    Generators are int dicts over I.ring, each over a denominator. With
    value = -r, Horner on the parts h_j of h by the power of v (acc = h_k,
    then acc*value + c^(k-j)*h_j for j = k-1 down to 0) gives c^k*h(v =
    value/c); over the denominator times c^k that is exactly h(v = -r/c).
    """
    ring = tuple(I.ring)
    units = [tuple(int(i == j) for j in range(len(ring))) for i in range(len(ring))]
    gens = [(n, d) for [n], d in (_integral([g.with_ring(ring).terms]) for g in I.gens)]
    live = list(range(len(ring)))
    audit = []
    while True:
        # x_i is transversal in a generator whose one term involving x_i is x_i
        hits = ((gi, i) for gi, (num, _) in enumerate(gens) for i in live if units[i] in num)
        found = next(((gi, i) for gi, i in hits if sum(1 for m in gens[gi][0] if m[i]) == 1), None)
        if found is None:
            break
        gi, i = found
        num, _ = gens.pop(gi)
        c = num[units[i]]
        value = {m: -a for m, a in num.items() if m != units[i]}
        for hi, (h, den) in enumerate(gens):
            parts = {}
            for m, a in h.items():
                parts.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1 :]] = a
            k = max(parts, default=0)
            if not k:
                continue
            acc, s = parts[k], 1
            for j in range(k - 1, -1, -1):
                s *= c
                step = {m: s * a for m, a in parts.get(j, {}).items()}
                _mul_into(step, acc, value)
                acc = {m: a for m, a in step.items() if a}
            g = math.gcd(den * s, *acc.values())
            gens[hi] = ({m: a // g for m, a in acc.items()}, den * s // g)
        live.remove(i)
        audit.append(ring[i])
    if not audit:
        return IdealPresentation(ring, tuple(g.with_ring(ring) for g in I.gens)), audit
    out = tuple(ring[i] for i in live)
    polys = [{tuple(m[i] for i in live): Fraction(a, d) for m, a in h.items()} for h, d in gens]
    return IdealPresentation(out, tuple(_poly(out, t) for t in polys)), audit
