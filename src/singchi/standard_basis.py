"""Colengths of ideals in local polynomial rings.

Colengths take one route over every field. An infinite colength is
certified first by a witness, a coordinate axis on which every generator
vanishes, read off the exponents. Next the generators' initial forms
decide where they are certified to be a regular sequence, for the total
degree or for weights read off the generators' pure powers, as for a
semi-quasihomogeneous germ (_initial_colength). Everything else is
decided by the dimensions of the truncated quotients O/m^(D+1), from one
row reduction on plain integers: fraction-free over Q, where a pivot is
stripped of the content of its lowest degree and its higher degrees
carry a denominator, and reduced mod p over Z/p. The elimination has no
truncation bound: it builds each degree's part of its rows only when it
reaches that degree, and stops at the first D where Nakayama seals the
quotient (the colength is finite), or where the truncated dimension
passes the Bezout bound d^n that every finite colength of generators of
degree <= d in n variables obeys (it is infinite). Nothing past that
degree is computed. Before any of this, variables that a generator cuts
transversally are split off (eliminate_linear_generators). No standard
basis is computed: Mora's tangent cone algorithm is kept only as an
independent oracle in the test suite.

Everything here is exact. The default coefficient field is the rationals,
RATIONAL. A prime field Z/p can be requested instead, as prime_field(p),
with coefficients kept as plain ints reduced mod p; results are then
exact over Z/p, which agrees with Q except for the finitely many primes
where some rank drops.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from dataclasses import dataclass

from .errors import BadPrimeError, ResourceLimitError
from .poly import _BITS, _LIMIT, _MASK, Polynomial, _degrees, _mul_into, _ones, _poly
from .poly import _reduced, _support, parse_poly

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
            if g.ring == self.ring:
                continue
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


def _residue(g: Polynomial, p: int) -> dict:
    """The key dict of g mod p, with plain int coefficients in [0, p);
    BadPrimeError when p divides the denominator of a coefficient."""
    if g.den % p == 0:
        c = next(c for c in g.terms.values() if c.denominator % p == 0)
        raise BadPrimeError(f"{p} divides the denominator of the coefficient {c}")
    inv = pow(g.den, -1, p)
    return {e: r for e, c in g.nums.items() if (r := c * inv % p)}


def prime_field(p: int) -> int:
    """The coefficient field Z/p for a word-sized prime p: p itself, once
    checked to be prime (ValueError otherwise)."""
    if not _is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _scaled(d):
    """The int key dict d divided by its content: coprime integer
    coefficients."""
    g = math.gcd(*d.values())
    return {e: c // g for e, c in d.items()} if g != 1 else d


# ---------------------------------------------------------------------------
# Colength
# ---------------------------------------------------------------------------


def _pure_powers(gens):
    """Per generator (a collection of monomial keys), the lowest exponent e
    of each variable x_j of which it has a pure power x_j^e, as a dict
    {j: e}; None when a generator has a constant term. A pure power is a
    key with exactly one nonzero field.

    This one scan over the keys serves the axis witness (_axis_witness) and
    the weights of the initial forms (_initial_colength).
    """
    powers = []
    for keys in gens:
        low = {}
        for m in keys:
            if not m:
                return None
            i = (m.bit_length() - 1) // _BITS
            if not m & (1 << _BITS * i) - 1:
                e = m >> _BITS * i
                if low.get(i, e) >= e:
                    low[i] = e
        powers.append(low)
    return powers


def _axis_witness(powers, nvars):
    """The first i such that no generator has a pure power of x_i, for the
    pure powers of _pure_powers, or None (always when a generator has a
    constant term).

    For J's generators this certifies an infinite colength: every generator
    vanishes on the x_i-axis, so O/J maps onto C{x_i}.
    """
    if powers is None:
        return None
    seen = set().union(*powers)
    return None if len(seen) == nvars else next(i for i in range(nvars) if i not in seen)


@functools.lru_cache(maxsize=256)
def _monomials(nv, k):
    """The keys of the monomials of degree k in nv >= 1 variables,
    ascending. The cache is shared by every elimination, and bounded: one
    that climbs far would otherwise keep every degree it reached."""
    if nv == 1:
        return (k,)
    top = _BITS * (nv - 1)
    return tuple((j << top) + m for j in range(k + 1) for m in _monomials(nv - 1, k - j))


def _covers(leads, nv, D):
    """Whether every monomial of degree D >= 1 in nv variables is a multiple
    of a key in leads, a set of keys of degree D - 1.

    The rest of degree D - 1 is free. A monomial x^m of degree D is a
    multiple of no key in leads when every x^m/x_j is free, and it is then
    x_j*s for a free s: so only those are tried."""
    free = set(_monomials(nv, D - 1)).difference(leads)
    units = [1 << _BITS * j for j in range(nv)]
    return all(any(m - x not in free for x in units if m & x * _MASK)
               for m in {s + x for s in free for x in units})


#: The prime mod which the tangent cones of generators over Q are compared
#: (_transversal): 2^31 - 1.
_CONE_PRIME = 2**31 - 1


def _transversal(cones, p=None):
    """Whether two binary forms share no linear factor: over Z/p when p is
    given, and else over Q, where False may also mean that this test could
    not tell (see below). cones holds each form as its degree and its terms,
    (key, entry) pairs in two variables x, y, with integer entries.

    A common linear factor is a common zero in the projective line. The
    forms vanish at (1:0) exactly when both lack the pure power x^a of
    their degree a. Every other zero lies in the chart y = 1, where one
    Euclid gcd of f(x, 1) and g(x, 1) finds a shared one: O(a*b) field
    operations. Over Q the test runs on the entries mod q = 2^31 - 1. Forms
    with no common zero mod q have a homogeneous resultant that is nonzero
    mod q, so nonzero over Z, and they share no factor over Q either. A form
    that vanishes mod q, or a factor that they share only mod q, gives
    False, which costs only the rows the ladder then builds."""
    q = _CONE_PRIME if p is None else p
    chart, pure = [], False
    for a, terms in cones:
        # the coefficients of f(x, 1), lowest first, x^a last
        u = [0] * (a + 1)
        for e, c in terms:
            u[e & _MASK] = c % q
        while u and not u[-1]:
            u.pop()
        if not u:
            return False
        pure = pure or len(u) == a + 1
        chart.append(u)
    if not pure:
        return False
    f, g = chart
    while g:
        # f <- f mod g
        inv = pow(g[-1], -1, q)
        while len(f) >= len(g):
            c, n = f.pop() * inv % q, len(f) - len(g) + 1
            for i, v in enumerate(g[:-1]):
                f[n + i] = (f[n + i] - c * v) % q
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) == 1


def _matched_weights(powers, nv):
    """Weights for the initial forms of n generators in n variables with
    the pure powers powers (_pure_powers), or None: the ints w_j = L/(e_j +
    1), L the lcm of the e_j + 1, of the matching of the generators to pure
    powers x_j^(e_j) of distinct variables under which each generator's
    own pure power is its lowest pure power in weighted degree, ties going
    to the smaller key. None where no matching passes, or where its
    weights are uniform, the total degree again.

    Exponents alone decide this, and no term is read. At most one matching
    can pass, and a greedy walk finds it: take the pure powers by
    exponent, then by variable, and match each to its generator while
    both are free. Let M pass, and let x_j^e in g_i be the first pure
    power the walk takes. In M, g_i is matched to some x_k^d with d >= e,
    and x_j to an exponent E_j >= e, so x_j^e has the weighted degree
    e/(E_j + 1) <= e/(e + 1) <= d/(d + 1). Equality needs E_j = d = e,
    and then j < k, so the key of x_j^e is the smaller. So x_k^d is
    lowest only if k = j, and the same holds of the generators and
    variables left.
    """
    match, exps = {}, [0] * nv
    for e, j, i in sorted((e, j, i) for i, pw in enumerate(powers) for j, e in pw.items()):
        if not exps[j] and i not in match:
            match[i], exps[j] = j, e
    if len(match) < nv or len(set(exps)) == 1:
        return None
    for i, j in match.items():
        e = exps[j]
        for k, f in powers[i].items():
            # x_k^f lies above x_j^e: f/(E_k + 1) > e/(e + 1), or equal
            # with j < k
            d = f * (e + 1) - e * (exps[k] + 1)
            if d < 0 or not d and k < j:
                return None
    top = math.lcm(*(e + 1 for e in exps))
    return tuple(top // (e + 1) for e in exps)


def _initial_forms(gens, nv, weights=None):
    """Each generator's initial form for the weights (None: the total
    degree), as its least weighted degree and its terms of that degree,
    (key, entry) pairs; and whether their leads, the smallest keys of the
    forms, are pairwise coprime."""
    ones, used, coprime, forms = _ones(nv), 0, True, []
    for gen in gens:
        degrees = _degrees(gen, nv, weights)
        e = min(degrees)
        forms.append((e, [(key, c) for (key, c), t in zip(gen.items(), degrees) if t == e]))
        # Bit 15 of each field that the lead has nonzero: every exponent is
        # below 2^15, so adding 2^15 - 1 to a field carries into its bit 15
        # exactly when the field is nonzero. The leads are pairwise coprime
        # while no lead meets those of the generators before it.
        fields = min(forms[-1][1])[0] + ones * (_LIMIT - 1) & ones << _BITS - 1
        coprime = coprime and not used & fields
        used |= fields
    return forms, coprime


def _initial_colength(gens, nv, p, powers):
    """The colength of the ideal J generated by gens (as _pivot_profile
    takes them) where the initial forms of the generators certify it: an
    int or INFINITE, and None where they do not. powers are the
    generators' pure powers (_pure_powers). No row is built.

    Give each variable x_j a positive integer weight w_j, and x^a the
    weighted degree sum w_j*a_j. Here g_i* is the lowest weighted part of
    g_i, its initial form, and t_i its lead, its smallest key. Three cases
    certify that the g_i* are a regular sequence, tried in this order:
      * w = (1, ..., 1), the total degree, and the leads t_i are pairwise
        coprime;
      * w = (1, ..., 1), and there are two generators in two variables
        whose initial forms share no linear factor, transversal tangent
        cones (_transversal);
      * as many generators as variables, weights read off their pure
        powers (_matched_weights), and the leads t_i are pairwise coprime.
        For the Jacobian ideal of a semi-quasihomogeneous germ of weights
        1/(e_j + 1) those are its weights.
    The argument has four steps.
      1. The weighted degree filters O, and so O/J. The graded ring of O
         is k[x], graded by weighted degree, and that of O/J is
         k[x]/in_w(J), where in_w(J) is spanned by the initial forms of
         the elements of J. Each graded part is finite, and the two have
         the same dimension, finite or not.
      2. On the forms of one weighted degree, order monomials by key,
         smaller first: keys add under products, so with the weighted
         degree this is a monomial order, and t_i leads g_i*. Buchberger's
         product criterion holds for every monomial order: with coprime
         leads, the S-polynomial of g_i* and g_j* reduces to zero. So the
         g_i* are a Groebner basis, and (g_1*, ..., g_k*) has the lead
         ideal (t_1, ..., t_k).
      3. Coprime monomials are a regular sequence, and weighted
         homogeneous forms whose leads are one are one too: their ideal
         and the monomial one share a Hilbert series, prod (1 - z^d_i) /
         prod (1 - z^w_j) with d_i the weighted degree of g_i*, which is
         the one of a regular sequence of those degrees. So the g_i* are a
         regular sequence in k[x]. In k[x, y] two binary forms are a
         regular sequence exactly when they are coprime, that is share no
         linear factor over the algebraic closure, where every binary form
         splits into lines. Over Q that is read mod q = 2^31 - 1: forms
         with no common zero mod q have a homogeneous resultant that is
         nonzero mod q, so nonzero, and no common zero over Q-bar either.
         Where the test mod q cannot tell, the ladder decides.
      4. By Valabrega-Valla ("Form rings and regular sequences", Nagoya
         Math. J. 72, 1978), with the weight filtration in place of the
         powers of m, in_w(J) is then (g_1*, ..., g_k*), and by step 1 the
         colength is the dimension of k[x]/(g_1*, ..., g_k*), which by
         step 2 is the number of monomials outside (t_1, ..., t_k).
    With k = n generators and coprime leads, none of them 1, each t_i is a
    pure power x_j^(e_i) of a variable of its own, and the colength is
    prod e_i; two transversal cones of degrees a and b give a*b, the
    intersection multiplicity of two plane curves with no common tangent
    (Fulton, Algebraic Curves, 3.3). For a Jacobian ideal and the weights
    of a semi-quasihomogeneous germ that product is Arnold's Milnor number
    prod (1/w_j - 1) (V. I. Arnold, "Normal forms of functions in
    neighbourhoods of degenerate critical points", Russian Math. Surveys
    29, 1974; Kouchnirenko, "Polyedres de Newton et nombres de Milnor",
    Invent. Math. 32, 1976, for Newton polyhedra). With k < n the monomial
    quotient keeps a free variable, and the colength is infinite. A
    constant generator has the lead 1, which makes the colength 0. Over
    Z/p the initial forms are those of the residues, which may differ from
    those over Q.
    """
    forms, coprime = _initial_forms(gens, nv)
    if not coprime and nv == len(gens) == 2:
        coprime = _transversal(forms, p)
    orders = [e for e, _ in forms]
    if not coprime and powers and len(gens) == nv and all(powers):
        weights = _matched_weights(powers, nv)
        if weights:
            forms, coprime = _initial_forms(gens, nv, weights)
            # the leads are then pure powers, so these are their exponents
            orders = _degrees([min(terms)[0] for _, terms in forms], nv)
    if not coprime:
        return None
    return INFINITE if len(orders) < nv and all(orders) else math.prod(orders)


def _pivot_profile(gens, nv, p=None, budget=None):
    """Pivots per degree of the image of J in the truncations O/m^(D+1):
    yields counts[D], the number of pivots in degree D, for D = 0, 1, 2,
    ... without end.

    gens are J's nonzero generators as dicts of poly's monomial keys to
    plain ints: primitive integer dicts over Q (_scaled), or residues
    mod p when p is given (_residue). The rows are the monomial multiples
    of the generators, which span exactly the image of J in every
    truncation, because every unit of the truncated ring is itself a
    polynomial image. Columns are ordered by degree first, and the leads of
    an echelon basis are those of its span, so counts[D] depends on J and
    D alone:
        d_D = dim O/(J + m^(D+1)) = #monomials of degree <= D
                                    - counts[0] - ... - counts[D].
    When the pivots fill degree D, m^D lies in J + m^(D+1), Nakayama
    pushes it into J, and d_D is the colength of J: the quotient seals.

    The leads are the initial ideal of J for this local degree ordering, a
    monomial ideal: if f in J leads with x^a, x_j*f leads with x_j*x^a
    (Greuel-Pfister, A Singular Introduction to Commutative Algebra, 1.6).
    So degree D >= 1 fills, and every later degree with it, when every
    monomial of degree D is a multiple of a lead of degree D - 1. Step D
    checks this (_covers) before it builds a row, once every x_j^(D-1) is
    a lead (x_j^D has no other divisor of degree D - 1). From there on no
    row is built, and counts[D] is the number of monomials of degree D.

    The elimination is degree-major and has no truncation bound. A row is
    kept as what made it: a generator index i, a shift x^a, and the
    operations applied to it, each row <- (s*row - f*pivot_k)/c. Step D
    builds only the D-slices of the rows, the parts of degree D, by
    replaying those operations on the D-slices of x^a*g_i and of the
    pivots they name, the pivots first in the order they were made. So no
    entry above degree D is built before step D, and no step runs twice.
    At step D each g_i in turn takes its pending rows (earlier rows whose
    slices so far all cancelled) and its new rows x^a*g_i of degree D, and
    reduces their D-slices, lowest column first, by the pivots of degree D.
    The first column left without a pivot becomes a row's pivot; a row with
    none is pending, until no degree above D is left where its start or a
    pivot it met has a term. No row at step D has an entry below D, so
    counts[D] is final after it. Most new rows x^a*g_i are pivots at once,
    their first column being free: their slice, lead and division by the
    content are those of the lowest part of g_i, shifted, and are not
    computed again. The column of x^e is its key (poly), at
    every degree, as the key of a product is the sum of the keys; columns
    order lexicographically, the last variable most significant. Keys hold
    exponents below 2^15, and ResourceLimitError comes before D = 2^15.

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

    A new row starts from the degree below where that saves its
    reductions (matrix F5: Bardet, Faugere and Salvy, "On the complexity
    of the F5 Groebner basis algorithm", J. Symbolic Comput. 70, 2015).
    Let j be the top variable of a, and let the row x^(a-e_j)*g_i have
    become at D - 1 a pivot p that carries reductions: it reduced, or it
    started so itself. Then x^a*g_i starts as x_j*p: its D-slice is x_j
    times the lead slice of p, already reduced at D - 1, with no replay,
    and its base is (p, x_j), or (k, x^t*x_j) when p only shifted pivot k
    by x^t. A row with base (k, x^t) replays at degree d from the
    (d - |t|)-slice of pivot k, so a step replays (pivot, degree) pairs.
    Replays at the step's degree prune operations as before; replays below
    it read the operations a pivot had when a base first named it, kept
    whole for it and for every pivot its replays name, and the slices of
    those pivots are kept for the steps after.
    Why the span is unchanged: label the row x^a*g_i by its signature
    x^a*e_i, and order signatures by i, then by deg a, then by the key of
    a. That is the order in which rows are reduced, so a row meets only
    pivots of smaller signature, and x_j keeps that order. Modulo the
    image of J', which the rows of g_1..g_(i-1) span by induction on i,
    each row of g_i is h*g_i with h a combination of its support, the
    shifts x^b of the rows x^b*g_i it combines: x^a itself, and shifts of
    smaller signature, which the pivots it meets bring in. The support of
    x_j*p is x_j times that of p, and x_j*p starts only when no shift in it
    is one that F5 skips. The rows of g_i are then unitriangular over the
    rows x^b*g_i that F5 keeps, by signature, and span what those span. A
    skipped shift would break this: its F5 identity ties it to columns
    above it, x^a among them. Where it occurs, the row starts as x^a*g_i.

    A row whose parent has not become a pivot waits for it. At step D, let
    j be the top variable of a, and let the parent x^(a-e_j)*g_i be
    pending after step D - 1, or dormant. Then x^a*g_i is not built: it is
    dormant, and its anchor is its nearest ancestor that is a pending row,
    A, the row of x^b*g_i as reduced so far, with x^a = x^t*x^b. The span:
    A is x^b*g_i less pivots of smaller signature and has no term below D,
    so x^a*g_i is x^t*A, which lies in m^(D+1), plus x^t times those
    pivots. By induction on signature every dormant row then lies, modulo
    m^(D+1), in the span of the rows built, and counts[D] is what it would
    be with them built, as long as no shift in x^t times the support of A
    is one that F5 skips: the support condition of x_j*p. A dormant row
    waits on through every step after which its anchor is still pending
    and the condition holds; the support of the anchor grows as it meets
    pivots of g_i, and the condition is read again after each step where
    it does. When the anchor becomes a pivot P at step E, its dormant
    children enter at E + 1 as rows x_j*P, with bases as above, among the
    pending rows in signature order, and deeper descendants wait on the
    child they descend from. When the anchor turns out to be zero at every
    degree, x^a*g_i is exactly x^t times those pivots, and its dormant
    descendants are never built. Where the condition fails after step D, a
    dormant row enters at D + 1 as x^t times the anchor as it stood before
    step D instead, which passed the condition and lies in m^(D+1): its
    base is a copy of that anchor, kept for it.

    Over Q the elimination is fraction-free: a slice with entry f at the
    column of a pivot with lead a becomes (a/g)*slice - (f/g)*pivot,
    g = gcd(a, f). A row that becomes a pivot is divided by the content of
    its lead slice, made positive at the lead. That content need not divide
    the row's later slices, so a replayed slice is an int dict over one
    denominator, and a row scales its slice clear of it at the degree where
    it is reduced: every reduction runs on plain ints. Mod p a pivot keeps
    its lead a, a reduction subtracts (f/a)*pivot, and no denominator
    arises. Row reduction in a fixed finite-dimensional space keeps
    heights polynomial (entries are multiples of minors of the input),
    unlike iterated Mora normal forms, whose heights can compound.

    budget, when given, is a one-item list holding the reductions (a row
    combined with a pivot) still allowed; ResourceLimitError is raised
    when a reduction would take it below zero.
    """
    if budget is None:
        budget = [math.inf]
    # deg a is the top field of a*ones: no field sum of a reaches 2^15
    ones, top = _ones(nv), _BITS * (nv - 1)
    # per generator: its order, its degrees as a bit mask, its terms by degree
    # as (key, entry), and what a row x^a*g_i is when its first column a + t
    # has no pivot: t, its lead entry (its inverse mod p), its other terms,
    # and its operations (the division by the content of its lowest part)
    parts = []
    for gen in gens:
        by_degree = {}
        for (e, c), t in zip(gen.items(), _degrees(gen, nv)):
            by_degree.setdefault(t, []).append((e, c))
        rest = dict(by_degree[min(by_degree)])
        t = min(rest)
        a, ops = rest.pop(t), ()
        if p is None:
            c = math.gcd(a, *rest.values())
            sign = -1 if a < 0 else 1
            if sign * c != 1:
                a, rest = a // (sign * c), {e: v // (sign * c) for e, v in rest.items()}
                ops = ((sign, 0, -1, c),)
        else:
            a = pow(a, -1, p)
        parts.append((min(by_degree), sum(1 << t for t in by_degree), by_degree, (t, a, rest, ops)))
    # A pivot: (generator index i, shift key a, operations, degrees, origin).
    # Bit D of degrees is clear where the D-slice is known to be zero: every
    # degree of the row's start and of the pivots the operations name is set.
    # origin is None for a row x^a*g_i that no reduction touched, and else
    # (base, support): base is None for a row that starts as x^a*g_i and
    # (k, t, |t|) for one that starts as x^t times pivot k; the support is
    # the set of shifts b of the rows x^b*g_i that the row combines modulo
    # the image of g_1..g_(i-1), None when it is {a}. The list also holds
    # copies of pending rows that the bases of rows leaving a dormant state
    # name (see above), which are not pivots.
    pivots = []
    # the lead column of each pivot -> the index of the generator that made it
    leads = {}
    # per generator: (a, operations, degrees, origin) of the rows whose
    # slices so far all cancelled
    pending = [[] for _ in gens]
    # per generator: anchor -> [its support at the start of the step, its
    # dormant descendants in signature order, its pending row then, and
    # (the lead of the pivot it became at the step, None while it is
    # pending, -1 once it is zero at every degree; its origin after it)],
    # and dormant row shift -> its anchor, the nearest ancestor that is a
    # pending row
    dormant = [({}, {}) for _ in gens]
    # generator index -> {a: (pivot index, whether it reduced, lead, lead
    # entry, the rest of its slice)} for the new rows x^a*g_i of degree D
    # that became pivots carrying reductions: the parents at D + 1
    parents = {}
    # pivot -> its operations when a base first named it, or named a pivot
    # whose replays name it: a base reads its pivot below the step's degree,
    # where the operations pruned at the step's degree no longer hold
    whole = {}
    # (pivot, degree) -> its slice, for the pivots in whole: their slices do
    # not change, and a base reads each again at later steps
    known = {}

    # slices below maps a degree to the slices of that degree replayed so far
    def replay(i, a, ops, origin, d):
        """The d-slice of the row x^a*g_i of this origin after ops, as an int
        dict and a positive denominator, and ops as they act above degree d.

        An operation whose pivot has no terms above d only scales the row
        at every later degree, so it is folded into the next operation that
        names a pivot with such terms, or into a last scaling."""
        if origin is None or origin[0] is None:
            N, den = {a + col: c for col, c in parts[i][2].get(d - (a * ones >> top & _MASK), ())}, 1
        else:
            k, t, n = origin[0]
            N, den = slices.get(d - n, {}).get(k, ({}, 1))
            N = {t + col: v for col, v in N.items()}
        at = slices.get(d) or {}
        kept, S, C = [], 1, 1
        for op in ops:
            s, f, k, c = op
            if f and pivots[k][3] >> d > 1:
                if (S, C) != (1, 1):
                    op = (s * S, f * C, k, c * C)
                    S = C = 1
                kept.append(op)
            elif p is None:
                S, C = S * s, C * c
            else:
                S = S * s % p
            P = at.get(k) if f else None
            if P is not None:
                P, pden = P
                if pden != den:
                    g = math.gcd(pden, den)
                    s *= pden // g
                    f *= den // g
                    den = den // g * pden
            if s != 1:
                N = {col: v * s for col, v in N.items()}
                if p is not None:
                    N = {col: v % p for col, v in N.items()}
            for col, v in P.items() if P is not None else ():
                x = N.get(col, 0) - f * v
                if p is not None:
                    x %= p
                if x:
                    N[col] = x
                else:
                    del N[col]
            den *= c
        if (S, C) != (1, 1):
            g = math.gcd(S, C)
            kept.append((S // g, 0, -1, C // g))
        if den != 1:
            g = math.gcd(den, *N.values())
            if g != 1:
                N = {col: v // g for col, v in N.items()}
                den //= g
        return N, den, kept

    def widened(i, a, origin, ops):
        """The origin of the row x^a*g_i once it has met the pivots ops
        name. F5 skips no row of g_1, so the supports of its rows are never
        read."""
        base, span = origin or (None, None)
        for _, f, k, _ in ops if i else ():
            if f and pivots[k][0] == i:
                met = pivots[k][4]
                span = {*(span or (a,)), *(met and met[1] or (pivots[k][1],))}
        return base, span and frozenset(span)

    def inherited(i, below):
        """The rows of g_i at D that start from their parents in below, by
        their shifts. A pivot that a base names is kept whole before its
        replays at D."""
        born = {}
        for b, (q, reduced, lead, c, rest) in below.items():
            base, span = pivots[q][4]
            n = len(born)
            # x^a has the one parent x^(a - e_j), j its top variable
            for j in range((b.bit_length() - 1) // _BITS if b else 0, nv):
                x = 1 << _BITS * j
                # F5, and no shift of the support that F5 skips
                if any(leads.get(m + x, i) < i for m in span or (b,)):
                    continue
                N = {col + x: v for col, v in rest.items()}
                N[lead + x] = c
                born[b + x] = (b + x, [], N, 1, pivots[q][3] << 1,
                               ((q, x, 1) if reduced else (base[0], base[1] + x, base[2] + 1),
                                span and frozenset(m + x for m in span)))
            if len(born) > n:
                keep(q)
        return born

    def keep(k):
        """Keep the operations of pivot k whole, with those of every pivot
        its replays name, as they stand: a base reads k below the step's
        degree, where operations pruned at later steps no longer hold."""
        todo = [k]
        while todo:
            k = todo.pop()
            if k not in whole:
                _, _, ops, _, origin = pivots[k]
                whole[k] = ops
                todo += [j for _, f, j, _ in ops if f]
                if origin and origin[0]:
                    todo.append(origin[0][0])

    def waits(i, a, waiting, brood, kin):
        """Whether the new row x^a*g_i waits, dormant, for a parent that is
        pending (waiting, by shift) or dormant (kin), off the shifts that F5
        skips; it is then recorded with its anchor (brood)."""
        up = a - (1 << _BITS * ((a.bit_length() - 1) // _BITS))
        anchor = kin.get(up, up if up in waiting else None)
        if anchor is None:
            return False
        if anchor in brood:
            span = brood[anchor][0]
        else:
            span = waiting[anchor][3] and waiting[anchor][3][1]
        t = a - anchor
        if i and any(leads.get(m + t, i) < i for m in span or (anchor,)):
            return False
        kin[a] = anchor
        brood.setdefault(anchor, [span, [], waiting.get(anchor), None])[1].append(a)
        return True

    def settle(i):
        """After step D, the dormant rows of g_i whose anchors' supports
        grew, or that stopped pending (see above)."""
        brood, kin = dormant[i]
        for anchor, (span, kids, before, (lead, origin)) in list(brood.items()):
            now = origin and origin[1]
            if lead is None and now == span:
                continue
            del brood[anchor]
            ghost, q, stay = None, None, []
            for shift in kids:
                t = shift - anchor
                n = t * ones >> top & _MASK
                if i and any(leads.get(m + t, i) < i for m in now or (anchor,)):
                    # x^t times the anchor as it stood before the step,
                    # with the support span, which is zero below D + 1
                    if ghost is None:
                        _, ops, mask, was = before
                        if mask >> D & 1:
                            N, den, _ = replay(i, anchor, ops, was, D)
                            known[len(pivots), D] = N, den
                        ghost, mask = len(pivots), mask >> D << D
                        pivots.append((i, anchor, tuple(ops), mask, was))
                        keep(ghost)
                    row = (shift, [], mask << n, ((ghost, t, n), span and frozenset(m + t for m in span)))
                elif lead is None:
                    stay.append(shift)
                    continue
                elif lead < 0:
                    del kin[shift]
                    continue
                elif n > 1:
                    # It waits on the child of the anchor it descends from,
                    # which has entered: the leads of g_1..g_(i-1) are a
                    # monomial ideal, so where this row passes the support
                    # condition, so does that child. Each generation adds a
                    # variable at or past the top one, so the child's is
                    # the lowest of t.
                    up = anchor + (1 << _BITS * (((t & -t).bit_length() - 1) // _BITS))
                    kin[shift] = up
                    brood.setdefault(up, [now and frozenset(m + up - anchor for m in now), [], None, None])[1].append(shift)
                    continue
                else:
                    # x_j times the pivot the anchor became, its D-slice
                    # the pivot's lead slice
                    if q is None:
                        a, N, q = here[lead]
                        known[q, D] = {**N, lead: a if p is None else pow(a, -1, p)}, 1
                        keep(q)
                    row = (shift, [], pivots[q][3] << 1, ((q, t, 1), now and frozenset(m + t for m in now)))
                del kin[shift]
                bisect.insort(pending[i], row, key=lambda row: (row[0] * ones >> top & _MASK, row[0]))
            if stay:
                brood[anchor] = [now, stay, None, None]

    sealed, here = False, {}
    for D in itertools.count():
        if D == _LIMIT:
            raise ResourceLimitError(f"degree {D} passes the exponent width of a key")
        # a seal read off the leads of degree D - 1, here (see above); most
        # steps end at the lookup of x_1^(D-1), key D - 1, before any loop
        if not sealed and D - 1 in here and all((D - 1) << _BITS * j in here for j in range(1, nv)):
            sealed = _covers(here, nv, D)
        if sealed:
            yield math.comb(D + nv - 1, nv - 1)
            continue
        born = {}
        if parents:
            born = {i: inherited(i, below) for i, below in parents.items()}
            parents = {}
        slices = {}
        if any(pending):
            # The slices the pending rows read, replayed in the order the
            # pivots were made: those of degree D of the pivots their
            # operations name, of degree D - |t| of a base's pivot, and so
            # on through those pivots.
            todo = [(ops, origin, D) for rows in pending for _, ops, mask, origin in rows if mask >> D & 1]
            needed = set()
            while todo:
                ops, origin, d = todo.pop()
                reads = [(k, d) for _, f, k, _ in ops if f]
                if origin and origin[0]:
                    reads.append((origin[0][0], d - origin[0][2]))
                for k, e in reads:
                    if (k, e) not in needed and pivots[k][3] >> e & 1:
                        needed.add((k, e))
                        if (k, e) not in known:
                            todo.append((pivots[k][2] if e == D else whole[k], pivots[k][4], e))
            for k, d in sorted(needed):
                i, a, ops, degrees, origin = pivots[k]
                if (k, d) in known:
                    N, den = known[k, d]
                elif d < D:
                    N, den, _ = replay(i, a, whole[k], origin, d)
                else:
                    N, den, kept = replay(i, a, ops, origin, d)
                    pivots[k] = (i, a, tuple(kept), degrees, origin)
                if k in whole:
                    known[k, d] = N, den
                if N:
                    slices.setdefault(d, {})[k] = (N, den)
        # the lead column of each pivot of degree D -> (lead entry, the other
        # entries of its D-slice, pivot index)
        here = {}
        for i, (order, degrees, by_degree, (first, entry, rest, scaling)) in enumerate(parts):
            brood, kin = dormant[i]
            # (a, operations, D-slice, its denominator, degrees, origin) per row
            rows, k = [], D - order
            # the pending rows of degree k - 1, the last by signature: a new
            # row can have its parent among them
            waiting = {}
            if k > 0 and pending[i]:
                for row in reversed(pending[i]):
                    if row[0] * ones >> top & _MASK < k - 1:
                        break
                    waiting[row[0]] = row
            for row in pending[i]:
                shift, ops, mask, origin = row
                N, den, kept = {}, 1, ops
                if mask >> D & 1:
                    N, den, kept = replay(i, shift, ops, origin, D)
                if shift in brood:
                    brood[shift][2] = row
                rows.append((shift, kept, N, den, mask, origin))
            pending[i] = []
            if k >= 0:
                fresh, low, wait = len(rows), by_degree[order], waiting or kin
                for shift in _monomials(nv, k):
                    # F5: skip x^a*g_i when x^a leads a pivot of g_1..g_(i-1)
                    if leads.get(shift, i) >= i and not (wait and waits(i, shift, waiting, brood, kin)):
                        rows.append((shift, [], None, 1, degrees << k, None))
                # the new rows ascend by shift, and few have a parent that
                # became a pivot
                for shift, row in born[i].items() if i in born else ():
                    n = bisect.bisect_left(rows, (shift,), fresh)
                    if n < len(rows) and rows[n][0] == shift:
                        rows[n] = row
            for shift, ops, N, pre, mask, origin in rows:
                if N is None:
                    # a row x^a*g_i as built, a pivot at once unless its
                    # first column has one
                    lead = shift + first
                    if lead not in here:
                        here[lead] = (entry, {shift + t: c for t, c in rest.items()}, len(pivots))
                        leads[lead] = i
                        pivots.append((i, shift, scaling, mask, None))
                        continue
                    N = {shift + t: c for t, c in low}
                start = len(ops)
                # Reducing at a column only brings in columns above it, so a
                # column the heap has handed out never comes back, and the
                # first one left without a pivot is the row's lead.
                todo = list(N)
                heapq.heapify(todo)
                while todo:
                    lead = heapq.heappop(todo)
                    if lead in N and lead not in here:
                        break
                    f = N.pop(lead, 0)
                    if not f:
                        continue
                    budget[0] -= 1
                    if budget[0] < 0:
                        raise ResourceLimitError("row reduction budget exhausted")
                    a, P, q = here[lead]
                    if p is None:
                        g = math.gcd(a, f)
                        s = a // g
                        if s != 1:
                            for col in N:
                                N[col] *= s
                        f //= g
                    else:
                        s, f = 1, f * a % p
                    for col, v in P.items():
                        x = N.get(col)
                        if x is None:
                            x = -f * v
                            heapq.heappush(todo, col)
                        else:
                            x -= f * v
                        if p is not None:
                            x %= p
                        if x:
                            N[col] = x
                        else:
                            del N[col]
                    # pre clears the replayed slice's denominator
                    ops.append((s * pre, f, q, 1))
                    pre = 1
                    mask |= pivots[q][3]
                else:
                    alive = mask >> D > 1
                    if alive or shift in brood:
                        if len(ops) > start:
                            origin = widened(i, shift, origin, ops[start:])
                        if alive:
                            pending[i].append((shift, ops, mask, origin))
                        if shift in brood:
                            brood[shift][3] = (None if alive else -1, origin)
                    continue
                # A new pivot. Over Q it is divided by the content of its lead
                # slice, with a positive lead, and the division joins the
                # row's last operation of this degree. Mod p it keeps its lead
                # a, and here holds 1/a, by which reductions scale f.
                a = N.pop(lead)
                reduced = len(ops) > start
                if p is None:
                    c = math.gcd(a, *N.values())
                    sign = -1 if a < 0 else 1
                    if sign * c != 1:
                        a //= sign * c
                        N = {col: v // (sign * c) for col, v in N.items()}
                    if reduced:
                        if sign * c != 1:
                            t, f, q, _ = ops[-1]
                            ops[-1] = (t * sign, f * sign, q, c)
                    elif sign * c * pre != 1:
                        ops.append((sign * pre, 0, -1, c))
                else:
                    a = pow(a, -1, p)
                here[lead] = (a, N, len(pivots))
                leads[lead] = i
                if reduced:
                    origin = widened(i, shift, origin, ops[start:])
                pivots.append((i, shift, tuple(ops), mask, origin))
                # A new row that carries reductions is a parent at D + 1. Mod p
                # the entry of its lead is the inverse of what here holds.
                if origin and shift * ones >> top & _MASK == k:
                    c = a if p is None else pow(a, -1, p)
                    parents.setdefault(i, {})[shift] = (len(pivots) - 1, reduced, lead, c, N)
                elif shift in brood:
                    brood[shift][3] = (lead, origin)
            if brood:
                settle(i)
        yield len(here)


def _sealed_colength(gens, nv, p=None, max_steps=DEFAULT_MAX_STEPS):
    """The colength of the ideal J generated by gens (as _pivot_profile
    takes them): an int, or INFINITE.

    One elimination, _pivot_profile, is read degree by degree, once, and
    the first of two stops decides, with d_D = dim O/(J + m^(D+1)):
      * seal: the first degree D >= 1 that fills; d_D is then the
        colength, by Nakayama. The fill is often read off the leads of
        degree D - 1, and then no row of degree D is built;
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
    by degree d^nv. Nothing past the stop degree is computed. The row
    reductions take from one budget of max_steps, and ResourceLimitError
    ends the elimination when it runs out.
    """
    bezout = max(max(_degrees(d, nv)) for d in gens) ** nv
    dim = 0
    for D, filled in enumerate(_pivot_profile(gens, nv, p, [max_steps])):
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

    Unit ideals over field (is_unit_ideal) have colength 0. Variables a
    generator cuts transversally are split off first, which leaves the
    quotient unchanged (eliminate_linear_generators); everything below
    runs on the presentation that leaves (_split_colength), which a
    caller already holding one eliminated takes directly.

    Everything returned is exact for the requested field, and every
    answer carries one of four certificates, tried in this order:
      * witness: a variable x_i of which no term of any generator is a
        pure power, so J vanishes on the x_i-axis and the colength is
        infinite; it reads exponents only;
      * initial forms: the generators' lowest parts, in total degree or
        in a weighted degree, are a regular sequence, certified by
        pairwise coprime leads or, for two generators in two variables,
        by tangent cones that share no line (over Q by a gcd mod
        2^31 - 1). The weights, tried after the total degree with as many
        generators as variables, are w_j = 1/(e_j + 1) for pure powers
        x_j^(e_j) matched to the generators, read off the exponents. The
        colength is then the product of the leads' degrees for as many
        generators as variables (coprime leads are then pure powers, one
        per variable), and infinite for fewer, and no row is built (the
        argument is at _initial_colength);
      * seal: one degree-by-degree elimination, with no truncation
        bound, fills degree D, so m^D lies in J by Nakayama and the
        colength is d_D = dim O/(J + m^(D+1)); the elimination stops
        there, having built no part of a row above degree D, and none of
        degree D when the leads of degree D - 1 already have every
        monomial of degree D among their multiples;
      * Bezout: the same elimination reaches a degree D with d_D > d^n,
        d the largest total degree of a generator and n the number of
        variables, and the colength is infinite, since a finite one is
        at most d^n (reductions of ideals and the refined Bezout theorem;
        the argument is at _sealed_colength). Before a seal d_D >= D + 1,
        so one of the two comes by degree d^n.
    field is RATIONAL or prime_field(p). Both fields take this one route,
    on integer rows prepared once: over Q the numerators of the generators
    divided by their content, over Z/p their residues mod p, taken before
    the transversal variables are split off, where a prime that divides a
    coefficient's denominator raises BadPrimeError first.
    Over Q each pivot is divided by the content of its part of lowest
    degree, and its higher parts are carried over one denominator, which
    a row clears before it is reduced. Every row reduction of the
    elimination counts against max_steps, and ResourceLimitError is
    raised when they exceed it. The colength does not depend on the local
    ordering.
    """
    if is_unit_ideal(I, field):
        return 0
    return _split_colength(eliminate_linear_generators(I, field)[0], field, max_steps)


def _split_colength(J: IdealPresentation, field, max_steps):
    """colength of J, a presentation as eliminate_linear_generators returns
    it over field: not the unit ideal, no transversal linear generator
    left, and over prime_field(p) residues mod p. colength runs this on
    the elimination it makes; a caller that holds an eliminated
    presentation already runs it directly, and scans no generator again."""
    nvars = len(J.ring)
    gens = [g.nums for g in J.gens if g.nums]
    if not gens:
        return INFINITE if nvars else 1
    if field is RATIONAL:
        gens = [_scaled(d) for d in gens]
    powers = _pure_powers(gens)
    if _axis_witness(powers, nvars) is not None:
        return INFINITE
    value = _initial_colength(gens, nvars, field, powers)
    return _sealed_colength(gens, nvars, field, max_steps) if value is None else value


def is_unit_ideal(I: IdealPresentation, field=RATIONAL) -> bool:
    """Whether I is the whole local ring over field.

    A generator with nonzero value at the origin is invertible in the local
    ring; conversely if every generator vanishes at the origin the ideal
    sits inside the maximal ideal. No basis computation is needed. Over
    prime_field(p) the values are residues mod p: BadPrimeError comes first
    when p divides the denominator of a generator, and a constant term that
    p divides is zero.
    """
    if field is RATIONAL:
        return any(0 in g.nums for g in I.gens)
    for g in I.gens:
        if g.den % field == 0:
            _residue(g, field)
    return any(g.nums.get(0, 0) % field for g in I.gens)


def eliminate_linear_generators(I: IdealPresentation, field=RATIONAL):
    """Split off variables that a generator cuts out transversally.

    Whenever some generator has the shape c*v + r with c a nonzero constant
    and v absent from r, the germ is isomorphic to the one presented by the
    remaining generators with v replaced by -r/c. Colengths, unit-ness and
    Milnor numbers are all preserved. Returns the reduced presentation and
    the names of the eliminated variables, in order. Generators must
    vanish at the origin.

    Over prime_field(p) the generators are reduced mod p first (_residue,
    so BadPrimeError comes before anything else), and the elimination runs
    on the residues: a generator that is linear only mod p is split off
    too. The generators returned are then residues, with coefficients in
    [0, p).

    This is one extension of a fresh _Elimination, whose loop always takes
    the lowest-index generator that cuts a variable transversally, and of
    its variables the first. So a presentation whose generators begin with
    those of another, over a ring that begins with the other's, is
    eliminated by extending the other's state with its remaining
    generators, with the same choices in the same order.
    """
    state = _Elimination(tuple(I.ring), field)
    state.extend(I.gens)
    return state.presentation(), [state.ring[i] for i, _, _ in state.subs]


def _substituted(h, at, c, value, p):
    """h with the variable of key field `at` replaced by value/c.

    The elimination runs on the generators' numerators. With value = -r,
    Horner on the parts h_j of h by the power of v (acc = h_k, then
    acc*value + c^(k-j)*h_j for j = k-1 down to 0) gives c^k*h(v =
    value/c); over h's denominator times c^k that is exactly h(v = -r/c).
    Mod p, value is -r/c itself, and c^(k-j) is 1. A generator free of v
    is returned as it is, unsplit.
    """
    if not _support(h.nums) >> at & _MASK:
        return h
    parts = {}
    for m, a in h.nums.items():
        parts.setdefault(m >> at & _MASK, {})[m & ~(_MASK << at)] = a
    k = max(parts)
    acc, s = parts[k], 1
    for j in range(k - 1, -1, -1):
        s *= c
        step = {m: s * a for m, a in parts.get(j, {}).items()}
        _mul_into(step, acc, value)
        if p is RATIONAL:
            acc = {m: a for m, a in step.items() if a}
        else:
            acc = {m: r for m, a in step.items() if (r := a % p)}
    return _reduced(h.ring, acc, h.den * s)


class _Elimination:
    """The greedy loop of eliminate_linear_generators, kept so that it can
    be resumed: the generators so far, over one ring, the indices of its
    live variables, and the substitutions made, in order, as (index of
    the variable, c, value).

    extend appends generators: each first gets the recorded substitutions,
    in order, as if it had been there from the start, and then the loop
    resumes on all of them. Each generator is substituted on its own, so
    the state after extending with A and then B is the one after
    extending a fresh state with A + B whenever the loop on A + B makes
    A's choices first, as it does when A is a prefix (see
    eliminate_linear_generators).
    """

    __slots__ = ("ring", "field", "gens", "live", "subs")

    def __init__(self, ring, field):
        self.ring, self.field = ring, field
        self.gens, self.live, self.subs = [], list(range(len(ring))), []

    def copy(self) -> "_Elimination":
        other = _Elimination(self.ring, self.field)
        other.gens, other.live, other.subs = list(self.gens), list(self.live), list(self.subs)
        return other

    def extend(self, new) -> None:
        ring, p, gens, live = self.ring, self.field, self.gens, self.live
        new = [g.with_ring(ring) for g in new]
        if p is not RATIONAL:
            new = [_poly(ring, _residue(g, p)) for g in new]
        for i, c, value in self.subs:
            new = [_substituted(h, _BITS * i, c, value, p) for h in new]
        gens += new
        while True:
            found = _linear_pivot(gens, live)
            if found is None:
                return
            gi, i = found
            at = _BITS * i
            num = gens.pop(gi).nums
            c = num[1 << at]
            value = {m: -a for m, a in num.items() if m != 1 << at}
            if p is not RATIONAL:
                inv = pow(c, -1, p)
                value = {m: a * inv % p for m, a in value.items()}
                c = 1
            gens[:] = [_substituted(h, at, c, value, p) for h in gens]
            live.remove(i)
            self.subs.append((i, c, value))

    def presentation(self, n=None) -> IdealPresentation:
        """The generators so far over the live variables among the ring's
        first n (all of them by default), which must hold every variable
        the generators use."""
        ring, live = self.ring, self.live
        if n is not None and n < len(ring):
            live = [i for i in live if i < n]
        if len(live) == len(ring):
            return IdealPresentation(ring, tuple(self.gens))
        out = tuple(map(ring.__getitem__, live))
        return IdealPresentation(out, tuple(g.with_ring(out) for g in self.gens))


def _linear_pivot(gens, live):
    """(gi, i) of the first generator, and its first live variable x_i, such
    that the one term of gens[gi] involving x_i is x_i; None if none is."""
    for gi, g in enumerate(gens):
        nums = g.nums
        for i in live:
            if 1 << _BITS * i in nums:
                mask = _MASK << _BITS * i
                if sum(1 for m in nums if m & mask) == 1:
                    return gi, i
    return None
