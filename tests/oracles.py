"""Independent cross-checks used by the test suite.

The point of this module is to recompute quantities the package derives
by other means, so the two code paths share no logic. The key device is
truncation: for an ideal I generated by germs vanishing at the origin,

    d_D := dim O/(I + m^(D+1))

is computable as (number of monomials of degree <= D) minus the rank of
the matrix whose rows are the truncations of (monomial * generator).
Two facts make this a rigorous oracle:

  * if d_D == d_(D+1) then m^(D+1) lands in I (Nakayama), the quotient
    has stabilised, and the colength is exactly d_D;
  * if the colength is infinite every graded piece is nonzero, so
    d_D >= D + 1 for all D.

So scanning D upward either certifies an exact finite answer or proves a
lower bound. No standard basis, no monomial ordering.

The second independent route is Mora's tangent cone algorithm over Q,
which the package does not run: standard bases, their leading monomials
and ideal membership under a local ordering, whose staircase count is
the colength. It takes nothing from the package but Polynomial,
IdealPresentation and ResourceLimitError.

The module also keeps references the package's faster code is checked
against: the pivot profile by elimination over Fraction rows, the
degree where the seal ladder stops, the staircase count of a standard
basis's leading monomials, the transversal elimination by rational
substitution, the recursive divided difference, the cofactor
expansion of a determinant, and the Euler characteristic formulas as
written, in Fraction arithmetic.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add, sub

from singchi.errors import (
    EmptyArgsError,
    NegativeMuImageError,
    NonIntegralChiError,
    ResourceLimitError,
    UnknownVariableError,
)
from singchi.poly import Polynomial, substitute
from singchi.standard_basis import INFINITE, IdealPresentation


def monomials_up_to(ring, degree):
    """All monomials of total degree <= degree, low degrees first, as
    exponent tuples in ring order."""
    out = [(0,) * len(ring)]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(len(ring)), d):
            exps = [0] * len(ring)
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    return out


def _sparse_rank(rows, p=None):
    """Rank of a sparse matrix given as dicts {column: value}: rational,
    or int entries over Z/p when p is given."""
    return len(_sparse_leads(rows, p))


def _sparse_leads(rows, p=None):
    """The lead columns of an echelon basis of the row space of a sparse
    matrix given as dicts {column: value}, the lowest column of each row
    first: rational, or int entries over Z/p when p is given."""

    def normal(v):
        return v if p is None else v % p

    pivots = {}
    for row in rows:
        row = {c: normal(v) for c, v in row.items() if normal(v)}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = Fraction(1) / row[col] if p is None else pow(row[col], -1, p)
                pivots[col] = {c: normal(v * inv) for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivot.items():
                nv = normal(row.get(c, 0) - factor * v)
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return pivots


def truncated_quotient_dim(gens, ring, degree, p=None):
    """dim O/(I + m^(degree+1)) by sparse row reduction, over Q, or over
    Z/p on the generators' residues when p is given."""
    monos, rows = _truncated_rows(gens, ring, degree, p)
    return 0 if rows is None else len(monos) - _sparse_rank(rows, p)


def truncated_quotient_dims(gens, ring, degree, p=None):
    """[d_0, ..., d_degree], d_e = dim O/(I + m^(e+1)), from the one
    elimination of truncated_quotient_dim at degree: its columns run by
    degree first, so the leads of degree <= e are those of the truncation
    at e."""
    monos, rows = _truncated_rows(gens, ring, degree, p)
    if rows is None:
        return [0] * (degree + 1)
    dims = [0] * (degree + 1)
    for m in monos:
        dims[sum(m)] += 1
    for col in _sparse_leads(rows, p):
        dims[sum(monos[col])] -= 1
    return list(itertools.accumulate(dims))


def _truncated_rows(gens, ring, degree, p):
    """The monomials of degree <= degree, and the truncations of their
    products with the generators as rows over their indices; rows is None
    when a generator is a unit."""
    monos = monomials_up_to(ring, degree)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        terms = g.with_ring(ring).terms
        if p is not None:
            terms = {m: c.numerator * pow(c.denominator, -1, p) % p for m, c in terms.items()}
            terms = {m: c for m, c in terms.items() if c}
        if not terms:
            continue
        if terms.get((0,) * len(ring)):
            return monos, None
        for m in monos:
            row = {}
            for mono, coeff in terms.items():
                prod = tuple(map(add, m, mono))
                if sum(prod) <= degree:
                    row[index[prod]] = row.get(index[prod], 0) + coeff
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    return monos, rows


def brute_colength(gens, ring, cap=40):
    """Exact colength by truncation, or ("at least", bound) past the cap.

    Stabilisation d_D == d_(D+1) certifies the exact value; growth up to
    the cap certifies the lower bound. The cap is a degree, not a
    dimension, so keep test inputs small in many variables.
    """
    prev = None
    for degree in range(cap + 1):
        cur = truncated_quotient_dim(gens, ring, degree)
        if prev is not None and cur == prev:
            return cur
        prev = cur
    return ("at least", prev)


def ladder_stop(gens, ring, bezout, p=None, top=None):
    """Where the seal ladder stops, stepping one degree at a time with a
    fresh elimination per degree (over Z/p when p is given): the first
    D >= 1 with d_D == d_(D-1) (a seal, value d_D), or the first D with
    d_D > bezout (value INFINITE), whichever comes first.

    Returns ([d_0, ..., d_D], value), or ([d_0, ..., d_top], None) when
    no stop comes by degree top."""
    dims = [truncated_quotient_dim(gens, ring, 0, p)]
    while top is None or len(dims) <= top:
        dims.append(truncated_quotient_dim(gens, ring, len(dims), p))
        if dims[-1] == dims[-2]:
            return dims, dims[-1]
        if dims[-1] > bezout:
            return dims, INFINITE
    return dims, None


def staircase(lms, nvars):
    """The number of monomials outside the monomial ideal (lms): 0 for
    the unit ideal, INFINITE when those monomials include a whole axis,
    that is when some variable has no pure power among lms."""
    if any(not any(lm) for lm in lms):
        return 0
    powers = {i for lm in lms for i in range(nvars) if lm[i] == sum(lm)}
    if len(powers) < nvars:
        return INFINITE
    exp = [0] * nvars
    count = 0

    def walk(i):
        nonlocal count
        if i == nvars:
            count += 1
            return
        e = 0
        while True:
            exp[i] = e
            if any(all(a <= b for a, b in zip(lm, exp)) for lm in lms):
                break
            walk(i + 1)
            e += 1
        exp[i] = 0

    walk(0)
    return count


def negdegrevlex(exp):
    """Sort key of the local degree reverse lexicographic ordering: a
    larger key is a larger monomial, and 1 is the largest."""
    return (-sum(exp), tuple(-e for e in reversed(exp)))


def negdeglex(exp):
    """Sort key of the local degree lexicographic ordering."""
    return (-sum(exp), exp)


#: Bits of an integer coefficient above which a Mora run is declared
#: swollen. Well-behaved reductions stay orders of magnitude below this;
#: runs that reach it compound heights multiplicatively and would grind
#: for hours inside single arithmetic operations.
HEIGHT_CAP = 100_000


class _Element:
    __slots__ = ("d", "lm", "lc", "ecart")

    def __init__(self, d, lm):
        self.d, self.lm, self.lc = d, lm, d[lm]
        self.ecart = max(sum(e) for e in d) - sum(lm)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


class _Mora:
    """Mora's tangent cone algorithm over Q: Buchberger's loop driven by a
    weak normal form that may reduce by earlier partial remainders when
    every reducer would raise the ecart (Greuel-Pfister, A Singular
    Introduction to Commutative Algebra, chapter 1).

    Polynomials are exponent dicts on plain ints, stripped of their
    content. A reduction or s-polynomial is (b/c)*x^sh*h - (a/c)*x^sg*g,
    a and b the leads of h and g, c = gcd(a, b). Scaling changes no
    leading monomial and no ecart, so the reducers picked are those of the
    textbook algorithm. Every reduction counts against max_steps, and a
    coefficient of HEIGHT_CAP bits raises ResourceLimitError: a step budget
    alone does not bound the time, since heights can compound down a chain
    of reductions.
    """

    def __init__(self, nvars, key, max_steps):
        zero = (0,) * nvars
        units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
        if not all(key(u) < key(zero) for u in units):
            raise ValueError("Mora needs a local ordering: every variable below 1")
        self.key, self.max_steps, self.steps, self.zero = functools.cache(key), max_steps, 0, zero

    def make(self, d):
        """d stripped of its content in place, as an element; None for 0."""
        if not d:
            return None
        content = math.gcd(*d.values())
        for e in d:
            d[e] //= content
            if d[e].bit_length() >= HEIGHT_CAP:
                raise ResourceLimitError(f"coefficient height exceeded {HEIGHT_CAP} bits")
        return _Element(d, max(d, key=self.key))

    def combine(self, h, sh, g, sg):
        c = math.gcd(h.lc, g.lc)
        fh, fg = g.lc // c, h.lc // c
        d = {tuple(map(add, e, sh)): fh * v for e, v in h.d.items()}
        for e, v in g.d.items():
            e = tuple(map(add, e, sg))
            x = d.get(e, 0) - fg * v
            if x:
                d[e] = x
            else:
                d.pop(e, None)
        return self.make(d)

    def normal_form(self, h, basis):
        """Mora's weak normal form of h; None when it reduces to 0."""
        local = []
        while h is not None:
            best = None
            for g in basis + local:
                if _divides(g.lm, h.lm) and (best is None or g.ecart < best.ecart):
                    best = g
            if best is None:
                return h
            if best.ecart > h.ecart:
                local.append(h)
            self.steps += 1
            if self.steps > self.max_steps:
                raise ResourceLimitError(f"reduction budget of {self.max_steps} steps exhausted")
            h = self.combine(h, self.zero, best, tuple(map(sub, h.lm, best.lm)))
        return None

    def basis(self, rows):
        """The minimal standard basis of the ideal of rows, sorted by the
        degree of the leads and then by their exponents."""
        B = [self.make(dict(d)) for d in rows]
        if any(g.lm == self.zero for g in B):
            return [_Element({self.zero: 1}, self.zero)]
        pairs = [(*_lcm(B[j].lm, B[i].lm), j, i) for i in range(len(B)) for j in range(i)]
        heapq.heapify(pairs)
        while pairs:
            _, u, i, j = heapq.heappop(pairs)
            sf, sg = tuple(map(sub, u, B[i].lm)), tuple(map(sub, u, B[j].lm))
            h = self.normal_form(self.combine(B[i], sf, B[j], sg), B)
            if h is None:
                continue
            if h.lm == self.zero:
                return [_Element({self.zero: 1}, self.zero)]
            B.append(h)
            for i in range(len(B) - 1):
                heapq.heappush(pairs, (*_lcm(B[i].lm, h.lm), i, len(B) - 1))
        kept = []
        for g in sorted(B, key=lambda g: (sum(g.lm), g.lm)):
            if not any(_divides(k.lm, g.lm) for k in kept):
                kept.append(g)
        return kept


def _lcm(a, b):
    u = tuple(map(max, a, b))
    return sum(u), u


def _primitive(poly, ring):
    """The terms of poly in ring order as coprime integers; {} for 0."""
    terms = poly.with_ring(ring).terms
    if not terms:
        return {}
    den = math.lcm(*(c.denominator for c in terms.values()))
    num = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    content = math.gcd(*num.values())
    return {e: c // content for e, c in num.items()}


def _mora(I, key, max_steps):
    engine = _Mora(len(I.ring), key, max_steps)
    rows = [d for g in I.gens if (d := _primitive(g, I.ring))]
    return engine, engine.basis(rows)


def standard_basis(I, key=negdegrevlex, max_steps=10**6):
    """The minimal standard basis of I over Q under the local ordering
    key, each element divided by its leading coefficient."""
    _, basis = _mora(I, key, max_steps)
    polys = (Polynomial(I.ring, {e: Fraction(c, g.lc) for e, c in g.d.items()}) for g in basis)
    return IdealPresentation(I.ring, tuple(polys))


def leading_monomials(I, key=negdegrevlex, max_steps=10**6):
    """The exponents, in I.ring order, of the leads of standard_basis(I)."""
    return tuple(g.lm for g in _mora(I, key, max_steps)[1])


def in_ideal(p, I, key=negdegrevlex, max_steps=10**6):
    """Membership of p in I in the local ring: Mora's normal form of p
    against a standard basis of I is 0."""
    engine, basis = _mora(I, key, max_steps)
    row = _primitive(p, I.ring)
    return not row or engine.normal_form(engine.make(row), basis) is None


def staircase_count_bfs(leading, ring, cap=100000):
    """Count monomials outside a monomial ideal by breadth-first walk.

    leading holds the ideal's generators as exponent tuples in ring order.

    Independent of the recursive counter in the package. Returns the
    count, or ("at least", cap) if the walk exceeds the cap (infinite or
    just huge staircases).
    """
    lead = [dict(zip(ring, m)) for m in leading]

    def inside(exps):
        for lm in lead:
            if all(exps.get(v, 0) >= e for v, e in lm.items()):
                return True
        return False

    seen = {()}
    frontier = [{}]
    count = 0
    while frontier:
        nxt = []
        for exps in frontier:
            if inside(exps):
                continue
            count += 1
            if count > cap:
                return ("at least", cap)
            for v in ring:
                child = dict(exps)
                child[v] = child.get(v, 0) + 1
                key = tuple(sorted(child.items()))
                if key not in seen:
                    seen.add(key)
                    nxt.append(child)
        frontier = nxt
    return count


def brute_membership(p, gens, ring, colength):
    """Membership test for zero-dimensional ideals via truncation.

    Valid because m^colength lies in I, so p is in I iff its truncation
    at the colength lies in the truncated row space.
    """
    degree = colength + 1
    monos = monomials_up_to(ring, degree)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        for m in monos:
            row = {}
            for mono, coeff in g.with_ring(ring).terms.items():
                prod = tuple(map(add, m, mono))
                if sum(prod) <= degree:
                    row[index[prod]] = row.get(index[prod], Fraction(0)) + coeff
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    base = _sparse_rank(rows)
    target = {}
    for mono, coeff in p.with_ring(ring).terms.items():
        if sum(mono) <= degree:
            target[index[mono]] = coeff
        else:
            # deep terms are absorbed by m^colength, which is inside I
            continue
    if not target:
        return True
    return _sparse_rank(rows + [target]) == base


def fraction_pivot_profile(gens, nv, bound):
    """Pivots per degree of the image of J in O/m^(bound+1), over Q.

    The row-major reference for standard_basis._pivot_profile: every
    truncated monomial multiple of the generators, generator by generator
    and none skipped, is reduced by the pivot of every pivot column it
    meets, in Fraction arithmetic, with every stored pivot normalised to
    lead 1 by division. The counts per degree depend on the span alone,
    so the degree-major, fraction-free elimination with the F5 criterion
    must give the same. gens are exponent dicts with Fraction
    coefficients; counts[D] is the number of pivots in degree D.
    """
    # The column of e is the integer with digits (deg(e), e_1, ..., e_nv)
    # in base bound + 1, so columns order by degree and then exponent, and
    # the column of a product of monomials is the sum of their columns.
    radix = bound + 1
    weights = [radix ** (nv - i) for i in range(nv + 1)]
    base = weights[0]
    shifts = [0]
    for w in weights[1:]:
        shifts = [k + j * (base + w) for k in shifts for j in range(bound - k // base + 1)]
    shifts.sort()
    pivots = {}
    for g in gens:
        terms = []
        for e, c in g.items():
            deg = sum(e)
            terms.append((deg, sum(a * w for a, w in zip((deg,) + e, weights)), c))
        mindeg = min(deg for deg, _, _ in terms)
        for shift in shifts[: bisect.bisect_left(shifts, (bound - mindeg + 1) * base)]:
            room = bound - shift // base
            row = {col + shift: c for deg, col, c in terms if deg <= room}
            # Reducing at a column only brings in columns above it, so a
            # column the heap has handed out never comes back.
            todo = [col for col in row if col in pivots]
            heapq.heapify(todo)
            while todo:
                lead = heapq.heappop(todo)
                f = row.pop(lead, 0)
                if not f:
                    continue
                for col, v in pivots[lead].items():
                    x = row.get(col)
                    if x is None:
                        x = -f * v
                        if col in pivots:
                            heapq.heappush(todo, col)
                    else:
                        x -= f * v
                    if x:
                        row[col] = x
                    else:
                        del row[col]
            if row:
                lead = min(row)
                inv = 1 / row.pop(lead)
                pivots[lead] = {col: v * inv for col, v in row.items()}
    counts = [0] * (bound + 1)
    for lead in pivots:
        counts[lead // base] += 1
    return counts


def substitute_elimination(I):
    """standard_basis.eliminate_linear_generators by rational substitution.

    The same search, in the same generator and variable order, but each
    variable is replaced by -r/c through poly.substitute on Fraction
    polynomials: the reference the integer Horner substitution is checked
    against, term for term.
    """
    ring = list(I.ring)
    gens = [g.with_ring(tuple(ring)) for g in I.gens]
    audit = []
    while True:
        found = None
        for gi, g in enumerate(gens):
            if g.is_zero:
                continue
            for var in ring:
                if g.degree_in(var) != 1:
                    continue
                coeffs = g.coefficients_in(var)
                c1 = coeffs.get(1)
                if c1 is None or c1.degree() != 0:
                    continue
                found = (gi, var, c1.constant_term(), coeffs.get(0))
                break
            if found:
                break
        if not found:
            break
        gi, var, c, rest = found
        new_ring = tuple(v for v in ring if v != var)
        if rest is None or rest.is_zero:
            value = Polynomial.zero(new_ring)
        else:
            value = (rest * (Fraction(-1) / c)).with_ring(new_ring)
        audit.append(var)
        gens = [
            substitute(h, {var: value}).with_ring(new_ring)
            for hi, h in enumerate(gens)
            if hi != gi
        ]
        ring = list(new_ring)
    return IdealPresentation(tuple(ring), tuple(gens)), audit


def _divide_by_linear(numerator, va, vb):
    """Exact quotient numerator / (va - vb); raises if a remainder is left."""
    coeffs = numerator.coefficients_in(va)
    if not coeffs:
        return numerator
    d = max(coeffs)
    ring = numerator.ring
    zero = Polynomial.zero(ring)
    b = Polynomial.variable(vb, ring)
    quotient_coeffs = {}
    carry = zero
    for j in range(d, 0, -1):
        carry = coeffs.get(j, zero) + b * carry
        quotient_coeffs[j - 1] = carry
    remainder = coeffs.get(0, zero) + b * carry
    if not remainder.is_zero:
        raise ArithmeticError(f"polynomial is not divisible by ({va} - {vb})")
    result = zero
    for j, c in quotient_coeffs.items():
        result = result + c * Polynomial.variable(va, ring) ** j
    return result


def recursive_divided_difference(g, var, args):
    """Divided difference of g in var at args, by the classical recursion.

    With m+1 copies of one argument the value is the m-th derivative
    divided by m!; otherwise
        g[a_0..a_j] = (g[a_0..a_{j-1}] - g[a_1..a_j]) / (a_0 - a_j)
    over the sorted arguments, and the division is exact by symmetry. The
    result ring is the parameters of g, then the distinct arguments in
    first-appearance order.
    """
    args = tuple(args)
    if not args:
        raise EmptyArgsError("divided difference needs at least one argument")
    if var not in g.ring:
        raise UnknownVariableError(f"variable {var!r} not in ring {g.ring}")
    for a in args:
        if a in g.ring:
            raise ValueError(f"argument {a!r} collides with a ring variable")

    params = tuple(v for v in g.ring if v != var)
    ring_out = params + tuple(dict.fromkeys(args))
    memo = {}
    derivative_cache = {0: g}

    def nth_derivative(m):
        while m not in derivative_cache:
            top = max(derivative_cache)
            derivative_cache[top + 1] = derivative_cache[top].partial(var)
        return derivative_cache[m]

    def rec(sorted_args):
        if sorted_args in memo:
            return memo[sorted_args]
        count = len(sorted_args)
        if sorted_args[0] == sorted_args[-1]:
            m = count - 1
            value = nth_derivative(m) * Fraction(1, math.factorial(m))
            target = Polynomial.variable(sorted_args[0], ring_out)
            result = substitute(value, {var: target})
        else:
            left = rec(sorted_args[:-1])
            right = rec(sorted_args[1:])
            result = _divide_by_linear(left - right, sorted_args[0], sorted_args[-1])
        result = result.with_ring(ring_out)
        memo[sorted_args] = result
        return result

    return rec(tuple(sorted(args)))


def cofactor_determinant(matrix):
    """Determinant of a square matrix of polynomials by cofactor expansion
    along the first row, in Fraction arithmetic throughout."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = None
    for c in range(n):
        minor = [row[:c] + row[c + 1 :] for row in matrix[1:]]
        term = matrix[0][c] * cofactor_determinant(minor)
        if c % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _fraction_int(value, formula):
    if value.denominator != 1:
        raise NonIntegralChiError(
            f"{formula} evaluates to the non-integer {value}; "
            "the invariant tuple is not realizable by a map germ"
        )
    return int(value)


def _fraction_tuple(t):
    values = (t.mu_d2, t.mu_d2h, t.mu_d3, t.mu_d3h1, t.d2_nonempty, t.d3_nonempty, t.quad_points)
    return tuple(Fraction(v) for v in values)


def fraction_strata_chi(t):
    """euler.strata_chi(t).as_dict(), from the formulas as written, in
    Fraction arithmetic, each value checked to be an integer."""
    a, b, c, d, beta2, beta3, q = _fraction_tuple(t)
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    sheet = _fraction_int(
        1 - (half * (a + b) + sixth * (c + 3 * d + 2 * beta3) + q), "chi of the image"
    )
    double = _fraction_int(
        beta2 + half * (a - b) + third * (c - beta3) + 3 * q, "chi of the double point locus"
    )
    triple = _fraction_int(
        beta3 - (sixth * (c - 3 * d + 2 * beta3) + 3 * q), "chi of the triple point locus"
    )
    pinch = _fraction_int(beta2 - b, "chi of the pinch point locus")
    quadruple = _fraction_int(q, "chi of the quadruple points")
    crossing = _fraction_int(d + beta3, "chi of the pinch crossings")
    return {
        "chi_sheet": sheet,
        "chi_double": double,
        "chi_triple": triple,
        "chi_quadruple": quadruple,
        "chi_pinch": pinch,
        "chi_pinch_crossing": crossing,
        "pair_double": double - triple - pinch + crossing,
        "pair_triple": triple - quadruple - crossing,
        "pair_pinch": pinch - crossing,
    }


def fraction_chi_report(t):
    """euler.image_chi_report(t).as_dict(), from the formulas as written,
    in Fraction arithmetic and in the same order, so a tuple that is not
    realizable raises the same error."""
    a, b, c, d, beta2, beta3, q = _fraction_tuple(t)
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    mu = _fraction_int(
        half * (a + b) + sixth * (c + 3 * d + 2 * beta3) + q, "image Milnor number"
    )
    if mu < 0:
        raise NegativeMuImageError(
            f"image Milnor number {mu} is negative; the tuple is not realizable"
        )
    chi_mf = _fraction_int(
        1 + beta2 - (a + 2 * b + half * (c + 5 * d) + 2 * beta3 + 4 * q),
        "chi of the image Milnor fibre",
    )
    diff = _fraction_int(
        beta2 - (half * (a + 3 * b) + third * (c + 6 * d + 5 * beta3) + 3 * q),
        "chi difference between Milnor fibre and disentanglement",
    )
    strata = fraction_strata_chi(t)
    # transverse Milnor fibres: +1 along the pinch points, -1 elsewhere
    stratified = 1 - mu + strata["pair_pinch"] - sum(
        strata[k] for k in ("pair_double", "pair_triple", "chi_quadruple", "chi_pinch_crossing")
    )
    return {
        "invariants": t.as_dict(),
        "mu_image": mu,
        "chi_disentanglement": 1 - mu,
        "chi_mf": chi_mf,
        "chi_difference": diff,
        "strata": strata,
        "consistent": chi_mf == 1 - mu + diff == stratified,
    }
