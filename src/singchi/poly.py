"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are dictionaries mapping monomials to nonzero Fraction
coefficients, tagged with an ordered tuple of variable names (the ring).
All arithmetic is exact; nothing here ever rounds.

The module also carries the small amount of symbolic calculus the rest of
the package needs: substitution, partial derivatives, Jacobian matrices,
determinants of polynomial matrices, Sylvester resultants, and divided
differences. Those are taken in closed form: the divided difference of
z^m over nodes a_1..a_j is the complete homogeneous symmetric polynomial
h_(m-j+1)(a_1..a_j), and repeated (confluent) nodes are just a multiset
in it, so no derivative and no exact division is ever taken. These are
the generators of the multiple point spaces of Marar and Mond, "Multiple
point schemes for corank 1 maps" (J. London Math. Soc., 1989).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import (
    EmptyArgsError,
    PolyParseError,
    UnknownVariableError,
    ZeroDegreeError,
)

Coeff = Fraction


def _coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficient must be rational, got {type(value).__name__}")


class Monomial:
    """A power product of variables, e.g. x^2*y.

    Stored as a tuple of (variable, exponent) pairs sorted by variable name,
    with zero exponents dropped, so equal monomials compare and hash equal
    regardless of the ring they came from.
    """

    __slots__ = ("exps", "_hash")

    def __init__(self, exps=()):
        pairs = tuple(sorted((v, int(e)) for v, e in dict(exps).items() if e))
        for v, e in pairs:
            if e < 0:
                raise ValueError(f"negative exponent for {v}")
        self.exps = pairs
        self._hash = hash(pairs)

    @staticmethod
    def one() -> "Monomial":
        return _MONO_ONE

    @staticmethod
    def variable(name: str, power: int = 1) -> "Monomial":
        return Monomial(((name, power),))

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def exponent(self, var: str) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def as_dict(self) -> dict:
        return dict(self.exps)

    def variables(self) -> tuple:
        return tuple(v for v, _ in self.exps)

    def mul(self, other: "Monomial") -> "Monomial":
        if not self.exps:
            return other
        if not other.exps:
            return self
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged.get(v, 0) + e
        return Monomial(merged)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.exps:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)


_MONO_ONE = Monomial()


class Polynomial:
    """A sparse polynomial with Fraction coefficients over a declared ring.

    The ring is an ordered tuple of variable names; every variable that
    occurs in a term must be declared. Instances are treated as immutable.
    Equality and hashing compare terms only, so the same polynomial declared
    over two different rings is considered equal.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        ring = tuple(ring)
        if len(set(ring)) != len(ring):
            raise ValueError("duplicate variable in ring")
        declared = set(ring)
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, coeff in items:
                coeff = _coeff(coeff)
                if not coeff:
                    continue
                for v in mono.variables():
                    if v not in declared:
                        raise UnknownVariableError(f"variable {v!r} not in ring {ring}")
                clean[mono] = clean.get(mono, Fraction(0)) + coeff
                if not clean[mono]:
                    del clean[mono]
        self.ring = ring
        self.terms = clean

    @staticmethod
    def zero(ring) -> "Polynomial":
        return Polynomial(ring)

    @staticmethod
    def one(ring) -> "Polynomial":
        return Polynomial(ring, {_MONO_ONE: Fraction(1)})

    @staticmethod
    def constant(value, ring) -> "Polynomial":
        return Polynomial(ring, {_MONO_ONE: _coeff(value)})

    @staticmethod
    def variable(name: str, ring) -> "Polynomial":
        if name not in ring:
            raise UnknownVariableError(f"variable {name!r} not in ring {tuple(ring)}")
        return Polynomial(ring, {Monomial.variable(name): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get(_MONO_ONE, Fraction(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree() for m in self.terms)

    def degree_in(self, var: str) -> int:
        if not self.terms:
            return -1
        return max(m.exponent(var) for m in self.terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def coefficients_in(self, var: str) -> dict:
        """Split into {power of var: polynomial coefficient} (var removed)."""
        out = {}
        for mono, coeff in self.terms.items():
            e = mono.exponent(var)
            rest = {v: k for v, k in mono.exps if v != var}
            bucket = out.setdefault(e, {})
            m = Monomial(rest)
            bucket[m] = bucket.get(m, Fraction(0)) + coeff
        return {e: Polynomial(self.ring, bucket) for e, bucket in out.items()}

    def partial(self, var: str) -> "Polynomial":
        if var not in self.ring:
            raise UnknownVariableError(f"variable {var!r} not in ring {self.ring}")
        terms = {}
        for mono, coeff in self.terms.items():
            e = mono.exponent(var)
            if not e:
                continue
            reduced = dict(mono.exps)
            reduced[var] = e - 1
            terms[Monomial(reduced)] = coeff * e
        return Polynomial(self.ring, terms)

    def _merged_ring(self, other: "Polynomial") -> tuple:
        if other.ring == self.ring:
            return self.ring
        extra = tuple(v for v in other.ring if v not in self.ring)
        return self.ring + extra

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        return Polynomial.constant(other, self.ring)

    def __add__(self, other):
        other = self._coerce(other)
        ring = self._merged_ring(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return Polynomial(ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if not c:
                return Polynomial(self.ring)
            return Polynomial(self.ring, {m: k * c for m, k in self.terms.items()})
        ring = self._merged_ring(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return Polynomial(ring, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one(self.ring)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.ring)
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def with_ring(self, ring) -> "Polynomial":
        return Polynomial(ring, self.terms)

    def _print_key(self, mono: Monomial):
        vec = tuple(mono.exponent(v) for v in self.ring)
        return (mono.degree(), vec)

    def __str__(self):
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=self._print_key, reverse=True)
        pieces = []
        for mono in ordered:
            coeff = self.terms[mono]
            body = repr(mono)
            if mono.exps:
                if abs(coeff) == 1:
                    text = body
                else:
                    text = f"{abs(coeff)}*{body}"
            else:
                text = str(abs(coeff))
            if not pieces:
                pieces.append(text if coeff > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Polynomial({self.ring!r}, {self})"


# ---------------------------------------------------------------------------
# Parsing
#
# Grammar (whitespace insignificant, no implicit multiplication):
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := ('+'|'-')* power
#   power  := atom ('^' INTEGER)?
#   atom   := INTEGER ('/' INTEGER)? | IDENT | '(' expr ')'
#   IDENT  := [a-z][a-zA-Z0-9_]*
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<ident>[a-z][a-zA-Z0-9_]*)|(?P<op>[-+*^/()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolyParseError(f"unexpected character {stripped[0]!r}", pos + len(text[pos:]) - len(stripped))
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ring):
        self.text = text
        self.ring = tuple(ring)
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise PolyParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Polynomial:
        result = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {value!r}", pos)
        return result

    def expr(self) -> Polynomial:
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.factor()
            else:
                return result

    def factor(self) -> Polynomial:
        sign = 1
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                if value == "-":
                    sign = -sign
            else:
                break
        result = self.power()
        return result if sign > 0 else -result

    def power(self) -> Polynomial:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.advance()
            if kind != "num":
                raise PolyParseError("exponent must be a non-negative integer", pos)
            return base ** int(value)
        return base

    def atom(self) -> Polynomial:
        kind, value, pos = self.advance()
        if kind == "num":
            numerator = int(value)
            k, v, p = self.peek()
            if k == "op" and v == "/":
                self.advance()
                k, v, p = self.advance()
                if k != "num":
                    raise PolyParseError("expected integer denominator", p)
                if int(v) == 0:
                    raise PolyParseError("zero denominator", p)
                return Polynomial.constant(Fraction(numerator, int(v)), self.ring)
            return Polynomial.constant(numerator, self.ring)
        if kind == "ident":
            if value not in self.ring:
                raise UnknownVariableError(f"variable {value!r} not in ring {self.ring}")
            return Polynomial.variable(value, self.ring)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise PolyParseError(f"unexpected {value!r}" if value else "unexpected end of input", pos)


def parse_poly(text: str, ring) -> Polynomial:
    """Parse polynomial text over the given ring. Exact round-trip with str()."""
    return _Parser(text, ring).parse()


# ---------------------------------------------------------------------------
# Substitution and calculus
# ---------------------------------------------------------------------------


def substitute(p: Polynomial, assignment: dict) -> Polynomial:
    """Substitute polynomials (or rational constants) for variables, exactly.

    Unassigned variables pass through. The result ring keeps the untouched
    variables of p in order, then appends any new variables introduced by
    the substituted values in first-appearance order.
    """
    for var in assignment:
        if var not in p.ring:
            raise UnknownVariableError(f"variable {var!r} not in ring {p.ring}")

    ring_out = [v for v in p.ring if v not in assignment]
    for var in p.ring:
        if var in assignment:
            value = assignment[var]
            if isinstance(value, Polynomial):
                for w in value.ring:
                    if w not in ring_out:
                        ring_out.append(w)
    ring_out = tuple(ring_out)

    result = Polynomial.zero(ring_out)
    power_cache = {}
    for mono, coeff in p.terms.items():
        acc = Polynomial.constant(coeff, ring_out)
        for var, e in mono.exps:
            if var in assignment:
                key = (var, e)
                if key not in power_cache:
                    value = assignment[var]
                    base = value if isinstance(value, Polynomial) else Polynomial.constant(value, ring_out)
                    power_cache[key] = base ** e
                acc = acc * power_cache[key]
            else:
                acc = acc * Polynomial(ring_out, {Monomial.variable(var, e): Fraction(1)})
        result = result + acc
    return result


def jacobian(polys, variables) -> list:
    """Matrix of partial derivatives, one row per polynomial."""
    return [[p.partial(v) for v in variables] for p in polys]


def determinant(matrix) -> Polynomial:
    """Determinant of a square matrix of polynomials.

    Expansion over column subsets (Laplace with memoization), which avoids
    the exact-division bookkeeping of fraction-free elimination and is fast
    for the small matrices that arise here.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    ring = matrix[0][0].ring
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 1:
        return matrix[0][0]
    prev = {0: Polynomial.one(ring)}
    for r in range(n):
        cur = {}
        for mask, val in prev.items():
            if val.is_zero:
                continue
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    continue
                entry = matrix[r][c]
                if entry.is_zero:
                    continue
                piece = val * entry
                # parity of inversions added: used columns to the right of c
                if (mask >> (c + 1)).bit_count() & 1:
                    piece = -piece
                key = mask | bit
                cur[key] = cur.get(key, Polynomial.zero(ring)) + piece
        prev = cur
    full = (1 << n) - 1
    return prev.get(full, Polynomial.zero(ring))


def resultant(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    """Sylvester resultant of p and q with respect to var.

    Both arguments must have positive degree in var. The result is a
    polynomial in the remaining variables.
    """
    m = p.degree_in(var)
    n = q.degree_in(var)
    if m <= 0 or n <= 0:
        raise ZeroDegreeError(f"both polynomials must have positive degree in {var!r}")
    ring = p._merged_ring(q)
    pc = {e: c.with_ring(ring) for e, c in p.coefficients_in(var).items()}
    qc = {e: c.with_ring(ring) for e, c in q.coefficients_in(var).items()}
    zero = Polynomial.zero(ring)
    size = m + n
    rows = []
    for shift in range(n):
        row = [zero] * size
        for e, c in pc.items():
            row[shift + (m - e)] = c
        rows.append(row)
    for shift in range(m):
        row = [zero] * size
        for e, c in qc.items():
            row[shift + (n - e)] = c
        rows.append(row)
    return determinant(rows)


# ---------------------------------------------------------------------------
# Divided differences
# ---------------------------------------------------------------------------


def _node_powers(degree: int, multiplicities) -> list:
    """The terms of h_degree over a multiset of nodes, as (exponents, weight).

    multiplicities[i] is how often node i repeats; the weight of the
    monomial with exponents e is prod_i C(e_i + r_i - 1, r_i - 1), the
    number of ways to spread e_i over the r_i copies of node i.
    """
    r = multiplicities[0]
    if len(multiplicities) == 1:
        return [((degree,), math.comb(degree + r - 1, r - 1))]
    out = []
    for e in range(degree + 1):
        weight = math.comb(e + r - 1, r - 1)
        for rest, w in _node_powers(degree - e, multiplicities[1:]):
            out.append(((e,) + rest, weight * w))
    return out


def divided_difference(g: Polynomial, var: str, args) -> Polynomial:
    """Divided difference of g in the distinguished variable var at args.

    args is a sequence of fresh variable names a_1..a_j. Writing
    g = sum_m c_m z^m with z = var and c_m free of z, the value is

        g[a_1..a_j] = sum_m c_m * h_(m-j+1)(a_1..a_j),

    with h_d the complete homogeneous symmetric polynomial of degree d
    (zero for d < 0). Repeated arguments need no separate confluent rule:
    they form a multiset, and in h_d the coefficient of prod_v v^(e_v) is
    prod_v C(e_v + r_v - 1, r_v - 1), where r_v is how often v repeats.
    With m+1 copies of one argument this is the m-th derivative over m!.
    These are the multiple point generators of Marar and Mond, "Multiple
    point schemes for corank 1 maps" (J. London Math. Soc., 1989).

    The result ring is the variables of g other than var, then the
    distinct arguments in first-appearance order.
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
    nodes = tuple(dict.fromkeys(args))
    multiplicities = [args.count(a) for a in nodes]
    shift = len(args) - 1
    h = {}
    terms = {}
    # Parameter parts and node parts share no variable, and h_d has node
    # degree d, so every product below is a distinct monomial.
    for mono, coeff in g.terms.items():
        d = mono.exponent(var) - shift
        if d < 0:
            continue
        if d not in h:
            h[d] = [(tuple(zip(nodes, e)), w) for e, w in _node_powers(d, multiplicities)]
        rest = tuple(pair for pair in mono.exps if pair[0] != var)
        for node_exps, weight in h[d]:
            terms[Monomial(rest + node_exps)] = coeff * weight
    return Polynomial(params + nodes, terms)
