"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is an ordered tuple of variable names (its ring), a
dictionary mapping monomial keys to nonzero int numerators, and one
positive denominator coprime to their content. A key is one int, with the
exponent of ring variable j in bits [16j, 16j + 16): x^2*y/2 over the
ring (x, y, z) is {2 + (1 << 16): 1} over 2, and the key of a product of
monomials is the sum of their keys. Exponents stay below 2^15: a
ValueError (ExponentLimitError from arithmetic) is raised past that.
Arithmetic runs on ints and reduces each result once; .terms reads
exponent tuples and Fractions, and the colength engine the keys and
numerators. Nothing here ever rounds.

Input is checked where it enters: the public Polynomial constructor,
parse_poly and with_ring. Arithmetic and the calculus below build their
results unchecked from operands already known to be well formed.

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

import functools
import math
import re
from collections.abc import Mapping
from fractions import Fraction
from operator import or_

from .errors import (
    EmptyArgsError,
    ExponentLimitError,
    PolyParseError,
    UnknownVariableError,
    ZeroDegreeError,
)

#: The width of an exponent field of a key, its mask, and the bound on
#: exponents, which leaves the top bit of each field as a guard bit.
_BITS = 16
_MASK = (1 << _BITS) - 1
_LIMIT = 1 << (_BITS - 1)


def _coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficient must be rational, got {type(value).__name__}")


def _check_ring(ring) -> tuple:
    ring = tuple(ring)
    if len(set(ring)) != len(ring):
        raise ValueError("duplicate variable in ring")
    return ring


def _key(exp, n: int) -> int:
    """The key of the exponent tuple exp in n variables, checked."""
    if not (isinstance(exp, tuple) and len(exp) == n
            and all(isinstance(e, int) and 0 <= e < _LIMIT for e in exp)):
        raise ValueError(f"exponent {exp!r} is not {n} ints in [0, {_LIMIT})")
    return sum(e << _BITS * j for j, e in enumerate(exp))


def _exponents(key: int, n: int) -> tuple:
    """The exponent tuple of key in n variables."""
    return tuple(key >> s & _MASK for s in range(0, _BITS * n, _BITS))


def _support(nums) -> int:
    """The OR of the keys of nums: a field is nonzero where some key's is."""
    return functools.reduce(or_, nums, 0)


def _degrees(nums, n: int, weights=None) -> list:
    """The total degree of each key of nums in n variables, in order, or,
    for positive int weights w_0..w_(n-1), its weighted degree sum w_j*a_j.

    A key times c = sum w_j*2^(16*(n-1-j)) (ones, a 1 in every field, for
    the total degree) carries sum w_j*a_j in its top field. Field q of the
    product, up to the top one, sums a_j*w_k over distinct j <= q, so it is
    at most the largest weight times the prefix sum a_0 + ... + a_q, and
    every field reads exactly while that stays below 2^16. Each field of
    the keys' OR is the largest of that field, so when the OR's fields sum,
    times the largest weight, below 2^16 every key reads exactly;
    otherwise every key is unpacked.
    """
    top = _BITS * max(n - 1, 0)
    if weights is None:
        big, c = 1, _ones(n)
    else:
        big, c = max(weights), sum(w << top - _BITS * j for j, w in enumerate(weights))
    if sum(_exponents(_support(nums), n)) * big >> _BITS:
        if weights is None:
            return [sum(_exponents(m, n)) for m in nums]
        return [sum(a * w for a, w in zip(_exponents(m, n), weights)) for m in nums]
    return [m * c >> top & _MASK for m in nums]


@functools.lru_cache(maxsize=None)
def _ones(n: int) -> int:
    """The key with a 1 in each of its n fields."""
    return sum(1 << _BITS * j for j in range(n))


@functools.lru_cache(maxsize=None)
def _guard(bits: int) -> int:
    """The guard bits of every field below bit `bits`."""
    return int("8000" * (bits // _BITS + 1), 16)


def _poly(ring: tuple, nums: dict, den: int = 1) -> "Polynomial":
    """The unchecked constructor: nums must already be keyed by monomial
    keys over ring and hold only nonzero ints, and den be positive and
    coprime to their content."""
    p = object.__new__(Polynomial)
    p.ring, p.nums, p.den = ring, nums, den
    return p


def _reduced(ring: tuple, nums: dict, den: int) -> "Polynomial":
    """nums / den, nonzero int numerators over a nonzero den, in lowest
    terms and over a positive denominator."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {m: c // g for m, c in nums.items()}
            den //= g
    return _poly(ring, nums, den)


def _constant(value, ring: tuple) -> "Polynomial":
    """value, an int or a Fraction, as a constant over ring."""
    if not value:
        return _poly(ring, {})
    return _poly(ring, {0: value.numerator}, value.denominator)


def _add_into(acc: dict, terms: dict) -> None:
    """Add terms into acc in place, dropping what cancels."""
    for m, c in terms.items():
        x = acc.get(m)
        if x is None:
            acc[m] = c
        else:
            x += c
            if x:
                acc[m] = x
            else:
                del acc[m]


def _mul_into(acc: dict, left: dict, right: dict, negate: bool = False) -> None:
    """Add (or subtract) the product of two term dicts over one ring into
    acc in place; cancelled terms stay as zeros. ExponentLimitError if an
    exponent reaches _LIMIT, which a guard bit of the supports' sum flags."""
    top = _support(left) + _support(right)
    guard = _guard(top.bit_length())
    if top & guard and any(m1 + m2 & guard for m1 in left for m2 in right):
        raise ExponentLimitError(f"an exponent of a product reaches {_LIMIT}")
    for m1, c1 in left.items():
        if negate:
            c1 = -c1
        for m2, c2 in right.items():
            m = m1 + m2
            x = acc.get(m)
            acc[m] = c1 * c2 if x is None else x + c1 * c2


def _times(nums: dict, k: int) -> dict:
    """nums times the int k, which must not be zero."""
    return nums if k == 1 else {m: c * k for m, c in nums.items()}


class _Terms(Mapping):
    """A polynomial's terms as exponent tuples -> Fractions: a view of nums."""

    __slots__ = ("_nums", "_den", "_n")

    def __init__(self, nums: dict, den: int, n: int):
        self._nums, self._den, self._n = nums, den, n

    def __len__(self):
        return len(self._nums)

    def __iter__(self):
        return (_exponents(m, self._n) for m in self._nums)

    def __getitem__(self, exp):
        try:
            return Fraction(self._nums[_key(exp, self._n)], self._den)
        except ValueError:
            raise KeyError(exp) from None

    def items(self):
        n, den = self._n, self._den
        return {_exponents(m, n): Fraction(c, den) for m, c in self._nums.items()}.items()


class Polynomial:
    """A sparse polynomial with rational coefficients over a declared ring.

    The ring is an ordered tuple of variable names, and nums maps monomial
    keys over it to nonzero int numerators over the positive denominator
    den (module docstring). The constructor checks every exponent tuple (a
    tuple of non-negative ints below 2^15, one per ring variable) and every
    coefficient (int or Fraction); results of arithmetic are built without
    checks. Instances are treated as immutable.

    Operands over different rings are first re-ringed to their union (the
    left ring, then the right one's new variables). Equality and hashing
    compare the terms by variable name, so the same polynomial declared
    over two different rings is considered equal.
    """

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring, terms=None):
        ring = _check_ring(ring)
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for exp, coeff in items:
                m = _key(exp, len(ring))
                clean[m] = clean.get(m, 0) + _coeff(coeff)
        # over the lcm of the reduced denominators the form is the one above
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.ring = ring
        self.nums = {m: c.numerator * (den // c.denominator) for m, c in clean.items() if c}
        self.den = den

    @property
    def terms(self) -> Mapping:
        """The terms as exponent tuples -> Fraction coefficients."""
        return _Terms(self.nums, self.den, len(self.ring))

    @staticmethod
    def zero(ring) -> "Polynomial":
        return _poly(_check_ring(ring), {})

    @staticmethod
    def constant(value, ring) -> "Polynomial":
        return _constant(_coeff(value), _check_ring(ring))

    @staticmethod
    def variable(name: str, ring) -> "Polynomial":
        ring = _check_ring(ring)
        if name not in ring:
            raise UnknownVariableError(f"variable {name!r} not in ring {ring}")
        return _poly(ring, {1 << _BITS * ring.index(name): 1})

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def constant_term(self):
        """The value at the origin: a Fraction, or the int 0 when the zero
        key has no term."""
        c = self.nums.get(0)
        return 0 if c is None else Fraction(c, self.den)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(_degrees(self.nums, len(self.ring)), default=-1)

    def degree_in(self, var: str) -> int:
        if not self.nums:
            return -1
        if var not in self.ring:
            return 0
        s = _BITS * self.ring.index(var)
        return max(m >> s & _MASK for m in self.nums)

    def coefficient(self, exp: tuple) -> Fraction:
        """The coefficient of the monomial with exponents exp (ring order)."""
        return self.terms.get(exp, Fraction(0))

    def coefficients_in(self, var: str) -> dict:
        """Split into {power of var: polynomial coefficient} (var removed)."""
        if var not in self.ring:
            return {0: self} if self.nums else {}
        s = _BITS * self.ring.index(var)
        out = {}
        for m, c in self.nums.items():
            out.setdefault(m >> s & _MASK, {})[m & ~(_MASK << s)] = c
        return {e: _reduced(self.ring, bucket, self.den) for e, bucket in out.items()}

    def partial(self, var: str) -> "Polynomial":
        if var not in self.ring:
            raise UnknownVariableError(f"variable {var!r} not in ring {self.ring}")
        s = _BITS * self.ring.index(var)
        terms = {}
        for m, c in self.nums.items():
            e = m >> s & _MASK
            if e:
                terms[m - (1 << s)] = c * e
        return _reduced(self.ring, terms, self.den)

    def _align(self, other: "Polynomial"):
        """(self, other) re-ringed to one ring: self's, then other's new variables."""
        if other.ring == self.ring:
            return self, other
        ring = self.ring + tuple(v for v in other.ring if v not in self.ring)
        return self.with_ring(ring), other.with_ring(ring)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        return _constant(_coeff(other), self.ring)

    def __add__(self, other):
        a, b = self._align(self._coerce(other))
        den = math.lcm(a.den, b.den)
        nums = dict(_times(a.nums, den // a.den))
        _add_into(nums, _times(b.nums, den // b.den))
        return _reduced(a.ring, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ring, {m: -c for m, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return _poly(self.ring, {})
            nums = _times(self.nums, other.numerator)
            return _reduced(self.ring, nums, self.den * other.denominator)
        a, b = self._align(other)
        acc = {}
        _mul_into(acc, a.nums, b.nums)
        return _reduced(a.ring, {m: c for m, c in acc.items() if c}, a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = _constant(1, self.ring)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _constant(other, self.ring)
        if not isinstance(other, Polynomial):
            return False
        a, b = self._align(other)
        return a.den == b.den and a.nums == b.nums

    def __hash__(self):
        # over the variables in use, sorted by name: the same for every ring
        used = _support(self.nums)
        names = sorted(v for i, v in enumerate(self.ring) if used >> _BITS * i & _MASK)
        return hash((frozenset(self.with_ring(names).nums.items()), self.den))

    def with_ring(self, ring) -> "Polynomial":
        """The same polynomial over ring, which must declare every variable
        a term uses (UnknownVariableError otherwise). An extension, or a
        prefix holding every variable in use, shares the term dict."""
        if tuple(ring) == self.ring:
            return self
        ring = _check_ring(ring)
        used = _support(self.nums)
        n = min(len(ring), len(self.ring))
        if ring[:n] == self.ring[:n] and not used >> _BITS * n:
            return _poly(ring, self.nums, self.den)
        # the fields in use that move by one offset move as one mask
        moves = {}
        for i, v in enumerate(self.ring):
            if used >> _BITS * i & _MASK:
                if v not in ring:
                    raise UnknownVariableError(f"variable {v!r} not in ring {ring}")
                d = _BITS * (ring.index(v) - i)
                moves[d] = moves.get(d, 0) | _MASK << _BITS * i
        moves = [(mask, max(d, 0), max(-d, 0)) for d, mask in moves.items()]
        nums = {}
        for m, c in self.nums.items():
            key = 0
            for mask, up, down in moves:
                key |= (m & mask) << up >> down
            nums[key] = c
        return _poly(ring, nums, self.den)

    def __str__(self):
        if not self.nums:
            return "0"
        # terms by descending (degree, exponent vector); inside a monomial
        # the variables go by name
        n = len(self.ring)
        named = sorted(range(n), key=self.ring.__getitem__)
        ordered = sorted(((_exponents(m, n), c) for m, c in self.nums.items()),
                         key=lambda t: (sum(t[0]), t[0]), reverse=True)
        pieces = []
        for m, c in ordered:
            coeff = Fraction(c, self.den)
            body = "*".join(
                self.ring[i] if m[i] == 1 else f"{self.ring[i]}^{m[i]}" for i in named if m[i]
            )
            if body:
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
        self.ring = _check_ring(ring)
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
                return _constant(Fraction(numerator, int(v)), self.ring)
            return _constant(numerator, self.ring)
        if kind == "ident":
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

    moved = [(_BITS * i, v) for i, v in enumerate(p.ring) if v in assignment]
    mask = sum(_MASK << i for i, _ in moved)
    # Collect p by the exponents of the substituted variables, so each
    # distinct pattern of them costs one product.
    groups = {}
    for m, c in p.nums.items():
        groups.setdefault(m & mask, {})[m & ~mask] = c
    # each part holds numerators of p, over p.den, divided out at the end
    power_cache = {}
    total = _poly(ring_out, {})
    for pattern, part in groups.items():
        piece = _poly(p.ring, part).with_ring(ring_out)
        for i, var in moved:
            e = pattern >> i & _MASK
            if not e:
                continue
            if (var, e) not in power_cache:
                value = assignment[var]
                if isinstance(value, Polynomial):
                    base = value.with_ring(ring_out)
                else:
                    base = _constant(_coeff(value), ring_out)
                power_cache[var, e] = base**e
            piece = piece * power_cache[var, e]
        total = total + piece
    return total * Fraction(1, p.den)


def jacobian(polys, variables) -> list:
    """Matrix of partial derivatives, one row per polynomial."""
    return [[p.partial(v) for v in variables] for p in polys]


def determinant(matrix) -> Polynomial:
    """Determinant of a square matrix of polynomials.

    Expansion over column subsets (Laplace with memoization), which is
    fast for the small matrices that arise here. Each row is brought over
    the lcm L_i of its denominators, so the expansion runs on the
    numerators, and the result is over the product of the L_i. Entries
    are re-ringed to the union of their rings, in row-major order of first
    appearance.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 1:
        return matrix[0][0]
    ring = tuple(dict.fromkeys(v for row in matrix for entry in row for v in entry.ring))
    rows = []
    scale = 1
    for row in matrix:
        row = [entry.with_ring(ring) for entry in row]
        den = math.lcm(*(entry.den for entry in row))
        scale *= den
        rows.append([_times(entry.nums, den // entry.den) for entry in row])
    prev = {0: {0: 1}}
    for r in range(n):
        cur = {}
        for mask, acc in prev.items():
            # products that cancelled are still in acc, as zeros
            val = {m: k for m, k in acc.items() if k}
            for c in range(n):
                bit = 1 << c
                if mask & bit or not val or not rows[r][c]:
                    continue
                # parity of inversions added: used columns to the right of c
                negate = (mask >> (c + 1)).bit_count() & 1
                _mul_into(cur.setdefault(mask | bit, {}), val, rows[r][c], negate)
        prev = cur
    full = prev.get((1 << n) - 1, {})
    return _reduced(ring, {m: k for m, k in full.items() if k}, scale)


def resultant(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    """Sylvester resultant of p and q with respect to var.

    Both arguments must have positive degree in var. The result is a
    polynomial in the remaining variables.
    """
    m = p.degree_in(var)
    n = q.degree_in(var)
    if m <= 0 or n <= 0:
        raise ZeroDegreeError(f"both polynomials must have positive degree in {var!r}")
    p, q = p._align(q)
    pc = p.coefficients_in(var)
    qc = q.coefficients_in(var)
    zero = _poly(p.ring, {})
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


@functools.lru_cache(maxsize=1024)
def _node_powers(degree: int, multiplicities: tuple, at: int) -> tuple:
    """The terms of h_degree over nodes from ring variable at on, as (key, weight).

    multiplicities[i] is how often node i repeats; the weight of the
    monomial with exponents e is prod_i C(e_i + r_i - 1, r_i - 1), the
    number of ways to spread e_i over the r_i copies of node i. The terms
    depend on nothing else, so they are cached, as a tuple nobody can
    change.
    """
    r = multiplicities[0]
    if len(multiplicities) == 1:
        return ((degree << _BITS * at, math.comb(degree + r - 1, r - 1)),)
    return tuple(
        (e << _BITS * at | rest, math.comb(e + r - 1, r - 1) * w)
        for e in range(degree + 1)
        for rest, w in _node_powers(degree - e, multiplicities[1:], at + 1)
    )


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

    i = g.ring.index(var)
    params = g.ring[:i] + g.ring[i + 1 :]
    nodes = tuple(dict.fromkeys(args))
    multiplicities = tuple(args.count(a) for a in nodes)
    shift = len(args) - 1
    terms = {}
    s, low = _BITS * i, (1 << _BITS * i) - 1
    # Parameter parts and node parts share no variable, and h_d has node
    # degree d, so every product below is a distinct monomial.
    for m, coeff in g.nums.items():
        d = (m >> s & _MASK) - shift
        if d < 0:
            continue
        rest = m & low | m >> s + _BITS << s
        for node_key, weight in _node_powers(d, multiplicities, len(params)):
            terms[rest | node_key] = coeff if weight == 1 else coeff * weight
    return _reduced(params + nodes, terms, g.den)
