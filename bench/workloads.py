"""The benchmark's workloads: their inputs, one operation, and its check.

Each workload is a fixed list of inputs. One pass runs every input once,
in an order shuffled by the benchmark seed, so every pass does the same
work and passes from different seeds are comparable.

The catalog workloads (table, quad, scaled) push one resolved catalog row
through invariant_tuple, image_chi_report and the canonical JSON dump,
which is what `singchi image-chi` and `singchi table1` do per row. The
kernel workload calls hypersurface_milnor on one parsed polynomial.

Every operation's answer is checked against a closed form. A workload's
`run` returns (result, canonical text) or raises a SingchiError, and its
`check` returns None for a right answer or a message for a wrong one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

QUAD_ROWS = ("I", "II", "III", "IV", "VIII")
SCALED_ROWS = ("P_13", "R_12", "S_{4,6}", "P_3^4")

KERNEL_RING = ("x", "y", "z")
KERNEL_POOL_SEED = 0
KERNEL_POOL_SIZE = 80
KERNEL_MAX_STEPS = 20000
NON_ISOLATED_ERROR = "NonIsolatedError"


@dataclass(frozen=True)
class Item:
    """One benchmark input: a stable key, a group for per-group figures,
    the payload the operation consumes and the expected answer."""

    key: str
    group: str
    payload: object
    expected: object = None


class CatalogWorkload:
    """Catalog rows through invariant_tuple and image_chi_report."""

    def __init__(self, rows=None):
        self.rows = rows

    def build(self, pkg) -> list:
        names = pkg.catalog.ACCEPTANCE_ROWS if self.rows is None else self.rows
        items = []
        for name in names:
            row = pkg.catalog.resolve_row(name)
            items.append(Item(key=row.name, group=row.name, payload=row))
        return items

    def run(self, pkg, item):
        t = pkg.multiple_points.invariant_tuple(item.payload.germ)
        rep = pkg.euler.image_chi_report(t)
        return rep, json.dumps(rep.as_dict(), sort_keys=True)

    def check(self, pkg, item, rep):
        row = item.payload
        if not rep.consistent:
            return "the three chi routes disagree"
        if rep.mu_image != row.mu_image:
            return f"mu_image {rep.mu_image}, catalog says {row.mu_image}"
        # The documented quadruple-row deviation: the catalog's minus-chi
        # omits 4 per quadruple point (see QUAD_CHI_NOTE).
        expected = row.minus_chi
        if row.note == pkg.catalog.QUAD_CHI_NOTE:
            expected += 4 * rep.invariants.quad_points
        if -rep.chi_mf != expected:
            return f"-chi_mf {-rep.chi_mf}, expected {expected}"
        return None


def _coefficient(rng) -> int:
    return rng.choice((1, 2, 3)) * rng.choice((1, -1))


def _monomial_text(exps) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(KERNEL_RING, exps) if e)


def _poly_text(terms) -> str:
    out = ""
    for c, exps in terms:
        body = _monomial_text(exps)
        if abs(c) != 1:
            body = f"{abs(c)}*{body}"
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def isolated_input(rng) -> tuple:
    """x^a + y^b + z^c plus two terms of weighted degree above 1.

    With weights 1/a, 1/b, 1/c the germ is semi-quasihomogeneous, so its
    Milnor number is (a-1)(b-1)(c-1) whatever the higher terms are.
    """
    a, b, c = (rng.randint(2, 6) for _ in range(3))
    above = [
        (i, j, k)
        for i in range(a + 1)
        for j in range(b + 1)
        for k in range(c + 1)
        if Fraction(i, a) + Fraction(j, b) + Fraction(k, c) > 1
    ]
    extra = rng.sample(above, 2)
    terms = [
        (_coefficient(rng), (a, 0, 0)),
        (_coefficient(rng), (0, b, 0)),
        (_coefficient(rng), (0, 0, c)),
    ]
    terms += [(_coefficient(rng), e) for e in sorted(extra)]
    return _poly_text(terms), (a - 1) * (b - 1) * (c - 1)


# Monomials in (y, z)^2 of total degree at most 7.
_SQUARED_YZ = [
    (i, j, k)
    for i in range(8)
    for j in range(8)
    for k in range(8)
    if j + k >= 2 and i + j + k <= 7
]


def non_isolated_input(rng) -> str:
    """2 to 4 terms in (y, z)^2: singular along the whole x-axis."""
    chosen = rng.sample(_SQUARED_YZ, rng.randint(2, 4))
    return _poly_text([(_coefficient(rng), e) for e in sorted(chosen)])


def kernel_texts(count=KERNEL_POOL_SIZE) -> list:
    """(text, group, expected mu or None), alternating isolated and not."""
    rng = random.Random(KERNEL_POOL_SEED)
    out = []
    for i in range(count):
        if i % 2 == 0:
            text, mu = isolated_input(rng)
            out.append((text, "isolated", mu))
        else:
            out.append((non_isolated_input(rng), "non_isolated", None))
    return out


class KernelWorkload:
    """Random hypersurfaces in x, y, z through hypersurface_milnor.

    The pool is drawn once from a fixed generator seed; the benchmark seed
    only orders it. Drawing the pool from the benchmark seed would make a
    pass cost whatever the few budget-exhausting inputs of that draw cost,
    seconds each, and no two seeds would be comparable.
    """

    def __init__(self, count=KERNEL_POOL_SIZE):
        self.count = count

    def build(self, pkg) -> list:
        return [
            Item(
                key=text,
                group=group,
                payload=pkg.poly.parse_poly(text, KERNEL_RING),
                expected=mu,
            )
            for text, group, mu in kernel_texts(self.count)
        ]

    def run(self, pkg, item):
        try:
            mu = pkg.milnor.hypersurface_milnor(item.payload, max_steps=KERNEL_MAX_STEPS)
        except pkg.errors.NonIsolatedError:
            return NON_ISOLATED_ERROR, json.dumps({"error": NON_ISOLATED_ERROR})
        return mu, json.dumps({"mu": mu})

    def check(self, pkg, item, result):
        expected = NON_ISOLATED_ERROR if item.expected is None else item.expected
        if result != expected:
            return f"got {result}, expected {expected}"
        return None


WORKLOADS = {
    "table": CatalogWorkload(),
    "quad": CatalogWorkload(QUAD_ROWS),
    "scaled": CatalogWorkload(SCALED_ROWS),
    "kernel": KernelWorkload(),
}
