"""Command line front end.

Every command prints one JSON report to stdout and uses the exit code to
say how it went: 0 for success, 1 for a computational failure (including
an expected-value mismatch in the table command), 2 for usage errors.
Reports are deterministic for a fixed invocation and seed: keys are
sorted, integers are exact, and rationals are printed as fraction
strings, never floats.

Germs, ideals and unfoldings arrive as inline JSON, as a path to a UTF-8
JSON file, or (for germs) as a catalog row name.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .catalog import (
    ACCEPTANCE_ROWS,
    DEFAULT_MODULI,
    CatalogRow,
    catalog_names,
    resolve_row,
)
from .errors import BadParamsError, SingchiError, UnknownEntryError
from .euler import (
    StratumDatum,
    equidim_chi_check,
    image_chi_report,
    stratified_euler_difference,
    zariski_chi,
)
from .family import family_check, unfolding
from .milnor import hypersurface_milnor, icis_milnor
from .multiple_points import (
    MapGerm,
    invariant_tuple,
    map_germ,
    multiple_point_ideal,
    partition_restricted_ideal,
)
from .poly import parse_poly
from .standard_basis import (
    DEFAULT_MAX_STEPS,
    RATIONAL,
    IdealPresentation,
    is_unit_ideal,
    prime_field,
)

SCHEMA = 1


class UsageError(Exception):
    """Bad inputs at the CLI boundary; maps to exit code 2."""


def _parse_field(text: str, out=None):
    if text == "rational":
        return RATIONAL
    if text.startswith("fp:"):
        try:
            p = int(text[3:], 10)
            field = prime_field(p)
        except ValueError:
            raise UsageError(f"--field {text!r} does not name a prime")
        print(
            f"warning: computing over the prime field with {p} elements; "
            "results are probabilistic, not certified",
            file=out if out is not None else sys.stderr,
        )
        return field
    raise UsageError(f"--field must be 'rational' or 'fp:PRIME', got {text!r}")


def _load_json_arg(text: str):
    """Inline JSON or a path to a JSON file."""
    candidate = text.lstrip()
    if candidate.startswith("{") or candidate.startswith("["):
        source = text
    elif os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            source = fh.read()
    else:
        raise UsageError(f"{text!r} is neither inline JSON nor an existing file")
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON: {exc}")


def _poly_texts(data, key) -> tuple:
    """data[key] as a tuple of polynomial strings."""
    texts = data[key]
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise UsageError(f'"{key}" must be a list of polynomial strings')
    return tuple(texts)


def _germ_from_json(data) -> MapGerm:
    if not isinstance(data, dict) or "vars" not in data or "components" not in data:
        raise UsageError('germ JSON needs "vars" and "components" lists')
    return map_germ(tuple(data["vars"]), _poly_texts(data, "components"))


def _germ_arg(text: str, params, moduli):
    """Returns (germ, catalog row or None)."""
    candidate = text.lstrip()
    if candidate.startswith("{") or os.path.exists(text):
        return _germ_from_json(_load_json_arg(text)), None
    row = resolve_row(text, params=params, moduli=moduli)
    return row.germ, row


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise UsageError(f"--param expects NAME=INTEGER, got {pair!r}")
        try:
            params[name] = int(value, 10)
        except ValueError:
            raise UsageError(f"parameter {name!r} must be an integer, got {value!r}")
    return params


def _parse_moduli(text):
    if text is None:
        return DEFAULT_MODULI
    try:
        parts = tuple(int(v, 10) for v in text.split(","))
    except ValueError:
        raise UsageError(f"--moduli expects comma-separated integers, got {text!r}")
    if len(parts) != 3:
        raise UsageError("--moduli expects exactly three integers")
    return parts


def _split_row_names(text: str) -> tuple:
    """Split a comma-separated row list, keeping commas inside braces.

    Row names like S_{1,2} contain literal commas, so a plain split
    would shred them.
    """
    names, buf, depth = [], [], 0
    for ch in text:
        if ch == "," and depth == 0:
            names.append("".join(buf).strip())
            buf = []
            continue
        depth += ch == "{"
        depth -= ch == "}"
        buf.append(ch)
    names.append("".join(buf).strip())
    return tuple(n for n in names if n)


def _parse_rationals(text) -> tuple:
    values = []
    for part in text.split(","):
        part = part.strip()
        try:
            values.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"{part!r} is not a rational number")
    return tuple(values)


def _vars_tuple(text: str) -> tuple:
    names = tuple(v.strip() for v in text.split(",") if v.strip())
    if not names:
        raise UsageError("--vars expects a comma-separated variable list")
    return names


def _dump(report: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(report, indent=2, sort_keys=True)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _row_echo(row: CatalogRow) -> dict:
    echo = {
        "name": row.name,
        "components": [str(c) for c in row.germ.components],
        "expected_mu_image": row.mu_image,
        "expected_minus_chi": row.minus_chi,
    }
    if row.moduli:
        echo["moduli"] = list(row.moduli)
    if row.note:
        echo["note"] = row.note
    return echo


# ----------------------------------------------------------------- commands


def _cmd_milnor(args) -> dict:
    ring = _vars_tuple(args.vars)
    g = parse_poly(args.poly, ring)
    mu = hypersurface_milnor(g, field=args.field_obj, max_steps=args.max_steps)
    return {
        "schema": SCHEMA,
        "command": "milnor",
        "poly": str(g),
        "vars": list(ring),
        "mu": mu,
    }


def _cmd_icis(args) -> dict:
    data = _load_json_arg(args.ideal)
    if not isinstance(data, dict) or "vars" not in data or "gens" not in data:
        raise UsageError('ideal JSON needs "vars" and "gens" lists')
    ring = tuple(data["vars"])
    gens = tuple(parse_poly(g, ring) for g in _poly_texts(data, "gens"))
    result = icis_milnor(
        IdealPresentation(ring, gens),
        seed=args.seed,
        field=args.field_obj,
        max_steps=args.max_steps,
    )
    return {
        "schema": SCHEMA,
        "command": "icis",
        "vars": list(ring),
        "gens": [str(g) for g in gens],
        "mu": result.mu,
        "route": result.route,
        "stages": list(result.stages),
        "seed": result.seed,
    }


def _cmd_mps(args) -> dict:
    germ, row = _germ_arg(args.germ, _parse_params(args.param), _parse_moduli(args.moduli))
    if args.partition is None:
        ideal = multiple_point_ideal(germ, args.k)
        partition = None
    else:
        try:
            partition = tuple(int(v, 10) for v in args.partition.split(","))
        except ValueError:
            raise UsageError(f"--partition expects integers, got {args.partition!r}")
        ideal = partition_restricted_ideal(germ, args.k, partition)
    nonempty = not is_unit_ideal(ideal, args.field_obj)
    mu = route = error = None
    try:
        result = icis_milnor(
            ideal, seed=args.seed, field=args.field_obj, max_steps=args.max_steps
        )
        mu, route = result.mu, result.route
    except SingchiError as exc:
        error = f"{type(exc).__name__}: {exc}"
    report = {
        "schema": SCHEMA,
        "command": "mps",
        "k": args.k,
        "partition": None if partition is None else list(partition),
        "ring": list(ideal.ring),
        "generators": [str(g) for g in ideal.gens],
        "nonempty": nonempty,
        "mu": mu,
        "route": route,
        "error": error,
    }
    if row is not None:
        report["catalog"] = _row_echo(row)
    return report


def _cmd_image_chi(args) -> dict:
    germ, row = _germ_arg(args.germ, _parse_params(args.param), _parse_moduli(args.moduli))
    t = invariant_tuple(
        germ, seed=args.seed, field=args.field_obj, max_steps=args.max_steps
    )
    rep = image_chi_report(t)
    report = {
        "schema": SCHEMA,
        "command": "image-chi",
        "components": [str(c) for c in germ.components],
        **rep.as_dict(),
    }
    if row is not None:
        report["catalog"] = _row_echo(row)
        report["matches_expected"] = (
            rep.mu_image == row.mu_image and -rep.chi_mf == row.minus_chi
        )
    return report


def _cmd_table1(args) -> dict:
    rows = ACCEPTANCE_ROWS if args.rows is None else _split_row_names(args.rows)
    params = _parse_params(args.param)
    moduli = _parse_moduli(args.moduli)
    entries = []
    all_match = True
    for name in rows:
        row = resolve_row(name, params=params, moduli=moduli)
        rep = image_chi_report(
            invariant_tuple(
                row.germ, seed=args.seed, field=args.field_obj, max_steps=args.max_steps
            )
        )
        match = (
            rep.mu_image == row.mu_image
            and -rep.chi_mf == row.minus_chi
            and rep.consistent
        )
        all_match = all_match and match
        entries.append(
            {
                "name": row.name,
                "mu_image": rep.mu_image,
                "expected_mu_image": row.mu_image,
                "minus_chi": -rep.chi_mf,
                "expected_minus_chi": row.minus_chi,
                "consistent": rep.consistent,
                "match": match,
            }
        )
    return {
        "schema": SCHEMA,
        "command": "table1",
        "rows": entries,
        "ok": all_match,
    }


def _cmd_zariski(args) -> dict:
    rep = zariski_chi(args.mu_g, args.mu_f, args.n, args.mu_I_f)
    return {
        "schema": SCHEMA,
        "command": "zariski",
        "inputs": {
            "mu_g": args.mu_g,
            "mu_f": args.mu_f,
            "n": args.n,
            "mu_image_inner": args.mu_I_f,
        },
        **rep.as_dict(),
    }


_DEFAULT_PHI_VARS = ("x", "y", "u", "v", "w1", "w2", "w3")


def _cmd_equidim(args) -> dict:
    if args.vars is not None:
        ring = _vars_tuple(args.vars)
    elif 2 <= args.n <= len(_DEFAULT_PHI_VARS) + 1:
        ring = _DEFAULT_PHI_VARS[: args.n - 1]
    else:
        raise UsageError("pass --vars explicitly for this source dimension")
    phi = parse_poly(args.phi, ring)
    rep = equidim_chi_check(phi, args.n, field=args.field_obj, max_steps=args.max_steps)
    return {
        "schema": SCHEMA,
        "command": "equidim",
        "phi": str(phi),
        "n": args.n,
        **rep.as_dict(),
    }


def _cmd_family(args) -> dict:
    data = _load_json_arg(args.unfolding)
    if not isinstance(data, dict) or "vars" not in data or "components" not in data:
        raise UsageError('unfolding JSON needs "vars" and "components" lists')
    all_vars = tuple(data["vars"])
    if len(all_vars) < 3:
        raise UsageError("unfolding needs source variables plus a parameter")
    F = unfolding(all_vars[:-1], all_vars[-1], _poly_texts(data, "components"))
    t_values = None if args.t is None else _parse_rationals(args.t)
    verdict = family_check(
        F, t_values=t_values, seed=args.seed, field=args.field_obj, max_steps=args.max_steps
    )
    return {
        "schema": SCHEMA,
        "command": "family",
        "parameter": F.parameter,
        **verdict.as_dict(),
    }


def _cmd_strat_euler(args) -> dict:
    data = _load_json_arg(args.strata)
    if not isinstance(data, list):
        raise UsageError("strata JSON must be a list of stratum objects")
    strata = []
    for item in data:
        try:
            strata.append(
                StratumDatum(
                    name=str(item["name"]),
                    chi_pair=int(item["chi_pair"]),
                    chi_tmf_reduced=int(item["chi_tmf_reduced"]),
                )
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise UsageError(f"stratum objects need name/chi_pair/chi_tmf_reduced: {exc}")
    return {
        "schema": SCHEMA,
        "command": "strat-euler",
        "strata": [
            {"name": s.name, "chi_pair": s.chi_pair, "chi_tmf_reduced": s.chi_tmf_reduced}
            for s in strata
        ],
        "difference": stratified_euler_difference(strata),
    }


def _cmd_catalog(args) -> dict:
    return {
        "schema": SCHEMA,
        "command": "catalog",
        "entries": list(catalog_names()),
        "acceptance_rows": list(ACCEPTANCE_ROWS),
    }


# ------------------------------------------------------------------ wiring


def _add_options(sub, seed: bool, engine: bool) -> None:
    """--pretty on every command; --seed where a generic choice is made;
    --max-steps and --field where colengths are computed."""
    if seed:
        sub.add_argument("--seed", type=int, default=1, help="generic-choice seed (default 1)")
    if engine:
        sub.add_argument(
            "--max-steps",
            type=int,
            default=DEFAULT_MAX_STEPS,
            help="budget of the row reductions of each colength",
        )
        sub.add_argument(
            "--field",
            default="rational",
            help="rational (exact, default) or fp:PRIME (fast, probabilistic)",
        )
    sub.add_argument("--pretty", action="store_true", help="indent the JSON report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singchi",
        description="Euler characteristics of image Milnor fibres of corank one map germs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("milnor", help="Milnor number of a hypersurface germ")
    p.add_argument("poly", help="polynomial, e.g. 'x^3 + y^2'")
    p.add_argument("--vars", required=True, help="comma-separated variables")
    _add_options(p, seed=False, engine=True)
    p.set_defaults(handler=_cmd_milnor)

    p = sub.add_parser("icis", help="Milnor number of an isolated complete intersection")
    p.add_argument("ideal", help='JSON {"vars": [...], "gens": [...]} inline or file')
    _add_options(p, seed=True, engine=True)
    p.set_defaults(handler=_cmd_icis)

    p = sub.add_parser("mps", help="multiple point space of a corank one germ")
    p.add_argument("germ", help="germ JSON, file, or catalog name")
    p.add_argument("--k", type=int, default=2, help="multiplicity (default 2)")
    p.add_argument("--partition", help="comma-separated parts identifying nodes")
    p.add_argument("--param", action="append", help="catalog parameter NAME=INT")
    p.add_argument("--moduli", help="three comma-separated moduli (default 2,3,5)")
    _add_options(p, seed=True, engine=True)
    p.set_defaults(handler=_cmd_mps)

    p = sub.add_parser("image-chi", help="full Euler characteristic report for a germ")
    p.add_argument("germ", help="germ JSON, file, or catalog name")
    p.add_argument("--param", action="append", help="catalog parameter NAME=INT")
    p.add_argument("--moduli", help="three comma-separated moduli (default 2,3,5)")
    _add_options(p, seed=True, engine=True)
    p.set_defaults(handler=_cmd_image_chi)

    p = sub.add_parser("table1", help="batch image-chi over catalog rows, checked")
    p.add_argument("--rows", help="comma-separated row names (default: acceptance set)")
    p.add_argument("--param", action="append", help="catalog parameter NAME=INT")
    p.add_argument("--moduli", help="three comma-separated moduli (default 2,3,5)")
    _add_options(p, seed=True, engine=True)
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("zariski", help="Euler characteristics of a composed map")
    p.add_argument("--mu-g", type=int, required=True, help="outer Milnor number")
    p.add_argument("--mu-f", type=int, required=True, help="inner fibre Milnor number")
    p.add_argument("--n", type=int, required=True, help="source dimension")
    p.add_argument("--mu-I-f", type=int, required=True, help="inner image Milnor number")
    _add_options(p, seed=False, engine=False)
    p.set_defaults(handler=_cmd_zariski)

    p = sub.add_parser("equidim", help="dual-route check for the fold-cusp family")
    p.add_argument("--phi", required=True, help="isolated singularity in n-1 variables")
    p.add_argument("--n", type=int, required=True, help="source dimension")
    p.add_argument("--vars", help="comma-separated variables of phi (default x,y,...)")
    _add_options(p, seed=False, engine=True)
    p.set_defaults(handler=_cmd_equidim)

    p = sub.add_parser("family", help="numerical constancy of a one-parameter family")
    p.add_argument("unfolding", help='JSON with "vars" (parameter last) and "components"')
    p.add_argument("--t", help="comma-separated rational samples (default 0,1/3,-1,7/5)")
    _add_options(p, seed=True, engine=True)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("strat-euler", help="stratified Euler characteristic difference")
    p.add_argument("strata", help="JSON list of {name, chi_pair, chi_tmf_reduced}")
    _add_options(p, seed=False, engine=False)
    p.set_defaults(handler=_cmd_strat_euler)

    p = sub.add_parser("catalog", help="list catalog entry names")
    _add_options(p, seed=False, engine=False)
    p.set_defaults(handler=_cmd_catalog)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if "field" in args:
            args.field_obj = _parse_field(args.field)
        report = args.handler(args)
    except (UsageError, UnknownEntryError, BadParamsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingchiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_dump(report, args.pretty))
    return 0 if report.get("ok", True) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
