"""Command line contract: one JSON report per run, deterministic output,
exit code 0 for answers, 1 for computational failures, 2 for usage."""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from singchi.cli import build_parser, run
from singchi.euler import StratumDatum, stratified_euler_difference, zariski_chi


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(capsys, *argv, expect=0):
    code, out, err = invoke(capsys, *argv)
    assert code == expect, f"exit {code}, stderr: {err!r}"
    return json.loads(out)


# ------------------------------------------------------------ basic answers


def test_milnor_command(capsys):
    rep = report(capsys, "milnor", "x^3 + y^2", "--vars", "x,y")
    assert rep["schema"] == 1
    assert rep["command"] == "milnor"
    assert rep["mu"] == 2
    assert rep["vars"] == ["x", "y"]


def test_icis_inline_json(capsys):
    rep = report(capsys, "icis", '{"vars": ["x", "y"], "gens": ["x^2", "y^3"]}')
    assert rep["mu"] == 5
    assert rep["seed"] == 1


def test_mps_catalog_name(capsys):
    rep = report(capsys, "mps", "P_1", "--k", "3")
    assert rep["k"] == 3
    assert rep["nonempty"] is True
    assert rep["mu"] == 1
    assert rep["error"] is None
    assert rep["catalog"]["name"] == "P_1"
    assert rep["catalog"]["expected_mu_image"] == 1


def test_mps_partition_slice(capsys):
    rep = report(capsys, "mps", "A_1", "--k", "2", "--partition", "2")
    assert rep["partition"] == [2]
    assert rep["mu"] is not None


def test_mps_reports_failures_in_band(capsys):
    germ = '{"vars": ["x", "y", "z"], "components": ["x", "y", "z^2", "z^3"]}'
    rep = report(capsys, "mps", germ, "--k", "2")
    assert rep["mu"] is None
    assert rep["error"] is not None
    assert rep["nonempty"] is True
    assert "catalog" not in rep


def test_image_chi_checks_the_catalog_row(capsys):
    rep = report(capsys, "image-chi", "A_1")
    assert rep["matches_expected"] is True
    assert rep["mu_image"] == 1
    assert rep["chi_mf"] == -1
    assert rep["consistent"] is True
    assert rep["invariants"]["mu_d2"] == 1
    assert rep["catalog"]["expected_minus_chi"] == 1


def test_image_chi_accepts_inline_germs(capsys):
    germ = '{"vars": ["x", "y", "z"], "components": ["x", "y", "z^2", "z^3 + x^2*z + y^2*z"]}'
    rep = report(capsys, "image-chi", germ)
    assert rep["mu_image"] == 1
    assert "matches_expected" not in rep


# ------------------------------------------------------------------- table1


def test_table1_defaults_to_the_acceptance_rows(capsys):
    rep = report(capsys, "table1")
    assert rep["ok"] is True
    assert len(rep["rows"]) == 17
    assert all(e["match"] for e in rep["rows"])
    assert all(e["consistent"] for e in rep["rows"])


def test_table1_accepts_templates_with_params(capsys):
    rep = report(capsys, "table1", "--rows", "A_k,B_k,F_4", "--param", "k=2")
    assert rep["ok"] is True
    assert [e["name"] for e in rep["rows"]] == ["A_2", "B_2", "F_4"]


def test_table1_keeps_commas_inside_braced_names(capsys):
    rep = report(capsys, "table1", "--rows", "A_1,S_{1,2}")
    assert rep["ok"] is True
    assert [e["name"] for e in rep["rows"]] == ["A_1", "S_{1,2}"]


def test_table1_unknown_row_is_usage(capsys):
    code, _, err = invoke(capsys, "table1", "--rows", "Z_1")
    assert code == 2
    assert "error:" in err


# ------------------------------------------------------- composed and folds


def test_zariski_matches_the_library(capsys):
    rep = report(
        capsys, "zariski", "--mu-g", "2", "--mu-f", "3", "--n", "2", "--mu-I-f", "5"
    )
    direct = zariski_chi(2, 3, 2, 5)
    assert rep["inputs"] == {"mu_g": 2, "mu_f": 3, "n": 2, "mu_image_inner": 5}
    for key, value in direct.as_dict().items():
        assert rep[key] == value


def test_equidim_defaults_its_variables(capsys):
    rep = report(capsys, "equidim", "--phi", "x^2 + y^3", "--n", "3")
    assert rep["agree"] is True
    assert rep["mu_phi"] == 2
    assert "27*w^2" in rep["discriminant"]


def test_equidim_rejects_huge_n_without_vars(capsys):
    code, _, err = invoke(capsys, "equidim", "--phi", "x^2", "--n", "12")
    assert code == 2
    assert "--vars" in err


# ------------------------------------------------------------------- family


TRIVIAL_FAMILY = json.dumps(
    {
        "vars": ["x", "y", "z", "t"],
        "components": ["x", "y", "z^2", "z^3 + x^2*z + y^2*z"],
    }
)

JUMPING_FAMILY = json.dumps(
    {
        "vars": ["x", "y", "z", "t"],
        "components": ["x", "y", "z^2", "z^3 + x^2*z + y^3*z + t*y^2*z"],
    }
)


def test_family_trivial_unfolding_is_constant(capsys):
    rep = report(capsys, "family", TRIVIAL_FAMILY)
    assert rep["constant"] is True
    assert rep["certificate"] == []
    assert rep["parameter"] == "t"
    assert len(rep["samples"]) == 4


def test_family_jump_names_the_invariant(capsys):
    rep = report(capsys, "family", JUMPING_FAMILY)
    assert rep["constant"] is False
    assert any("mu_d2" in line for line in rep["certificate"])
    assert rep["caveats"]


def test_family_sample_rules_are_usage_errors(capsys):
    assert invoke(capsys, "family", TRIVIAL_FAMILY, "--t", "0,1")[0] == 2
    assert invoke(capsys, "family", TRIVIAL_FAMILY, "--t", "1,2,3")[0] == 2
    assert invoke(capsys, "family", TRIVIAL_FAMILY, "--t", "0,oops")[0] == 2


def test_family_accepts_explicit_rational_samples(capsys):
    rep = report(capsys, "family", TRIVIAL_FAMILY, "--t", "0,1/2,-2")
    assert rep["constant"] is True
    assert len(rep["samples"]) == 3


# -------------------------------------------------------------- strat-euler


def test_strat_euler_empty_list(capsys):
    rep = report(capsys, "strat-euler", "[]")
    assert rep["difference"] == 0
    assert rep["strata"] == []


def test_strat_euler_matches_the_library(capsys):
    payload = [
        {"name": "double", "chi_pair": 2, "chi_tmf_reduced": -1},
        {"name": "triple", "chi_pair": -1, "chi_tmf_reduced": 2},
    ]
    rep = report(capsys, "strat-euler", json.dumps(payload))
    direct = stratified_euler_difference(
        [StratumDatum("double", 2, -1), StratumDatum("triple", -1, 2)]
    )
    assert rep["difference"] == direct


def test_strat_euler_rejects_malformed_strata(capsys):
    assert invoke(capsys, "strat-euler", '[{"name": "s"}]')[0] == 2
    assert invoke(capsys, "strat-euler", '{"name": "s"}')[0] == 2


# ---------------------------------------------------------------- exit codes


def test_unknown_catalog_row_is_usage(capsys):
    assert invoke(capsys, "image-chi", "Z_99")[0] == 2


def test_missing_template_param_is_usage(capsys):
    assert invoke(capsys, "mps", "A_k")[0] == 2


def test_bad_catalog_params_are_usage(capsys):
    assert invoke(capsys, "image-chi", "A_k", "--param", "k=0")[0] == 2


def test_computational_failure_is_exit_one(capsys):
    code, _, err = invoke(capsys, "milnor", "x^2", "--vars", "x,y")
    assert code == 1
    assert "error:" in err


def test_prime_dividing_a_denominator_is_exit_one(capsys):
    code, out, err = invoke(
        capsys, "milnor", "x^3 + 1/3*y^4", "--vars", "x,y", "--field", "fp:3"
    )
    assert code == 1
    assert out == ""
    assert "error: 3 divides the denominator" in err


def test_no_command_is_usage(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("milnor", "x^2", "--vars", "x", "--seed", "2"),
        ("equidim", "--phi", "x^2", "--n", "2", "--seed", "2"),
        ("zariski", "--mu-g", "1", "--mu-f", "1", "--n", "2", "--mu-I-f", "0", "--seed", "2"),
        ("strat-euler", "[]", "--seed", "2"),
        ("catalog", "--seed", "2"),
        ("zariski", "--mu-g", "1", "--mu-f", "1", "--n", "2", "--mu-I-f", "0", "--max-steps", "9"),
        ("strat-euler", "[]", "--max-steps", "9"),
        ("catalog", "--max-steps", "9"),
        ("zariski", "--mu-g", "1", "--mu-f", "1", "--n", "2", "--mu-I-f", "0", "--field", "fp:7"),
        ("strat-euler", "[]", "--field", "fp:7"),
        ("catalog", "--field", "fp:7"),
    ],
    ids=" ".join,
)
def test_options_a_command_ignores_are_usage(capsys, argv):
    # each command takes only the options it reads: --seed where a
    # generic choice is made, --max-steps and --field where colengths are
    # computed; fp:7 prints no prime-field warning where it is refused
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err and "warning" not in err
    assert invoke(capsys, *argv[:-2])[0] == 0


def test_malformed_field_is_usage(capsys):
    assert invoke(capsys, "milnor", "x^2", "--vars", "x", "--field", "real")[0] == 2
    assert invoke(capsys, "milnor", "x^2", "--vars", "x", "--field", "fp:abc")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("milnor", "x^2", "--vars", "x", "--field", "fp:4"),
        # 41 * 43 passes trial division and falls to Miller-Rabin
        ("milnor", "x^2", "--vars", "x", "--field", "fp:1763"),
        ("milnor", "x^2", "--vars", "x", "--field", "fp:-7"),
        ("mps", "A_1", "--k", "3", "--partition", "1,x"),
        ("icis", '{"vars": ["x"], "gens": [1]}'),
        ("image-chi", '{"vars": ["x", "y", "z"], "components": ["x", "y", 3, "z^3"]}'),
        ("family", '{"vars": ["x", "y", "z", "t"], "components": ["x", "y", 3, "z^3"]}'),
        ("strat-euler", '[{"name": "s", "chi_pair": "q", "chi_tmf_reduced": 1}]'),
    ],
    ids=" ".join,
)
def test_malformed_input_is_usage(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# -------------------------------------------------------------- determinism


def test_reports_are_byte_identical_between_runs(capsys):
    first = invoke(capsys, "image-chi", "Q_2")
    second = invoke(capsys, "image-chi", "Q_2")
    assert first == second
    assert first[0] == 0


# sha256 of stdout, recorded before divided differences took their closed
# form; any change to a generator, a ring order or a number shows here.
GOLDEN_STDOUT_SHA256 = {
    ("table1",): "5597220406ba7944451d67e41a52b7d069a9e5b450bb661de2379b0cbfc622a8",
    ("mps", "P_1", "--k", "4"): "20e43bbfdcb507997641aecf8a4efa61a7e91d3b6371d205561014face6e6750",
    ("mps", "P_1", "--k", "3", "--partition", "1,2"): (
        "6ec6d8d08c39ba76f82c1af847cf4e8eb5f553810d3eb6e54cd650fca71608ce"
    ),
    ("mps", "VIII", "--k", "4"): "9f04d2dd385432710971780a118cae3f2bd872d51127c7e437446112bc23353b",
    # Rings out of alphabetical order: terms print in descending (degree,
    # ring-vector) order, variables inside a monomial sorted by name.
    ("milnor", "z*a^2 + z^3 + a^4*b + b^2", "--vars", "z,b,a"): (
        "21395ef5ce3988524e5113bb91806c25b7cba0d6522adaa2df9d8e04a419e915"
    ),
    ("equidim", "--phi", "b^2 + a^3 + a*b^2", "--n", "3", "--vars", "b,a"): (
        "d998ae7464569eb6c0386430a68889aa038154134bf6b698c572bacfff598a09"
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT_SHA256), ids=" ".join)
def test_reports_match_pinned_digests(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


# The pinned reports of zero-dimensional spaces as they read when the polar
# chain computed their Milnor number: the route is all that differs.
CHAIN_ROUTE_SHA256 = {
    ("mps", "P_1", "--k", "3", "--partition", "1,2"): (
        "95b35924b8d5f671e8e56ea6cdd9557b1b837a04d50d103a2636397e9ff4a832"
    ),
    ("mps", "VIII", "--k", "4"): "a0a68c3ce840a8bc7f6e8af67ace9806c6956b9aebb56bb959129b387a77f5c3",
}


@pytest.mark.parametrize("argv", sorted(CHAIN_ROUTE_SHA256), ids=" ".join)
def test_points_route_is_all_that_differs_from_the_chain(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    assert out.count('"route":"points"') == 1
    masked = out.replace('"route":"points"', '"route":"chain"')
    assert hashlib.sha256(masked.encode()).hexdigest() == CHAIN_ROUTE_SHA256[argv]


# The reports of curves as they read when the polar chain computed their
# Milnor number: the route value, "route" in mps and "d3" in image-chi, is
# all that differs.
SECTION_ROUTE_SHA256 = {
    ("mps", "II", "--k", "3"): "62ea3506760feb36d053eaf0adde0f0208a839440b23e7a04c9388beb953d7d5",
    ("image-chi", "S_{4,6}"): "751a03942284171cf2ca9e62b639e75fd1559791ccba8ff53ab30dd679b6340d",
}


@pytest.mark.parametrize("argv", sorted(SECTION_ROUTE_SHA256), ids=" ".join)
def test_section_route_is_all_that_differs_from_the_chain(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    assert out.count(':"section"') == 1
    masked = out.replace(':"section"', ':"chain"')
    assert hashlib.sha256(masked.encode()).hexdigest() == SECTION_ROUTE_SHA256[argv]


def test_pretty_changes_layout_not_payload(capsys):
    compact = invoke(capsys, "image-chi", "B_2")
    pretty = invoke(capsys, "image-chi", "B_2", "--pretty")
    assert json.loads(compact[1]) == json.loads(pretty[1])
    assert "\n  " in pretty[1]
    assert "\n" not in compact[1].rstrip("\n")
    # compact output is the default; there is no --json flag
    assert invoke(capsys, "image-chi", "B_2", "--json")[0] == 2


def test_prime_field_prints_a_banner(capsys):
    code, out, err = invoke(
        capsys, "milnor", "x^3 + y^2", "--vars", "x,y", "--field", "fp:32003"
    )
    assert code == 0
    assert "32003" in err and "probabilistic" in err
    assert json.loads(out)["mu"] == 2


def test_catalog_listing(capsys):
    rep = report(capsys, "catalog")
    assert "A_k" in rep["entries"]
    assert "VIII" in rep["entries"]
    assert len(rep["acceptance_rows"]) == 17


def test_parser_builds_every_command():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "milnor",
        "icis",
        "mps",
        "image-chi",
        "table1",
        "zariski",
        "equidim",
        "family",
        "strat-euler",
        "catalog",
    ):
        assert name in text


def _readme_commands():
    """(argv, printed output or None) for each `$ singchi` line in the
    README's "Command line" section, with its indented continuation lines."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = section.splitlines()
    commands = []
    for i, line in enumerate(lines):
        if not line.startswith("$ singchi "):
            continue
        j = i + 1
        while j < len(lines) and lines[j][:1].isspace():
            j += 1
        argv = shlex.split("\n".join([line[len("$ singchi ") :]] + lines[i + 1 : j]))
        printed = lines[j] if j < len(lines) and not lines[j].startswith(("$", "`")) else None
        commands.append((argv, printed))
    return commands


def test_readme_command_line_examples_run(capsys):
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv, printed in commands:
        code, out, err = invoke(capsys, *argv)
        assert code == 0, (argv, err)
        if argv[0] == "milnor":
            assert out == printed + "\n"
