"""Command-line interface: output contracts and exit codes."""

import json
import time

import pytest

from jalg import cli, poly
from jalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check -----------------------------------------------------------------------


def test_check_pass(capsys):
    code, out, _ = run(capsys, "check", "catalog:J5")
    assert code == 0
    assert "Jordan identity: PASS" in out


def test_check_fail_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.jalg"
    bad.write_text(
        "field Q\ndim 3\nbasis a b u\nmult a a = a\nmult b b = b\n"
        "mult a u = u\nmult b u = u\n"
    )
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "FAIL" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "catalog:J17", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["jordan"] is True
    assert data["dim"] == 5
    assert data["failures"] == []


def test_check_bad_input_exit_two(capsys):
    code, _, err = run(capsys, "check", "J5")
    assert code == 2
    assert "catalog:" in err


def test_check_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/x.jalg")
    assert code == 2
    assert "error" in err


def test_check_field_transport(capsys):
    code, out, _ = run(capsys, "check", "catalog:J5", "--field", "F7")
    assert code == 0
    assert "F7" in out


# -- mp-check --------------------------------------------------------------------


def test_mp_check_pass(capsys):
    code, out, _ = run(capsys, "mp-check", "catalog:J17-pair")
    assert code == 0
    for label in ("jordan-A", "MP1", "MP6"):
        assert f"{label}: PASS" in out
    assert "matched pair: PASS" in out


def test_mp_check_fail(capsys, tmp_path):
    bad = tmp_path / "bad.jpair"
    bad.write_text(
        "algebra A\n  field Q\n  dim 2\n  basis a b\n"
        "  mult a a = a\n  mult b b = b\nend\n"
        "algebra V\n  field Q\n  dim 1\n  basis u\n  mult u u = u\nend\n"
        "right u . a = u\nright u . b = u\n"
    )
    code, out, _ = run(capsys, "mp-check", str(bad))
    assert code == 1
    assert "MP3: FAIL" in out


# -- products --------------------------------------------------------------------


def test_bicross_prints_table(capsys):
    code, out, _ = run(capsys, "bicross", "catalog:J5-pair")
    assert code == 0
    assert "a u = 1/2 u" in out


def test_bicross_out_writes_file(capsys, tmp_path):
    target = tmp_path / "product.jalg"
    code, out, _ = run(
        capsys, "bicross", "catalog:J5-pair", "--out", str(target)
    )
    assert code == 0
    from jalg import catalog, load_algebra

    assert load_algebra(str(target)).table_key() == catalog("J5").table_key()


def test_semidirect(capsys):
    code, out, _ = run(
        capsys, "semidirect", "catalog:defmap-pair", "--side", "right"
    )
    assert code == 0
    assert "v v" not in out  # v squares to zero in the semidirect product


def test_semidirect_decides_the_loaded_pair(capsys, monkeypatch):
    """semidirect builds the product of the pair it loaded: a warm catalog
    pair's kept cube-law pass decides it, and no second one runs."""
    from jalg import catalog, identities

    for name in ("J5-pair", "defmap-pair"):
        catalog(name, None)
    calls = []
    inner = identities._cube_coefficients

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(identities, "_cube_coefficients", counted)
    for name in ("J5-pair", "defmap-pair"):
        code, out, _ = run(capsys, "semidirect", f"catalog:{name}", "--side", "right")
        assert code == 0 and out.startswith("right semidirect product: dim 4 over Q")
    assert calls == []


_LINE_PAIR = (
    "algebra A\n  field Q\n  dim 1\n  basis a\n  mult a a = a\nend\n\n"
    "algebra V\n  field Q\n  dim 1\n  basis x\nend\n\n"
)


@pytest.mark.parametrize(
    "side,action,residual",
    [
        ("left", "left x . a = a", "L2[A:0] residual a0^2*x0*y0 + 2*a0*x0^2*y0"),
        ("right", "right x . a = 2 x", "R2[V:0] residual 6*a0^2*b0*x0"),
    ],
)
def test_semidirect_fail_exit_one(capsys, tmp_path, side, action, residual):
    path = tmp_path / "line.jpair"
    path.write_text(_LINE_PAIR + action + "\n")
    code, out, err = run(capsys, "semidirect", str(path), "--side", side)
    assert code == 1
    assert out == ""
    assert err == f"failed: semidirect axioms fail:\nfail\n  {residual}\n"


def test_semidirect_wrong_side_errors(capsys):
    # J17's left action is nonzero, so a right-only product must refuse
    code, _, err = run(
        capsys, "semidirect", "catalog:J17-pair", "--side", "right"
    )
    assert code == 2
    assert "left action" in err


# -- factorization ---------------------------------------------------------------


def test_factorize_and_canonical_pair(capsys):
    code, out, _ = run(
        capsys,
        "factorize",
        "catalog:J5",
        "--first",
        "a,b",
        "--second",
        "u,v",
    )
    assert code == 0
    assert "factorization: PASS" in out

    code, out, _ = run(
        capsys,
        "canonical-pair",
        "catalog:J5",
        "--first",
        "a,b",
        "--second",
        "u,v",
    )
    assert code == 0
    assert "algebra A" in out
    assert "right u . a = 1/2 u" in out


def test_factorize_rejects_open_span(capsys):
    # a non-complementary split is a failed check, not a usage error
    code, _, err = run(
        capsys,
        "factorize",
        "catalog:J5",
        "--first",
        "a",
        "--second",
        "u,v",
    )
    assert code == 1
    assert "complement" in err


def test_canonical_pair_out_roundtrip(capsys, tmp_path):
    target = tmp_path / "pair.jpair"
    code, _, _ = run(
        capsys,
        "canonical-pair",
        "catalog:J17",
        "--first",
        "a,b,c",
        "--second",
        "u,v",
        "--out",
        str(target),
    )
    assert code == 0
    from jalg import catalog, load_pair

    assert load_pair(str(target)) == catalog("J17-pair")


# -- iso and classification --------------------------------------------------------


def test_iso_isomorphic_exit_zero(capsys):
    code, out, _ = run(
        capsys, "iso", "catalog:V3", "catalog:V3", "--field", "F5"
    )
    assert code == 0
    assert "isomorphic" in out


def test_iso_non_isomorphic_exit_one(capsys):
    code, out, _ = run(
        capsys, "iso", "catalog:V1", "catalog:V3", "--field", "F5"
    )
    assert code == 1
    assert "non-isomorphic" in out


def test_iso_unknown_exit_three(capsys, tmp_path):
    """An undecided iso query exits 3, apart from 1 (a certified non-isomorphism)."""
    a = tmp_path / "a.jalg"
    b = tmp_path / "b.jalg"
    a.write_text("field Q\ndim 2\nbasis u v\nmult u u = u\nmult u v = 1/2 v\n")
    b.write_text("field Q\ndim 2\nbasis u v\nmult u u = u\nmult u v = 1/3 v\n")
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 3
    assert out == "verdict: unknown\ninvariants agree; no witness of height <= 2 found\n"


def test_iso_q_witness_search_past_the_node_budget_is_refused(capsys):
    """Height 6 over a dim-2 table means 47^4 = 4879681 candidate matrices,
    more than poly.SOLVE_NODE_BUDGET: exit 2 at once, with one error line.
    The default height still scans and answers unknown."""
    t0 = time.perf_counter()
    code, out, err = run(capsys, "iso", "catalog:V2", "catalog:V3", "--budget", "6")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: the witness search of height 6 over Q would try 4879681 matrices, "
        "more than 4000000\n"
    )
    code, out, err = run(capsys, "iso", "catalog:V2", "catalog:V3")
    assert (code, err) == (3, "")
    assert out == "verdict: unknown\ninvariants agree; no witness of height <= 2 found\n"


def test_iso_unknown_note_without_a_search(capsys):
    """Over Q the witness search runs at dim <= 2 only, and over F_p the
    exhaustive one at dim <= 3; the note says so instead of naming a height."""
    code, out, _ = run(capsys, "iso", "catalog:J5", "catalog:J5")
    assert code == 3
    assert out == (
        "verdict: unknown\ninvariants agree; no witness search at dimension 4 "
        "(the Q witness search covers dim <= 2)\n"
    )
    code, out, _ = run(capsys, "iso", "catalog:J5", "catalog:J5", "--field", "F5", "--json")
    assert code == 3
    assert json.loads(out)["note"] == (
        "invariants agree; no witness search over F5 at dimension 4 "
        "(the exhaustive search covers dim <= 3)"
    )


def test_iso_json_witness(capsys):
    code, out, _ = run(
        capsys, "iso", "catalog:V3", "catalog:V3", "--field", "F5", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "isomorphic"
    assert data["witness"] is not None


def test_classify2(capsys):
    code, out, _ = run(capsys, "classify2", "catalog:V3", "--field", "F5")
    assert code == 0
    assert "idempotent elements: 6" in out
    assert "nonzero square-zero elements: 4" in out


def test_classify2_json(capsys):
    code, out, _ = run(
        capsys, "classify2", "catalog:V1", "--field", "F5", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["signature"]["idempotents"] == 4
    assert data["signature"]["square_zero"] == 0


# -- deformation workflow ----------------------------------------------------------


def test_deform_check_parametric(capsys):
    code, out, _ = run(
        capsys,
        "deform-check",
        "catalog:defmap-pair",
        "--map",
        "u: a + b; v: alpha b",
        "--params",
        "alpha",
    )
    assert code == 0
    assert "deformation identity: PASS" in out


def test_deform_check_failing_map(capsys):
    code, out, _ = run(
        capsys,
        "deform-check",
        "catalog:defmap-pair",
        "--map",
        "u: a; v: a",
    )
    assert code == 1
    assert "FAIL" in out


def test_deform_enum(capsys):
    code, out, _ = run(
        capsys, "deform-enum", "catalog:defmap-pair", "--field", "F5"
    )
    assert code == 0
    assert "20" in out


def test_deform_enum_budget_exit_two(capsys):
    code, _, err = run(
        capsys,
        "deform-enum",
        "catalog:defmap-pair",
        "--field",
        "F5",
        "--budget",
        "100",
    )
    assert code == 2


def test_complements_report(capsys):
    code, out, _ = run(
        capsys, "complements", "catalog:defmap-pair", "--field", "F5"
    )
    assert code == 0
    assert "deformation maps over F5: 20" in out
    assert "index = 4" in out
    assert "witnesses:" in out


def test_complements_json(capsys):
    code, out, _ = run(
        capsys,
        "complements",
        "catalog:defmap-pair",
        "--field",
        "F5",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 4
    assert sorted(len(c["members"]) for c in data["classes"]) == [1, 1, 2, 16]


# -- catalog and census --------------------------------------------------------------


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("J5", "J17-pair", "defmap-pair"):
        assert name in out


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "J5")
    assert code == 0
    assert "mult a u = 1/2 u" in out


def test_catalog_unknown_exit_two(capsys):
    code, _, err = run(capsys, "catalog", "missing-entry")
    assert code == 2


def test_abelian_pairs_census(capsys):
    code, out, _ = run(capsys, "abelian-pairs", "--dim", "1")
    assert code == 0
    assert "25" in out and "1" in out


def test_abelian_pairs_large_guard(capsys, monkeypatch):
    monkeypatch.setattr(poly, "SOLVE_NODE_BUDGET", 100)
    for dim in ("2", "4"):
        code, out, err = run(capsys, "abelian-pairs", "--dim", dim)
        assert code == 2
        assert out == ""
        assert "100 nodes" in err and err.count("\n") == 1


def test_abelian_pairs_negative_dim_exit_two(capsys):
    code, out, err = run(capsys, "abelian-pairs", "--dim", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- bad input: exit 2 with a one-line message, never a traceback --------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "catalog:J5"],
        ["mp-check", "catalog:J5-pair"],
        ["bicross", "catalog:J5-pair"],
        ["semidirect", "catalog:J7-pair", "--side", "left"],
        ["factorize", "catalog:J5", "--first", "a,b", "--second", "u,v"],
        ["canonical-pair", "catalog:J5", "--first", "a,b", "--second", "u,v"],
        ["iso", "catalog:V1", "catalog:V3"],
        ["classify2", "catalog:V1"],
        ["deform-check", "catalog:defmap-pair", "--map", "u: a"],
        ["deform-enum", "catalog:defmap-pair"],
        ["complements", "catalog:defmap-pair"],
        ["catalog", "J5"],
        ["abelian-pairs", "--dim", "1"],
    ],
)
@pytest.mark.parametrize("field", ["F4", "G7"])
def test_bad_field_exit_two(capsys, argv, field):
    code, out, err = run(capsys, *argv, "--field", field)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad field") and err.count("\n") == 1


def test_transport_with_vanishing_denominator_exit_two(capsys, tmp_path):
    path = tmp_path / "f.jalg"
    path.write_text("field Q\ndim 1\nbasis u\nmult u u = 1/5 u\n")
    code, _, err = run(capsys, "check", str(path), "--field", "F5")
    assert code == 2
    assert "1/5" in err and err.count("\n") == 1


@pytest.mark.parametrize("field", ["Q", "F7"])
def test_zero_denominator_exit_two(capsys, tmp_path, field):
    path = tmp_path / "f.jalg"
    path.write_text(f"field {field}\ndim 1\nbasis u\nmult u u = 1/0 u\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert "'1/0'" in err and err.count("\n") == 1
    assert err == f"error: line 4: bad scalar '1/0' over {field}: the denominator is zero\n"


def test_denominator_divisible_by_p_exit_two(capsys, tmp_path):
    path = tmp_path / "f.jalg"
    path.write_text("field F5\ndim 1\nbasis u\nmult u u = 1/5 u\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: line 4: cannot coerce 1/5 into F5: its denominator is divisible by 5\n"


def test_unknown_label_exit_two(capsys, tmp_path):
    path = tmp_path / "f.jalg"
    path.write_text("field Q\ndim 1\nbasis u\nmult u u = w\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: line 4: unknown label or bad scalar 'w'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["factorize", "catalog:J5", "--first", "zz", "--second", "u,v"],
        ["canonical-pair", "catalog:J5", "--first", "a", "--second", "zz"],
    ],
)
def test_unknown_subspace_label_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: unknown basis label 'zz'\n")


def test_non_utf8_files_exit_two(capsys, tmp_path):
    """A byte that is not UTF-8 in a .jalg, in a .jpair, and in the target
    of a .jpair's @include on its second line."""
    bad = tmp_path / "bad.jalg"
    bad.write_bytes(b"field Q\ndim 1\nbasis u\xff\n")
    pair = tmp_path / "bad.jpair"
    pair.write_bytes(b"algebra A\xfe\n")
    include = tmp_path / "include.jpair"
    include.write_text("# the first factor is not UTF-8\nalgebra A @include bad.jalg\n")
    for argv, prefix in (
        (["check", str(bad)], f"error: cannot read {bad}: "),
        (["mp-check", str(pair)], f"error: cannot read {pair}: "),
        (["mp-check", str(include)], f"error: line 2: cannot read {bad}: "),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(prefix) and "can't decode byte" in err and err.count("\n") == 1


def test_map_repeated_label_exit_two(capsys):
    code, _, err = run(
        capsys, "deform-check", "catalog:defmap-pair", "--map", "u: a; u: b"
    )
    assert code == 2
    assert "'u'" in err


@pytest.mark.parametrize("spec", ["u: a", "u: a a", "v: 0"])
@pytest.mark.parametrize("params", ["a", "alpha,b"])
def test_map_params_that_are_labels_exit_two(capsys, spec, params):
    """A parameter named like a label of the first factor is refused before
    the map is read: the combination grammar would read it as the label."""
    code, out, err = run(
        capsys, "deform-check", "catalog:defmap-pair", "--map", spec, "--params", params
    )
    name = params.split(",")[-1]
    want = f"error: parameter {name!r} is also a basis label of the first factor\n"
    assert (code, out, err) == (2, "", want)


@pytest.mark.parametrize(
    "argv",
    [
        ["iso", "catalog:V1", "catalog:V3", "--field", "F5"],
        ["deform-enum", "catalog:defmap-pair", "--field", "F5"],
    ],
)
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_nonpositive_budget_exit_two(capsys, argv, budget):
    code, out, err = run(capsys, *argv, "--budget", budget)
    assert code == 2
    assert out == ""
    assert "--budget" in err


@pytest.mark.parametrize(
    "spec, code",
    [
        ("u: a + b; v: 2 alpha b", 0),
        ("u: a + b; v: -1 alpha b", 0),
        ("u: 2 3 b", 2),  # one number per coefficient
        ("u: alpha 2 b", 2),  # the number comes before the parameters
        ("u: a; v:", 2),  # an empty image is written 0
        ("u: a b", 2),  # terms are joined by + or -
    ],
)
def test_map_uses_the_combination_grammar(capsys, spec, code):
    got, _, _ = run(
        capsys, "deform-check", "catalog:defmap-pair", "--map", spec, "--params", "alpha"
    )
    assert got == code


@pytest.mark.parametrize("number", ["0.5", "1e3", "1_000", "1e999999999"])
def test_map_rejects_non_readme_numbers(capsys, number):
    code, out, err = run(
        capsys, "deform-check", "catalog:defmap-pair", "--map", f"u: {number} a"
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and number in err


@pytest.mark.parametrize("number", ["0.5", "1e3", "1_000"])
def test_file_rejects_non_readme_numbers(capsys, tmp_path, number):
    path = tmp_path / "bad.jalg"
    path.write_text(f"field Q\ndim 1\nbasis u\nmult u u = {number} u\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "line 4" in err


# -- the parser: main builds one subparser, the full parser is its oracle ---------

COMMANDS = list(cli._COMMANDS)

# one valid run per subcommand, on catalog inputs
VALID_RUNS = [
    ["check", "catalog:J5"],
    ["mp-check", "catalog:J17-pair", "--json"],
    ["bicross", "catalog:J5-pair"],
    ["semidirect", "catalog:defmap-pair", "--side", "right"],
    ["factorize", "catalog:J5", "--first", "a,b", "--second", "u,v"],
    ["canonical-pair", "catalog:J5", "--first", "a,b", "--second", "u,v", "--json"],
    ["iso", "catalog:V1", "catalog:V2", "--field", "F13", "--json"],
    ["classify2", "catalog:V3", "--field", "F5"],
    ["deform-check", "catalog:defmap-pair", "--map", "u: alpha a; v: 0", "--params", "alpha"],
    ["deform-enum", "catalog:defmap-pair", "--field", "F5", "--budget", "625"],
    ["complements", "catalog:defmap-pair", "--field", "F5", "--json"],
    ["catalog", "J5-pair", "--field", "F7"],
    ["abelian-pairs", "--dim", "1", "--json"],
]

ORACLE_ARGVS = (
    [["-h"], [], ["bogus"], ["bogus", "-h"]]
    + [[name, "-h"] for name in COMMANDS]
    + [[name] for name in COMMANDS]
    + [[name, "x", "y", "z", "--zzz"] for name in COMMANDS]
    + [
        ["iso", "catalog:V1", "catalog:V2", "extra"],
        ["iso", "catalog:V1", "catalog:V2", "--bogus"],
        ["iso", "catalog:V1", "catalog:V2", "--mode", "auto"],
        ["check", "catalog:J5", "--", "x"],
        ["catalog", "J5", "J7"],
        ["semidirect", "catalog:defmap-pair", "--side", "up"],
        ["iso", "catalog:V1", "catalog:V2", "--budget", "x"],
        ["iso", "catalog:V1", "catalog:V2", "--budget", "0"],
        ["--json", "iso", "catalog:V1", "catalog:V2"],
        ["--", "iso", "catalog:V1", "catalog:V2"],
    ]
    + VALID_RUNS
)


def _outcome(capsys, call):
    try:
        result = ("return", call())
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", ORACLE_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_main_parses_as_the_full_parser(capsys, monkeypatch, argv):
    """main against a reference that always parses with every subcommand and
    then runs the same handler: same output, exit and Namespace."""
    monkeypatch.setenv("COLUMNS", "80")
    namespaces = []
    run_args = cli._run

    def recording(args):
        namespaces.append(dict(vars(args)))
        return run_args(args)

    monkeypatch.setattr(cli, "_run", recording)
    fast = _outcome(capsys, lambda: cli.main(list(argv)))
    reference = _outcome(capsys, lambda: cli._run(cli.build_parser().parse_args(list(argv))))
    assert fast == reference
    assert len(namespaces) in (0, 2) and namespaces[:1] == namespaces[1:]
    if argv in VALID_RUNS:
        assert fast[0][1] in (0, 1) and fast[1]


def test_kept_parser_formats_help_at_the_current_width(capsys, monkeypatch):
    """`jalg iso --help` from the kept parser equals a fresh parser's
    output under each COLUMNS value: the width is read when help is
    formatted, not when the parser is built."""
    cli.build_parser.cache_clear()
    outputs = []
    for columns in ("40", "160"):
        monkeypatch.setenv("COLUMNS", columns)
        kept = _outcome(capsys, lambda: main(["iso", "--help"]))
        fresh = _outcome(capsys, lambda: cli.build_parser.__wrapped__().parse_args(["iso", "--help"]))
        assert kept == fresh and kept[0] == ("exit", 0)
        outputs.append(kept[1])
    assert cli.build_parser.cache_info().misses == 1
    assert outputs[0] != outputs[1]
