"""Command-line interface: exit codes, schemas, determinism."""

import json
import sys
import time

import pytest

from conftest import random_reversible_field, seeded_rng
from revequiv import groups
from revequiv.cli import main
from revequiv.exactalg import Mat4
from revequiv.normalform import ResonanceSpec, real_group_representative
from revequiv.solver import SUPPORTED_N
from revequiv.vecfield import PolyVF


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve-involutions / classify
# ---------------------------------------------------------------------------


def test_solve_involutions_text(capsys):
    code, out, _ = run(capsys, "solve-involutions", "--n", "2", "--alpha", "1", "--beta", "2")
    assert code == 0
    assert "4 solutions (3 non-degenerate, 3 classes)" in out


def test_solve_involutions_json_schema(capsys):
    code, out, _ = run(
        capsys, "solve-involutions", "--n", "4", "--alpha", "1", "--beta", "2", "--json"
    )
    assert code == 0
    sols = json.loads(out)
    assert len(sols) == 16
    for sol in sols:
        base = {"matrix", "angles", "degenerate", "group_order"}
        if sol["degenerate"]:
            assert set(sol) == base
        else:
            assert set(sol) == base | {"class_id"}
    assert sum(1 for s in sols if s["degenerate"]) == 4
    labels = {s["class_id"] for s in sols if not s["degenerate"]}
    assert labels == {f"Xi{j}" for j in range(1, 7)}


def test_solve_involutions_exclude_degenerate(capsys):
    code, out, _ = run(
        capsys,
        "solve-involutions", "--n", "2", "--alpha", "1", "--beta", "2",
        "--exclude-degenerate", "--json",
    )
    assert code == 0
    sols = json.loads(out)
    assert len(sols) == 3
    assert not any(s["degenerate"] for s in sols)


def test_solve_involutions_latex(capsys):
    code, out, _ = run(
        capsys, "solve-involutions", "--n", "3", "--alpha", "1", "--beta", "2", "--latex"
    )
    assert code == 0
    assert out.count("\\begin{pmatrix}") == 9
    assert "\\sqrt{3}" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--n", "4", "--alpha", "1", "--beta", "2", "--json")
    assert code == 0
    classes = json.loads(out)
    assert len(classes) == 6
    for c in classes:
        assert c["dihedral"] is True
        assert c["group"]["order"] == 8
        assert c["n_reversing"] == 4
        assert len(c["members"]) == 2


def test_classify_writes_groups_without_closure_or_group_checks(capsys, monkeypatch):
    # each class's group, rho and dihedral flag are written from its rotation
    # set, and each solution and group element from its angles; the closure,
    # the checks in `groups` and Mat4 products only test what was written
    runs = [[command, "--n", str(n), "--alpha", "1", "--beta", "2", *flags]
            for command in ("classify", "solve-involutions")
            for n in SUPPORTED_N for flags in ([], ["--json"])]
    expected = [run(capsys, *argv)[1] for argv in runs]

    def refuse(*args, **kwargs):
        raise AssertionError("a group check or a Mat4 product ran on the classify path")

    checks = [getattr(groups, name) for name in
              ("generate_closure", "sign_assignment", "is_dihedral", "element_order")]
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "revequiv":
            for key, value in list(vars(module).items()):
                if any(value is check for check in checks):
                    monkeypatch.setattr(module, key, refuse)
    monkeypatch.setattr(groups.SignAssignment, "is_multiplicative", refuse)
    monkeypatch.setattr(Mat4, "__mul__", refuse)
    for argv, out in zip(runs, expected):
        assert run(capsys, *argv)[:2] == (0, out)


def test_degenerate_resonance_is_usage_error(capsys):
    code, _, err = run(capsys, "solve-involutions", "--n", "2", "--alpha", "2", "--beta", "-2")
    assert code == 2
    assert "unsupported" in err


def test_unsupported_group_order_is_usage_error(capsys):
    code, _, _ = run(capsys, "solve-involutions", "--n", "5", "--alpha", "1", "--beta", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def write_field(tmp_path, name, x):
    path = tmp_path / name
    path.write_text(json.dumps(x.to_json()))
    return str(path)


def test_check_reversible_field_passes(capsys, tmp_path):
    spec = ResonanceSpec(3, 5)
    rng = seeded_rng("cli-check")
    x = random_reversible_field(rng, spec, real_group_representative(2), 4)
    path = write_field(tmp_path, "x.vf", x)
    code, out, _ = run(capsys, "check", "--field", path, "--involution", "builtin:R0")
    assert code == 0
    assert "OK" in out
    code, _, _ = run(capsys, "check", "--field", path, "--involution", "builtin:Xi2@n4")
    assert code == 0


def test_check_failure_exits_one(capsys, tmp_path):
    path = tmp_path / "x.vf"
    path.write_text("dx1 = x1^2\ndx2 = 0\ndy1 = 0\ndy2 = 0\n")
    code, out, _ = run(capsys, "check", "--field", str(path), "--involution", "builtin:R0")
    assert code == 1
    assert "FAIL" in out


def test_check_zero_field_is_reversible(capsys, tmp_path):
    path = tmp_path / "zero.vf"
    path.write_text("dx1 = 0\ndx2 = 0\ndy1 = 0\ndy2 = 0\n")
    for inv in ("builtin:R0", "builtin:S1@n2", "builtin:Xi6@n4"):
        code, _, _ = run(capsys, "check", "--field", str(path), "--involution", inv)
        assert code == 0


def test_check_json_reports_offenders(capsys, tmp_path):
    path = tmp_path / "x.vf"
    path.write_text("dx1 = x1^2\ndx2 = 0\ndy1 = 0\ndy2 = 0\n")
    code, out, _ = run(
        capsys, "check", "--field", str(path), "--involution", "builtin:R0", "--json"
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["ok"] is False
    assert obj["offending"]


def test_check_unknown_builtin_is_usage_error(capsys, tmp_path):
    path = tmp_path / "zero.vf"
    path.write_text("dx1 = 0\ndx2 = 0\ndy1 = 0\ndy2 = 0\n")
    code, _, err = run(capsys, "check", "--field", str(path), "--involution", "builtin:nope")
    assert code == 2
    assert "unknown builtin" in err


def test_check_missing_field_file_is_usage_error(capsys, tmp_path):
    code, _, _ = run(
        capsys, "check", "--field", str(tmp_path / "missing.vf"),
        "--involution", "builtin:R0",
    )
    assert code == 2


def test_check_malformed_field_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.vf"
    path.write_text("dx1 = x1 ++ x9\ndx2 = 0\ndy1 = 0\ndy2 = 0\n")
    code, _, _ = run(capsys, "check", "--field", str(path), "--involution", "builtin:R0")
    assert code == 2


def test_check_reports_degree_of_json_field(capsys, tmp_path):
    x = PolyVF.parse("dx1 = -1*x2\ndx2 = x1\ndy1 = -2*y2\ndy2 = 2*y1", 2)
    path = write_field(tmp_path, "x.vf", x)
    code, out, _ = run(
        capsys, "check", "--field", path, "--involution", "builtin:R0", "--degree", "7"
    )
    assert code == 0
    assert "(degree <= 2)" in out


def test_involution_plain_matrix_file(capsys, tmp_path):
    mat = tmp_path / "r0.mat"
    mat.write_text("1 0 0 0\n0 -1 0 0\n0 0 1 0\n0 0 0 -1\n")
    path = tmp_path / "zero.vf"
    path.write_text("dx1 = 0\ndx2 = 0\ndy1 = 0\ndy2 = 0\n")
    code, _, _ = run(capsys, "check", "--field", str(path), "--involution", str(mat))
    assert code == 0


# ---------------------------------------------------------------------------
# normal-form / oracle
# ---------------------------------------------------------------------------


def test_normal_form_json_schema(capsys):
    code, out, _ = run(
        capsys, "normal-form", "--p", "3", "--q", "5", "--group", "1", "--degree", "5", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["p"] == 3 and obj["q"] == 5 and obj["group"] == 1
    assert obj["hypothesis_status"]["pure_delta_form"] is True
    assert all(set(t) == {"component", "exponents", "constraint"} for t in obj["surviving"])


def test_normal_form_latex_for_pure_delta(capsys):
    code, out, _ = run(
        capsys, "normal-form", "--p", "3", "--q", "5", "--group", "1", "--degree", "7", "--latex"
    )
    assert code == 0
    assert "\\Delta" in out


def test_normal_form_non_coprime_is_usage_error(capsys):
    code, _, _ = run(capsys, "normal-form", "--p", "2", "--q", "4", "--group", "1")
    assert code == 2


def test_normal_form_equal_frequencies_is_usage_error(capsys):
    code, _, _ = run(capsys, "normal-form", "--p", "1", "--q", "1", "--group", "1")
    assert code == 2


def test_oracle_json_matches_survival(capsys):
    code, out, _ = run(
        capsys, "oracle", "--p", "1", "--q", "2", "--group", "3", "--degree", "4", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    dims = {int(k): v for k, v in obj["dimensions"].items()}
    code, out2, _ = run(
        capsys, "normal-form", "--p", "1", "--q", "2", "--group", "3", "--degree", "4", "--json"
    )
    assert code == 0
    nf = json.loads(out2)
    by_degree = {}
    for t in nf["surviving"]:
        d = sum(t["exponents"])
        by_degree.setdefault(d, []).append(t["constraint"])
    params = {"Free": 2, "ReZero": 1, "ImZero": 1, "ReEqIm": 1, "ReEqMinusIm": 1, "Zero": 0}
    for d, dim in dims.items():
        assert dim == sum(params[c] for c in by_degree.get(d, []))


# ---------------------------------------------------------------------------
# normalize / linearize
# ---------------------------------------------------------------------------


def test_normalize_round_trip(capsys, tmp_path):
    spec = ResonanceSpec(1, 2)
    lin = PolyVF.from_linear(spec.linear_matrix(), 3)
    path = tmp_path / "x.vf"
    path.write_text(json.dumps(lin.to_json()))
    code, out, _ = run(
        capsys, "normalize", "--field", str(path), "--p", "1", "--q", "2",
        "--degree", "3", "--json",
    )
    assert code == 0
    obj = json.loads(out)
    assert PolyVF.from_json(obj["normal_form"]) == lin


def test_normalize_wrong_linear_part_fails(capsys, tmp_path):
    spec = ResonanceSpec(1, 3)
    lin = PolyVF.from_linear(spec.linear_matrix(), 3)
    path = tmp_path / "x.vf"
    path.write_text(json.dumps(lin.to_json()))
    code, _, err = run(
        capsys, "normalize", "--field", str(path), "--p", "1", "--q", "2", "--degree", "3"
    )
    assert code == 1
    assert "error" in err


def test_linearize_json(capsys, tmp_path):
    path = tmp_path / "phi.map"
    path.write_text("x1 = x1\nx2 = -1*x2\ny1 = y1\ny2 = -1*y2\n")
    code, out, _ = run(capsys, "linearize", "--map", str(path), "--degree", "4", "--json")
    assert code == 0
    json.loads(out)


def test_linearize_non_involution_exits_one(capsys, tmp_path):
    path = tmp_path / "phi.map"
    path.write_text("x1 = x1 + x2^2\nx2 = x2\ny1 = y1\ny2 = y2\n")
    code, _, err = run(capsys, "linearize", "--map", str(path), "--degree", "4")
    assert code == 1
    assert "error" in err


# ---------------------------------------------------------------------------
# tables / misc
# ---------------------------------------------------------------------------


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 38
    sat = [r for r in rows if r["satisfiable"]]
    assert all(r["agrees"] or r["tautology"] for r in sat)
    assert sum(1 for r in sat if r["tautology"]) == 1


def test_default_degree_env(capsys, monkeypatch):
    monkeypatch.setenv("REVEQUIV_DEGREE", "3")
    code, out, _ = run(capsys, "normal-form", "--p", "1", "--q", "2", "--group", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["degree"] == 3
    assert all(sum(t["exponents"]) <= 3 for t in obj["surviving"])


def test_bad_degree_env_falls_back(capsys, monkeypatch):
    monkeypatch.setenv("REVEQUIV_DEGREE", "seven")
    code, out, _ = run(capsys, "normal-form", "--p", "1", "--q", "2", "--group", "1", "--json")
    assert code == 0
    assert json.loads(out)["degree"] == 7


ZERO_FIELD = "dx1 = 0\ndx2 = 0\ndy1 = 0\ndy2 = 0\n"
CUBIC_FIELD = "dx1 = -1*x2 + x1^3\ndx2 = x1\ndy1 = -2*y2\ndy2 = 2*y1\n"
CHECK = ("check", "--field", "x.vf", "--involution", "builtin:R0")
ZERO_JSON, ONE_JSON = {"num": 0, "den": 1}, {"num": 1, "den": 1}


def _radical(num, den, d=2.5):
    """num/den * sqrt(d) in the scalar JSON encoding; by default its radical
    is no integer."""
    return {"a": ZERO_JSON, "b": {"num": num, "den": den}, "d": d}


def _term(exponents, coefficient):
    return {"exponents": exponents, "coefficient": coefficient}


# the rows of x -> (sqrt(2.5)*x2, 2/5*sqrt(2.5)*x1, y1, y2), whose square is
# the identity in float arithmetic
FLOAT_RADICAL_INVOLUTION = [
    [ZERO_JSON, _radical(1, 1), ZERO_JSON, ZERO_JSON],
    [_radical(2, 5), ZERO_JSON, ZERO_JSON, ZERO_JSON],
    [ZERO_JSON, ZERO_JSON, ONE_JSON, ZERO_JSON],
    [ZERO_JSON, ZERO_JSON, ZERO_JSON, ONE_JSON],
]


# exponent notation, which the rational parser would expand digit by digit
ALPHA_EXPONENT = ({}, ("classify", "--n", "2", "--alpha", "1e1000000", "--beta", "2"))
ENTRY_EXPONENT = (
    {"x.vf": ZERO_FIELD, "s.mat": "1e1000000 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"},
    ("check", "--field", "x.vf", "--involution", "s.mat"),
)

# a 1:2 field with the term sqrt(2)*x2^2 in dx1
IRRATIONAL_FIELD = json.dumps({"max_degree": 3, "components": [
    [_term([0, 1, 0, 0], {"num": -1, "den": 1}), _term([0, 2, 0, 0], _radical(1, 1, 2))],
    [_term([1, 0, 0, 0], ONE_JSON)],
    [_term([0, 0, 0, 1], {"num": -2, "den": 1})],
    [_term([0, 0, 1, 0], {"num": 2, "den": 1})]]})

# the 1:2 linear field, which is reversible under R0, and the same field
# with the coefficient of x1 in dx2 written as a JSON boolean
LINEAR_FIELD = "dx1 = -1*x2\ndx2 = 1*x1\ndy1 = -2*y2\ndy2 = 2*y1\n"
BOOL_NUMERATOR_FIELD = json.dumps({"max_degree": 1, "components": [
    [_term([0, 1, 0, 0], {"num": -1, "den": 1})],
    [_term([1, 0, 0, 0], {"num": True, "den": 1})],
    [_term([0, 0, 0, 1], {"num": -2, "den": 1})],
    [_term([0, 0, 1, 0], {"num": 2, "den": 1})]]})

# R0 with the denominators of its diagonal written as JSON booleans
BOOL_DENOMINATOR_INVOLUTION = json.dumps(
    [[{"num": (-1) ** i * (i == j), "den": True if i == j else 1} for j in range(4)]
     for i in range(4)])


@pytest.mark.parametrize(
    "files, argv, env",
    [
        ({"x.vf": '{"components": 3}'}, CHECK, None),
        ({"x.vf": "{bad"}, CHECK, None),
        ({"x.vf": '{"max_degree": 3, "components": [[], [], []]}'}, CHECK, None),
        ({"x.vf": '{"max_degree": 3, "components": [[{"exponents": [1, 2], '
                  '"coefficient": {"num": 1, "den": 1}}], [], [], []]}'}, CHECK, None),
        ({"x.vf": '{"max_degree": "x", "components": [[], [], [], []]}'}, CHECK, None),
        ({"x.vf": ZERO_FIELD.replace("dx1 = 0", "dx1 = 1/0*x1")}, CHECK, None),
        ({"phi.map": '{"components": 3}'}, ("linearize", "--map", "phi.map"), None),
        ({"phi.map": "x1 = x2^2\nx2 = x2\ny1 = y1\ny2 = y2\n"},
         ("linearize", "--map", "phi.map"), None),
        ({"x.vf": ZERO_FIELD, "s.mat": "[[1,2],[3]]"},
         ("check", "--field", "x.vf", "--involution", "s.mat"), None),
        ({"x.vf": CUBIC_FIELD, "s.mat": "0 0 0 0\n" * 4},
         ("check", "--field", "x.vf", "--involution", "s.mat"), None),
        ({"x.vf": CUBIC_FIELD,
          "s.mat": json.dumps([[{"num": 2 * (i == j), "den": 1} for j in range(4)]
                               for i in range(4)])},
         ("check", "--field", "x.vf", "--involution", "s.mat"), None),
        ({"x.vf": '{"max_degree": 2, "components": [[{"exponents": [3, 0, 0, 0], '
                  '"coefficient": {"num": 1, "den": 1}}], [], [], []]}'}, CHECK, None),
        ({}, ("solve-involutions", "--n", "2", "--alpha", "1/0", "--beta", "2"), None),
        ({}, ("solve-involutions", "--n", "2", "--alpha", "1", "--beta", "2",
              "--include-degenerate"), None),
        ({}, ("oracle", "--p", "1", "--q", "2", "--group", "1", "--degree", "0"), None),
        ({}, ("oracle", "--p", "1", "--q", "2", "--group", "1", "--degree", "1"), None),
        ({}, ("oracle", "--p", "1", "--q", "2", "--group", "1"), "1"),
        ({}, ("normal-form", "--p", "1", "--q", "2", "--group", "1", "--degree", "0"), None),
        ({}, ("normal-form", "--p", "1", "--q", "2", "--group", "1"), "-5"),
        ({"x.vf": ZERO_FIELD}, CHECK + ("--degree", "0"), None),
        ({"phi.map": "x1 = x1\nx2 = x2\ny1 = y1\ny2 = y2\n"},
         ("linearize", "--map", "phi.map", "--degree", "-1"), None),
        ({"x.vf": json.dumps({"max_degree": 3, "components": [
            [_term([2, 0, 0, 0], _radical(1, 1))], [], [], []]})},
         CHECK, None),
        ({"x.vf": json.dumps({"max_degree": 3, "components": [
            [_term([2, 0, 0, 0], _radical(1, 1, 2))], [], [], []]})},
         ("check", "--field", "x.vf", "--involution", "builtin:S1@n3"), None),
        # x -> R0 x + (sqrt(2)*x2^2 + sqrt(3)*x1*x2, 0, 0, 0)
        ({"phi.map": json.dumps({"max_degree": 3, "components": [
            [_term([1, 0, 0, 0], ONE_JSON), _term([0, 2, 0, 0], _radical(1, 1, 2)),
             _term([1, 1, 0, 0], _radical(1, 1, 3))],
            [_term([0, 1, 0, 0], {"num": -1, "den": 1})],
            [_term([0, 0, 1, 0], ONE_JSON)],
            [_term([0, 0, 0, 1], {"num": -1, "den": 1})]]})},
         ("linearize", "--map", "phi.map"), None),
        ({"x.vf": ZERO_FIELD, "s.mat": json.dumps(FLOAT_RADICAL_INVOLUTION)},
         ("check", "--field", "x.vf", "--involution", "s.mat"), None),
        ({"x.vf": IRRATIONAL_FIELD}, ("normalize", "--field", "x.vf", "--p", "1", "--q", "2"),
         None),
        ALPHA_EXPONENT + (None,),
        ENTRY_EXPONENT + (None,),
        ({}, ("classify", "--n", "2", "--alpha", "0", "--beta", "2"), None),
        ({}, ("solve-involutions", "--n", "2", "--alpha", "1", "--beta", "0"), None),
        ({}, ("classify", "--n", "2", "--alpha", "-0", "--beta", "2"), None),
        ({"x.vf": BOOL_NUMERATOR_FIELD}, CHECK, None),
        ({"x.vf": LINEAR_FIELD, "s.mat": BOOL_DENOMINATOR_INVOLUTION},
         ("check", "--field", "x.vf", "--involution", "s.mat"), None),
    ],
    ids=[
        "field-json-shape", "field-json-syntax", "field-three-components",
        "field-short-exponents", "field-string-max-degree",
        "field-zero-denominator", "map-json-shape", "map-singular",
        "involution-json-shape", "involution-zero-matrix", "involution-json-2I",
        "field-term-above-max-degree", "alpha-zero-denominator", "no-include-degenerate",
        "oracle-degree-0", "oracle-degree-1", "oracle-env-degree-1",
        "normal-form-degree-0", "normal-form-env-degree-minus-5", "check-degree-0",
        "linearize-degree-minus-1", "field-float-radical", "involution-float-radical",
        "field-radical-other-than-involution", "map-mixed-radicals",
        "normalize-irrational-coefficient", "alpha-exponent", "involution-entry-exponent",
        "alpha-zero", "beta-zero", "alpha-minus-zero", "field-bool-numerator",
        "involution-bool-denominator",
    ],
)
def test_bad_input_is_usage_error(capsys, monkeypatch, tmp_path, files, argv, env):
    if env is not None:
        monkeypatch.setenv("REVEQUIV_DEGREE", env)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, _, err = run(capsys, *(str(tmp_path / a) if a in files else a for a in argv))
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("files, argv", [ALPHA_EXPONENT, ENTRY_EXPONENT],
                         ids=["alpha", "involution-entry"])
def test_exponent_notation_is_rejected_at_once(capsys, tmp_path, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    t0 = time.perf_counter()
    code, _, err = run(capsys, *(str(tmp_path / a) if a in files else a for a in argv))
    assert code == 2
    assert time.perf_counter() - t0 < 0.1
    assert "not a rational number" in err


# one input for each error handler: the exact stderr line and exit code
LINEAR_1_3 = json.dumps(PolyVF.from_linear(ResonanceSpec(1, 3).linear_matrix(), 3).to_json())


@pytest.mark.parametrize(
    "files, argv, code, line",
    [
        ({}, ("classify", "--n", "2", "--alpha", "1e5", "--beta", "2"), 2,
         "usage error: not a rational number: '1e5'"),
        ({}, ("classify", "--n", "2", "--alpha", "1", "--beta", "-1"), 2,
         "unsupported case: degenerate resonance, block reduction invalid: |alpha| == |beta|"),
        ({"x.vf": CUBIC_FIELD}, ("linearize", "--map", "x.vf"), 2,
         "field format error: unknown component 'dx1'"),
        ({"x.vf": json.dumps({"max_degree": 3, "components": [
            [_term([2, 0, 0, 0], _radical(1, 1, 2))], [], [], []]})},
         ("check", "--field", "x.vf", "--involution", "builtin:S1@n3"), 2,
         "usage error: the inputs mix quadratic fields, sqrt(3) vs sqrt(2)"),
        ({}, ("normal-form", "--p", "1", "--q", "2", "--group", "5", "--degree", "4", "--latex"),
         1, "error: mixed resonant terms present; no pure Delta1/Delta2 emission: "
            "~z1*z2 d/dz1 with ReZero"),
        ({"x.vf": LINEAR_1_3},
         ("normalize", "--field", "x.vf", "--p", "1", "--q", "2", "--degree", "3"), 1,
         "error: field's linear part is not the requested resonant rotation"),
        ({"phi.map": "x1 = x1 + x2^2\nx2 = x2\ny1 = y1\ny2 = y2\n"},
         ("linearize", "--map", "phi.map", "--degree", "4"), 1,
         "error: phi is not an involution up to the requested degree"),
    ],
    ids=["usage", "unsupported-case", "field-format", "mixed-radicals", "mixed-resonant-terms",
         "wrong-linear-part", "not-an-involution"],
)
def test_error_line_and_exit_code(capsys, tmp_path, files, argv, code, line):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    got = run(capsys, *(str(tmp_path / a) if a in files else a for a in argv))
    assert got == (code, "", line + "\n")


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("solve-involutions", "--n", "4", "--alpha", "1", "--beta", "2", "--json"),
        ("classify", "--n", "3", "--alpha", "1", "--beta", "2", "--json"),
        ("normal-form", "--p", "3", "--q", "5", "--group", "6", "--degree", "7", "--json"),
        ("tables", "--json"),
    ],
)
def test_output_is_deterministic(capsys, argv):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_normalization_error_exits_one(capsys, monkeypatch, tmp_path):
    # a homological equation without a solution is a mathematical failure
    monkeypatch.setattr("revequiv.normalform.linalg.solve", lambda rows, target: None)
    (tmp_path / "x.vf").write_text(CUBIC_FIELD)
    code, _, err = run(
        capsys, "normalize", "--field", str(tmp_path / "x.vf"), "--p", "1", "--q", "2",
        "--degree", "3",
    )
    assert code == 1
    assert err.startswith("error: homological splitting failed at degree 3")
