"""Fuzzing the CLI readers: whatever a field, map or involution file or a
number flag holds, ``main`` returns a documented exit code and prints no
traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from revequiv.cli import main
from revequiv.vecfield import VARS

FUZZ = settings(max_examples=100, deadline=None)

# text formats: soups of the tokens the parsers know, and some they do not
TOKENS = ["x1", "x2", "y1", "y2", "^", "*", "/", "+", "-", " ", "0", "1", "2",
          "3/2", "1/0", "=", "\n", "#", "dx1", "(", "."]
soups = st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)


def component_lines(prefix):
    lines = st.lists(soups, min_size=4, max_size=4).map(
        lambda rhs: "".join(f"{prefix}{v} = {r}\n" for v, r in zip(VARS, rhs))
    )
    return st.one_of(lines, soups)


# JSON formats: arbitrary JSON values, and files of the documented shape
# with arbitrary JSON in any place or none
KEYS = ["max_degree", "components", "exponents", "coefficient", "num", "den", "a", "b", "d"]
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 6), st.sampled_from([2.5, "", "x"])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.sampled_from(KEYS), inner, max_size=4)
    ),
    max_leaves=12,
)


def maybe_junk(strategy, junk):
    return st.one_of(strategy, json_values) if junk else strategy


def scalars(junk):
    """Rational and quadratic coefficients; radicals include 4 and 2.5."""
    rationals = st.fixed_dictionaries(
        {"num": maybe_junk(st.integers(-2, 2), junk), "den": maybe_junk(st.integers(1, 3), junk)}
    )
    radicals = st.fixed_dictionaries(
        {"a": rationals, "b": rationals,
         "d": maybe_junk(st.sampled_from([0, 2, 3, 4, 2.5, True]), junk)}
    )
    return maybe_junk(st.one_of(rationals, radicals), junk)


def components_files(junk):
    terms = st.fixed_dictionaries(
        {
            "exponents": maybe_junk(st.lists(st.integers(0, 2), min_size=4, max_size=4), junk),
            "coefficient": scalars(junk),
        }
    )
    components = st.lists(st.lists(terms, max_size=3), min_size=4, max_size=4)
    return st.fixed_dictionaries(
        {
            "max_degree": maybe_junk(st.integers(0, 4), junk),
            "components": maybe_junk(components, junk),
        }
    )


def with_identity(obj):
    """Add x_i to component i, so that a map file passes the check of its
    linear part more often."""
    for i, c in enumerate(obj["components"]):
        c.append({"exponents": [int(i == j) for j in range(4)],
                  "coefficient": {"num": 1, "den": 1}})
    return json.dumps(obj)


json_files = st.one_of(components_files(False), components_files(True)).map(json.dumps)
field_files = st.one_of(component_lines("d"), json_files)
map_files = st.one_of(component_lines(""), json_files, components_files(False).map(with_identity))
matrix_rows = st.lists(st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x"]), min_size=4, max_size=4)
involution_files = st.one_of(
    st.lists(matrix_rows, min_size=4, max_size=4).map(
        lambda rows: "\n".join(" ".join(r) for r in rows)
    ),
    st.lists(
        st.lists(st.one_of(scalars(False), scalars(True)), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    ).map(json.dumps),
    json_values.map(json.dumps),
    soups,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "cubic.vf").write_text("dx1 = -x2 + x1^3\ndx2 = x1\ndy1 = -2*y2\ndy2 = 2*y1\n")
    return directory


def run_main(argv):
    """main(argv); the exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def run_on_file(directory, text, *argv):
    """main(argv) with FILE replaced by a file holding text."""
    path = directory / "input"
    path.write_text(text)
    return run_main(str(path) if a == "FILE" else a for a in argv)


@FUZZ
@given(field_files, st.sampled_from(["builtin:R0", "builtin:S1@n3", "builtin:Xi3@n4"]))
def test_field_reader_never_crashes(fuzz_dir, text, involution):
    code, err = run_on_file(
        fuzz_dir, text, "check", "--field", "FILE", "--involution", involution, "--degree", "3"
    )
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@FUZZ
@given(map_files)
def test_map_reader_never_crashes(fuzz_dir, text):
    code, err = run_on_file(fuzz_dir, text, "linearize", "--map", "FILE", "--degree", "3")
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@FUZZ
@given(involution_files)
def test_involution_reader_never_crashes(fuzz_dir, text):
    code, err = run_on_file(
        fuzz_dir, text, "check", "--field", str(fuzz_dir / "cubic.vf"), "--involution", "FILE"
    )
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# number flags: small values, their edges and junk; "--flag=value" keeps a
# leading minus sign from reading as an option
rationals = st.one_of(
    st.integers(-3, 3).map(str),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(0, 3)),
    st.sampled_from(["-0", "1.5", "1e2", "x", ""]),
)


def ints(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(["x", "", "1.5"]))


@FUZZ
@given(st.sampled_from(["classify", "solve-involutions"]),
       st.sampled_from(["2", "5", "0", "-2", "x"]), rationals, rationals)
def test_frequency_flags_never_crash(command, n, alpha, beta):
    code, err = run_main([command, f"--n={n}", f"--alpha={alpha}", f"--beta={beta}"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@FUZZ
@given(st.sampled_from(["normal-form", "oracle"]), ints(-2, 6), ints(-2, 6), ints(-2, 6),
       ints(-1, 4))
def test_resonance_flags_never_crash(command, p, q, group, degree):
    code, err = run_main(
        [command, f"--p={p}", f"--q={q}", f"--group={group}", f"--degree={degree}"]
    )
    assert code in (0, 1, 2)
    assert "Traceback" not in err
