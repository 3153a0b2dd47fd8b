"""Golden outputs: the sha256 of stdout and the exit code of fixed commands.

The digests pin the exact bytes that the CLI prints, so a refactor that
should not change behaviour can be checked against them.  A change that is
meant to alter one of these outputs takes the new digest from the failing
assertion and says why in its description.
"""

import hashlib

import pytest

from conftest import NO_SYMMETRY_FIELD
from revequiv.cli import main

# a 1:2 field reversible under R0 and the class-3 representative
CLASS3_FIELD = """\
dx1 = -1*x2
dx2 = 1*x1 + 3/4*y2^2 + 3/4*y1^2
dy1 = -2*y2 + 1/6*x1^2*y2 - 1/6*x1^2*x2*y1
dy2 = 2*y1 - 1/6*x1^2*y1 - 1/6*x1^2*x2*y2
"""

FIELDS = {"no_symmetry.vf": NO_SYMMETRY_FIELD, "class3.vf": CLASS3_FIELD}

# (argv, exit code, sha256 of stdout); a key of FIELDS stands for its file
GOLDEN = [
    (
        ("oracle", "--p", "3", "--q", "5", "--group", "6", "--degree", "7", "--json"),
        0,
        "b0e4d521cd828c96f0c4a60e9e5c6fc470b743bba621a4230a6f2cbb9492f307",
    ),
    (
        ("normalize", "--field", "no_symmetry.vf", "--p", "1", "--q", "2",
         "--degree", "5", "--json"),
        0,
        "a49cfb8d940a09b600bf6f248f2f7fe9c0bc88fd07b6793645d226cdb1617681",
    ),
    (
        ("normalize", "--field", "class3.vf", "--p", "1", "--q", "2", "--degree", "4"),
        0,
        "204044904e45d6534316de68ba8d1146662a270059b0f4df657de4815e180fee",
    ),
    (
        ("classify", "--n", "4", "--alpha", "1", "--beta", "2", "--json"),
        0,
        "6faf620808b15670161065c230ad71d048297a3260a71f99959f96ee6568fb95",
    ),
    (
        ("solve-involutions", "--n", "3", "--alpha", "1", "--beta", "2", "--json"),
        0,
        "b3c9fe8b9c8523786aa97b367eea780aa3d8b3e8c4cd080bac6c744143d996ed",
    ),
    (
        ("classify", "--n", "6", "--alpha", "1", "--beta", "2", "--json"),
        0,
        "a0a96f03482aa82a4615ba5aa79db034040afa9e23727664f6a19bfb2b38fb6e",
    ),
    (
        ("solve-involutions", "--n", "4", "--alpha", "1", "--beta", "2", "--json"),
        0,
        "2fb0f21b3111ec1e76c27b5102208080f12e176dc6dffca2d408dc94417829e7",
    ),
    (
        ("normal-form", "--p", "3", "--q", "5", "--group", "1", "--degree", "7", "--latex"),
        0,
        "9fc3dc9258f3d80d18fe8a8e926cf8f508364dcca799ffdc56408d64f25bab27",
    ),
]


def run_golden(argv, field_dir, capsys):
    paths = {}
    for name, text in FIELDS.items():
        paths[name] = str(field_dir / name)
        (field_dir / name).write_text(text)
    code = main([paths.get(a, a) for a in argv])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0][:3]) for g in GOLDEN])
def test_golden_output(argv, code, digest, tmp_path, capsys):
    assert run_golden(argv, tmp_path, capsys) == (code, digest)

