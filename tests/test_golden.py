"""Golden outputs: the sha256 of stdout and the exit code of fixed commands
and of the demos.

The digests pin the exact bytes that the CLI prints, so a refactor that
should not change behaviour can be checked against them.  A change that is
meant to alter one of these outputs takes the new digest from the failing
assertion and says why in its description.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import NO_SYMMETRY_FIELD
from revequiv.cli import main

ROOT = Path(__file__).resolve().parents[1]

# a 1:2 field reversible under R0 and the class-3 representative
CLASS3_FIELD = """\
dx1 = -1*x2
dx2 = 1*x1 + 3/4*y2^2 + 3/4*y1^2
dy1 = -2*y2 + 1/6*x1^2*y2 - 1/6*x1^2*x2*y1
dy2 = 2*y1 - 1/6*x1^2*y1 - 1/6*x1^2*x2*y2
"""

# g o R0 o g^-1 to degree 3, for a g with non-identity linear part that does
# not commute with R0
CONJUGATED_R0_MAP = """\
x1 = -1*x2 + 1*x1 - 1/4*x2*y2 + 1*x2^2 + 1/2*x1*y2 - 2*x1*x2 - 1/16*x2*y2^2 + 35/48*x2^2*y2 - 1/8*x2^2*y1 - 1*x2^3 + 1/8*x1*y2^2 - 23/12*x1*x2*y2 + 1/2*x1*x2*y1 + 2*x1*x2^2 + 11/12*x1^2*y2 - 1/2*x1^2*y1
x2 = -1*x2
y1 = 1/3*y2 + 1*y1 + 1/36*x2*y2 + 1/6*x2*y1 - 1/18*x1*y2 - 1/3*x1*y1 + 1/144*x2*y2^2 + 1/24*x2*y1*y2 - 11/432*x2^2*y2 - 11/72*x2^2*y1 - 1/72*x1*y2^2 - 1/12*x1*y1*y2 + 5/108*x1*x2*y2 + 5/18*x1*x2*y1 + 1/108*x1^2*y2 + 1/18*x1^2*y1
y2 = -1*y2 - 1/6*x2*y2 - 1*x2*y1 + 1/3*x1*y2 + 2*x1*y1 - 1/24*x2*y2^2 - 1/4*x2*y1*y2 + 11/72*x2^2*y2 + 11/12*x2^2*y1 + 1/12*x1*y2^2 + 1/2*x1*y1*y2 - 5/18*x1*x2*y2 - 5/3*x1*x2*y1 - 1/18*x1^2*y2 - 1/3*x1^2*y1
"""

FIELDS = {
    "no_symmetry.vf": NO_SYMMETRY_FIELD,
    "class3.vf": CLASS3_FIELD,
    "conjugated_r0.map": CONJUGATED_R0_MAP,
}

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
    (
        ("linearize", "--map", "conjugated_r0.map", "--degree", "3", "--json"),
        0,
        "68c96dcb67afcd88520eeff23e2f7042bf511efc9164255a50fe6cbe507821ee",
    ),
    (
        ("check", "--field", "class3.vf", "--involution", "builtin:S1@n3", "--json"),
        1,
        "39c24f75f680c90f70ce23d3af7b8486a38e4d30b8f93626609f06d7d09ce937",
    ),
    (
        ("normalize", "--degree", "6", "--field", "class3.vf", "--p", "1", "--q", "2",
         "--json"),
        0,
        "494a6b941c8de3bd284006538ac307098c899c150abecf38e1fe943a089fdd44",
    ),
    # every constraint-table row's hypothesis and witness
    (
        ("tables", "--json"),
        0,
        "244799beeef3df4bcb0f284a091954fa84d304bf41fa3d35192080fd61c5204c",
    ),
    # the sqrt(3) angles of the order-6 reflections
    (
        ("solve-involutions", "--n", "6", "--alpha", "1", "--beta", "2", "--latex"),
        0,
        "5bec85c38a0da844545db50749ae9df36e90aaf74f94fe85f064d8f69e532855",
    ),
    # phi_2 has global sign -1
    (
        ("oracle", "--p", "1", "--q", "2", "--group", "2", "--degree", "6", "--json"),
        0,
        "ed87de255c3eab64526ec0e17eaa772e36efaf5db4dd48d5f4c47647a8697e7a",
    ),
    # the order-6 classes and their labels, as JSON
    (
        ("solve-involutions", "--n", "6", "--alpha", "1", "--beta", "2", "--json"),
        0,
        "cd41a6c56c617ccca33cfbabf9511ac063a2d1cb11b372831d37033eaebdb2f7",
    ),
    (
        ("solve-involutions", "--n", "3", "--alpha", "2", "--beta", "3"),
        0,
        "f485a04aff68976f9b362e05d9cbc82be318b9af877f679163a01ed3feef51a6",
    ),
    # the Klein four-groups
    (
        ("classify", "--n", "2", "--alpha", "1", "--beta", "3"),
        0,
        "6496be2f13f9a0b0ead39c35fcf6dad263855b7549869d583e872fa7c6de3dc7",
    ),
    # the order-3 groups and their rho, as JSON
    (
        ("classify", "--n", "3", "--alpha", "2", "--beta", "3", "--json"),
        0,
        "b59794e2abd2fbfa3ac6fee3d98b8c3f48de5d5c7dd184e243d1dc7c2c1a9f95",
    ),
    # a negative frequency
    (
        ("classify", "--n", "4", "--alpha", "-1", "--beta", "5"),
        0,
        "737b11f8e5d29992fe12e9278897ef39775eddd06aafc81cba2e81e04e7ca378",
    ),
    # the Klein four-groups' elements and their rho, as JSON
    (
        ("classify", "--n", "2", "--alpha", "1", "--beta", "2", "--json"),
        0,
        "4363b6687e6d4af78dcb013f5e91cb61b2d432a2235f80c2ad3b11b0243b7c37",
    ),
]

# (demo script, exit code, sha256 of stdout)
DEMOS = [
    ("01_classify_involutions.py", 0,
     "08d4626c1780f89b46e87f109142458a24bfbbd10bfe9135ce821bdb23e9760e"),
    ("02_normal_form_survey.py", 0,
     "e83c7798bea96328a1108aaa56bf810dade95dd55cba37d9276429dfb3fa6d5a"),
    ("03_normalize_pipeline.py", 0,
     "a2546676b6b7a935b11a602fe6a6cc20960059b358c1891fabdebade3feaf62b"),
]


def run_golden(argv, field_dir, capsys):
    paths = {}
    for name, text in FIELDS.items():
        paths[name] = str(field_dir / name)
        (field_dir / name).write_text(text)
    code = main([paths.get(a, a) for a in argv])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


def golden_ids():
    """Each command's first three words, or all of them where those repeat
    an earlier id, so that adding a command renames no existing test."""
    ids = []
    for argv, _, _ in GOLDEN:
        short = " ".join(argv[:3])
        ids.append(" ".join(argv) if short in ids else short)
    return ids


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=golden_ids())
def test_golden_output(argv, code, digest, tmp_path, capsys):
    assert run_golden(argv, tmp_path, capsys) == (code, digest)



@pytest.mark.parametrize("script, code, digest", DEMOS, ids=[d[0] for d in DEMOS])
def test_demo_output(script, code, digest):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == (code, digest)
