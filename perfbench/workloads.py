"""The three workloads of the revequiv benchmark.

A workload turns a seed into a fixed list of ops: every input is made here,
before any op is timed, and the program receives only those inputs.  ``run``
times one op as calls into the public API; ``check`` judges its result
afterwards, against the reference answers in ``reference/`` as well as by
the program's own cross-checks.

Each op looks up the program's functions on their modules at call time, so
the wrappers that ``tracing`` installs on those modules see every call.

The ops of a run come in rounds, one per ``SECONDS_PER_ROUND`` of
``--seconds`` (``rounds_for``).  The work of a run is fixed by
``--seconds`` and the seed, not by the clock: every commit is timed on the
same ops, and the tail percentile is taken over the same number of samples.
The inputs vary with the seed; what an op costs does as little as the
workload allows, so that runs on different seeds agree.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Tuple

from revequiv import cli, normalform, solver, vecfield
from revequiv.vecfield import Poly, PolyMap, PolyVF

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

WORKLOADS = ("classify", "crosscheck", "normalize")
# A round on 2 CPUs, Python 3.11, takes 28-38 s for classify (its 46 ops),
# 18-25 s for crosscheck (one resonance over the 6 classes) and 25-35 s for
# normalize (22 ops over the 6 classes).  The machine's speed, not the seed,
# makes most of those ranges.
SECONDS_PER_ROUND = 30.0

CLASSES = (1, 2, 3, 4, 5, 6)
CROSSCHECK_DEGREE = 6
NORMALIZE_DEGREE = 5
LINEARIZE_DEGREE = 6


def rounds_for(seconds: float) -> int:
    return max(1, round(seconds / SECONDS_PER_ROUND))


@functools.lru_cache(maxsize=None)
def reference() -> Dict[str, Any]:
    """The reference answers, read once; the self-test edits them in place."""
    with open(os.path.join(REFERENCE_DIR, "classify.json")) as fh:
        classify = json.load(fh)
    with open(os.path.join(REFERENCE_DIR, "kernel_dims.json")) as fh:
        kernel = json.load(fh)
    return {"classify": classify, "kernel_dims": kernel["cells"]}


@dataclass
class Op:
    """One unit of user work: ``kind`` selects the runner and the check."""

    kind: str
    args: Tuple
    key: Tuple = ()
    first: bool = False  # first op of its key in the run (cold caches)


def timed(fn, *args):
    """Wall time of one call, and its result or the exception it raised."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        result = exc
    return time.perf_counter() - start, result


# ---------------------------------------------------------------------------
# classify: question 1, through the CLI
# ---------------------------------------------------------------------------

SUPPORTED_N = (2, 3, 4, 6)
# (classify, solve-involutions) pairs per round at each n.  Weighting the
# cheap cases up makes a round 46 ops, so that op_p50_s and op_tail_s are
# order statistics of many calls spread over the run, not one or two calls,
# whose time moves by 10-30 % with the machine (see README.md).
PAIRS_PER_ROUND = {2: 12, 3: 8, 4: 2, 6: 1}
# |alpha| != |beta|, the non-resonant pairs the block reduction accepts
ALPHA_BETA = [(a, b) for a in range(1, 6) for b in range(1, 6) if a != b]


def build_classify(rng: random.Random, rounds: int) -> List[Op]:
    ops = []
    for _ in range(rounds):
        ns = [n for n in SUPPORTED_N for _ in range(PAIRS_PER_ROUND[n])]
        rng.shuffle(ns)
        for n in ns:
            for command in ("classify", "solve-involutions"):
                a, b = rng.choice(ALPHA_BETA)
                argv = [command, "--n", str(n), "--alpha", str(a),
                        "--beta", str(b), "--json"]
                ops.append(Op("cli", (argv,), key=(command, n)))
    return ops


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        elapsed, code = timed(cli.main, argv)
    return elapsed, (code, out.getvalue())


def check_cli(op: Op, result) -> bool:
    code, text = result
    if code != 0:
        return False
    command, n = op.key
    ref = reference()["classify"][str(n)]
    data = json.loads(text)
    if command == "classify":
        ok = len(data) == ref["classes"] and all(
            entry["dihedral"]
            and entry["group"]["order"] == ref["group_order"]
            and entry["n_reversing"] == ref["reversing"]
            for entry in data
        )
        labels = {entry["class_id"] for entry in data}
    else:
        nondegenerate = [s for s in data if not s["degenerate"]]
        labels = {s["class_id"] for s in nondegenerate}
        ok = (
            len(data) == ref["solutions"]
            and len(data) - len(nondegenerate) == ref["degenerate"]
            and len(labels) == ref["classes"]
            and all(s["group_order"] == ref["group_order"] for s in nondegenerate)
        )
    if "labels" in ref:
        ok = ok and sorted(labels) == ref["labels"]
    return ok


# ---------------------------------------------------------------------------
# crosscheck: question 2 and the independent oracle, one cell per op
# ---------------------------------------------------------------------------


def build_crosscheck(rng: random.Random, rounds: int) -> List[Op]:
    cells = reference()["kernel_dims"]
    pool = sorted(cells, key=lambda pq: tuple(map(int, pq.split(":"))))
    ops = []
    for r in range(rounds):
        if r % len(pool) == 0:
            order = rng.sample(pool, len(pool))
        p, q = map(int, order[r % len(pool)].split(":"))
        spec = normalform.ResonanceSpec(p, q)
        # the whole class sweep of a resonance runs in a row, as in a survey
        for j in CLASSES:
            if str(j) in cells[f"{p}:{q}"]:
                ops.append(Op("cell", (spec, j), key=(p, q, j)))
    return ops


def _cell(spec, j):
    survival = normalform.survival_analysis(spec, j, CROSSCHECK_DEGREE)
    oracle = normalform.brute_force_kernel(spec, j, CROSSCHECK_DEGREE)
    return survival, oracle


def run_cell(spec, j):
    return timed(_cell, spec, j)


def check_cell(op: Op, result) -> bool:
    survival, oracle = result
    p, q, j = op.key
    ref = reference()["kernel_dims"][f"{p}:{q}"][str(j)]
    return all(
        oracle.dimensions[d] == survival.parameter_count(exact_degree=d) == ref[str(d)]
        for d in range(2, CROSSCHECK_DEGREE + 1)
    )


# ---------------------------------------------------------------------------
# normalize: question 3, concrete fields and involutions
# ---------------------------------------------------------------------------

# A signed permutation g acts by (g x)_i = s_i * x_{src_i}; it is stored as
# ((src_0, s_0), ..., (src_3, s_3)).  R0 and the six class representatives
# are signed permutations, so the reversible fields of a class can be drawn
# by averaging over its group without calling the program.
IDENTITY = ((0, 1), (1, 1), (2, 1), (3, 1))


def signed_perm(m) -> Tuple[Tuple[int, int], ...]:
    rows = []
    for i in range(4):
        (entry,) = [(j, int(m[i, j].as_rational())) for j in range(4)
                    if not m[i, j].is_zero()]
        rows.append(entry)
    return tuple(rows)


def diag(*signs) -> Tuple[Tuple[int, int], ...]:
    return tuple((i, s) for i, s in enumerate(signs))


def perm_mul(g, h):
    """The signed permutation of x -> g(h(x))."""
    return tuple((h[src][0], s * h[src][1]) for src, s in g)


def reversing_group(generators) -> Dict[tuple, int]:
    """Closure of involutions that all reverse the linear part; maps each
    element to its sign rho (-1 reversing, +1 equivariant)."""
    group = {IDENTITY: 1}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = perm_mul(x, g)
                if y not in group:
                    group[y] = -group[x]
                    nxt.append(y)
        frontier = nxt
    return group


def pushforward(comps, g):
    """(g_* Y)(x) = g . Y(g^-1 x) for a field given as 4 exponent dicts."""
    out = []
    for src_i, s_i in g:
        comp = {}
        for e, c in comps[src_i].items():
            sign = s_i
            for src, s in g:
                if s < 0 and e[src] % 2:
                    sign = -sign
            comp[tuple(e[src] for src, _ in g)] = sign * c
        out.append(comp)
    return out


def add_into(acc, comps, scale):
    for a, comp in zip(acc, comps):
        for e, c in comp.items():
            v = a.get(e, 0) + scale * c
            if v:
                a[e] = v
            else:
                a.pop(e, None)


def is_reversible(comps, g) -> bool:
    pushed = pushforward(comps, g)
    return all(
        {e: -c for e, c in a.items()} == b for a, b in zip(comps, pushed)
    )


def random_monomial(rng, degree):
    e = [0, 0, 0, 0]
    for _ in range(degree):
        e[rng.randrange(4)] += 1
    return tuple(e)


def linear_field(p, q):
    """A = blockdiag(p J, q J) as exponent dicts."""
    return [{(0, 1, 0, 0): Fraction(-p)}, {(1, 0, 0, 0): Fraction(p)},
            {(0, 0, 0, 1): Fraction(-q)}, {(0, 0, 1, 0): Fraction(q)}]


def random_coefficient(rng, max_den):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, max_den))


def random_reversible(shape, rng, p, q, group, degree, nterms):
    """Linear part plus signed group averages of random monomials, cycling
    through the degrees 2..degree, until the nonlinear part has at least
    ``nterms`` terms.

    The monomials come from ``shape`` and the coefficients from ``rng``.
    """
    x = linear_field(p, q)
    for i in range(100 * nterms):
        if sum(map(len, x)) - 4 >= nterms:
            return x
        y = [{} for _ in range(4)]
        e = random_monomial(shape, 2 + i % (degree - 1))
        y[shape.randrange(4)][e] = random_coefficient(rng, 3)
        for g, rho in group.items():
            add_into(x, pushforward(y, g), Fraction(rho, len(group)))
    raise RuntimeError("the group averages keep cancelling")


def to_field(comps, degree) -> PolyVF:
    return PolyVF([Poly(c) for c in comps], degree)


def to_map(comps, degree) -> PolyMap:
    return PolyMap([Poly(c) for c in comps], degree)


R0_PERM = diag(1, -1, 1, -1)
CLASS_PERMS = {j: signed_perm(normalform.real_group_representative(j)) for j in CLASSES}
# The involutions a field is tested against: R0, the coordinate reflections
# of the Z2 x Z2 cases and the six class representatives.
CANDIDATES = [R0_PERM, diag(-1, 1, -1, 1), diag(-1, 1, 1, -1), diag(1, -1, -1, 1)]
CANDIDATES += [CLASS_PERMS[j] for j in CLASSES]


def reversible_field(shape, rng, p, q, j, degree=NORMALIZE_DEGREE, nterms=16):
    """A random field reversible under exactly the reversors of class j.

    A field that happens to have an extra symmetry among ``CANDIDATES``
    is drawn again, so that every field of a (p:q, class) key has the same
    symmetry and later fields of a key meet the state the first one left.
    """
    group = reversing_group([R0_PERM, CLASS_PERMS[j]])
    expected = [group.get(c) == -1 for c in CANDIDATES]
    for _ in range(100):
        x = random_reversible(shape, rng, p, q, group, degree, nterms)
        if [is_reversible(x, c) for c in CANDIDATES] == expected:
            return x
    raise RuntimeError(f"no field with exactly the symmetry of class {j}")


def near_identity_map(shape, rng, degree):
    """x + one quadratic term per component of the parity opposite to x_i
    under R0, so that g does not commute with R0 and g R0 g^-1 is a
    nonlinear involution of a similar size for every seed."""
    comps = []
    for i, (_, s_i) in enumerate(R0_PERM):
        comp = {tuple(int(k == i) for k in range(4)): Fraction(1)}
        while True:
            e = random_monomial(shape, 2)
            if (-1) ** (e[1] + e[3]) != s_i:
                break
        comp[e] = random_coefficient(rng, 4)
        comps.append(comp)
    return to_map(comps, degree)


def linearize_inputs(shape, rng, p, q):
    """phi = g R0 g^-1 and a field y reversible under phi (pushed by g)."""
    k = LINEARIZE_DEGREE
    g = near_identity_map(shape, rng, k)
    phi = g.compose(PolyMap.from_linear(solver.R0, k)).compose(g.inverse())
    x = random_reversible(shape, rng, p, q, reversing_group([R0_PERM]), k, nterms=16)
    y = vecfield.conjugate(to_field(x, k), g)
    return phi, y


# A round normalizes each half of the classes at its own resonance: classes
# 1-3 at 2:3, which has resonant terms below degree 5, and classes 4-6 at
# 3:5, which has none (later rounds take 1:2 and 3:4).  The plan is fixed,
# so every seed does the same cold work.
NORMALIZE_RESONANCES = [(2, 3), (3, 5), (1, 2), (3, 4)]
CLASS_HALVES = ((1, 2, 3), (4, 5, 6))
FIELDS_PER_KEY = 3
LINEARIZE_PER_HALF = 2


def build_normalize(rng: random.Random, rounds: int) -> List[Op]:
    # What an op costs follows from which monomials its inputs have, far
    # more than from their coefficients.  The monomials of each input
    # therefore come from a stream of its own that is the same for every
    # seed, and the seed draws the coefficients and the order of the ops:
    # runs on different seeds do alike work, and a run still meets many
    # shapes of input.
    ops = []
    for r in range(rounds):
        by_key = {}
        for half, classes in enumerate(CLASS_HALVES):
            p, q = NORMALIZE_RESONANCES[(2 * r + half) % len(NORMALIZE_RESONANCES)]
            spec = normalform.ResonanceSpec(p, q)
            for j in classes:
                by_key[(p, q, j)] = []
                for f in range(FIELDS_PER_KEY):
                    shape = random.Random(f"normalize-{r}-{j}-{f}")
                    x = to_field(reversible_field(shape, rng, p, q, j), NORMALIZE_DEGREE)
                    by_key[(p, q, j)].append(Op("normalize", (x, spec), key=(p, q, j)))
            by_key[(p, q)] = []
            for f in range(LINEARIZE_PER_HALF):
                shape = random.Random(f"linearize-{r}-{half}-{f}")
                by_key[(p, q)].append(
                    Op("linearize", linearize_inputs(shape, rng, p, q), key=(p, q)))
        # the seed orders the keys; the ops of a key keep their order, so
        # the same shape of field meets the cold cache on every seed
        slots = [key for key, key_ops in by_key.items() for _ in key_ops]
        rng.shuffle(slots)
        ops += [by_key[key].pop(0) for key in slots]
    seen = set()
    for op in ops:
        op.first = op.key not in seen
        seen.add(op.key)
    return ops


def run_normalize(x, spec):
    return timed(normalform.belitskii_normalize, x, spec, NORMALIZE_DEGREE)


def in_adjoint_kernel(field: PolyVF, spec) -> bool:
    """L_{A^T}(h) = Dh . (A^T x) - A^T h vanishes on the nonlinear part h.

    This is the normal-form condition; a field that meets it (and keeps its
    reversors) solves every homological equation with a zero change, so a
    second normalization returns it unchanged.
    """
    a_t = spec.linear_matrix().transpose()
    ax = [Poly.linear_form([a_t[i, j] for j in range(4)]) for i in range(4)]
    h = field.nonlinear().components
    for i in range(4):
        acc = Poly()
        for j in range(4):
            acc = acc + h[i].diff(j).mul(ax[j]) - h[j].scale(a_t[i, j])
        if not acc.is_zero():
            return False
    return True


def check_normalize(op: Op, result) -> bool:
    x, spec = op.args
    nf, change = result
    s = normalform.real_group_representative(op.key[2])
    # Idempotency is checked through the normal-form condition it rests
    # on: normalizing nf again would build the spaces of its larger symmetry
    # set cold, which takes longer than the op itself.
    return (
        vecfield.conjugate(x, change) == nf
        and vecfield.check_symmetry(nf, solver.R0, -1).ok
        and vecfield.check_symmetry(nf, s, -1).ok
        and in_adjoint_kernel(nf, spec)
    )


def _linearize(phi, y):
    h = vecfield.linearize_involution(phi, LINEARIZE_DEGREE)
    return vecfield.conjugate(y, h)


def run_linearize(phi, y):
    return timed(_linearize, phi, y)


def check_linearize(op: Op, z) -> bool:
    return vecfield.check_symmetry(z, solver.R0, -1).ok


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

BUILDERS = {
    "classify": build_classify,
    "crosscheck": build_crosscheck,
    "normalize": build_normalize,
}
RUNNERS = {
    "cli": (run_cli, check_cli),
    "cell": (run_cell, check_cell),
    "normalize": (run_normalize, check_normalize),
    "linearize": (run_linearize, check_linearize),
}


def build(workload: str, seed: int, rounds: int) -> List[Op]:
    return BUILDERS[workload](random.Random(f"{workload}-{seed}"), rounds)


def run(op: Op):
    """(seconds, result) of one op; result is the exception if it raised."""
    return RUNNERS[op.kind][0](*op.args)


def check(op: Op, result) -> bool:
    if isinstance(result, Exception):
        return False
    return bool(RUNNERS[op.kind][1](op, result))
