"""Command-line front end.

Commands
--------
solve-involutions   enumerate the second reversing involution for D_n
classify            partition the solutions into classes and analyze groups
check               verify a field's (anti-)symmetry under an involution
normal-form         survival analysis / normal-form template for p:q
oracle              brute-force kernel dimensions per degree
normalize           degree-by-degree normalization of a concrete field
linearize           linearizing change for a polynomial involution

Exit codes: 0 success, 1 mathematical failure (a check that does not hold,
an unattainable request), 2 usage error.  ``--json`` output is schema-stable
and round-trips through the documented formats.  The default truncation
degree is 7, overridable with the REVEQUIV_DEGREE environment variable; a
degree below 1 (below 2 for ``oracle``) is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import List

from .exactalg import IncompatibleRadicals, Mat4, is_involution
from .normalform import (
    GROUP_INDICES,
    PHI,
    NormalizationError,
    ResonanceSpec,
    belitskii_normalize,
    brute_force_kernel,
    emit_real_normal_form,
    real_group_representative,
    survival_analysis,
    table_report,
)
from .solver import (
    R0,
    SUPPORTED_N,
    DegenerateResonance,
    LinearPart,
    UnsupportedGroupOrder,
    partition_by_group,
    reflection_block_matrix,
    rotation_angles,
    solve_involutions,
)
from .vecfield import (
    FieldFormatError,
    PolyMap,
    PolyVF,
    check_symmetry,
    linearize_involution,
)

DEFAULT_DEGREE_ENV = "REVEQUIV_DEGREE"


def default_degree() -> int:
    try:
        return int(os.environ.get(DEFAULT_DEGREE_ENV, "7"))
    except ValueError:
        return 7


class UsageError(ValueError):
    pass


def _degree(args, minimum: int = 1) -> int:
    """The truncation degree: ``--degree``, else REVEQUIV_DEGREE, else 7."""
    degree = args.degree if args.degree is not None else default_degree()
    if degree < minimum:
        raise UsageError(f"degree must be at least {minimum}, got {degree}")
    return degree


# ---------------------------------------------------------------------------
# builtin involution registry
# ---------------------------------------------------------------------------


def _builtin_registry():
    reg = {"R0": R0}
    # order-2 case, in the published order: S1, S2, S3 and the degenerate S4
    reg["S1@n2"] = reflection_block_matrix(2, 1, 1)
    reg["S2@n2"] = reflection_block_matrix(2, 1, 0)
    reg["S3@n2"] = reflection_block_matrix(2, 0, 1)
    reg["S4@n2"] = reflection_block_matrix(2, 0, 0)
    # order-3 case: the three published non-degenerate representatives
    reg["S1@n3"] = reflection_block_matrix(3, 1, 1)
    reg["S2@n3"] = reflection_block_matrix(3, 1, 0)
    reg["S3@n3"] = reflection_block_matrix(3, 0, 1)
    # order-4 case: one representative per class Xi_1..Xi_6
    for j in range(1, 7):
        m = real_group_representative(j)
        reg[f"Xi{j}@n4"] = m
        reg[f"S{j}@n4"] = m
    return reg


BUILTIN_INVOLUTIONS = _builtin_registry()


# what decoding a malformed JSON input file can raise
_DECODE_ERRORS = (ValueError, TypeError, KeyError, ZeroDivisionError)


def _read(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError as e:
        raise UsageError(f"cannot read {what} file {path!r}: {e}")


def load_involution(spec: str) -> Mat4:
    """A 4x4 rational matrix from ``builtin:NAME`` or a file.

    File contents: either the JSON list-of-rows emitted by ``--json`` or
    four whitespace-separated rows of rational entries.
    """
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        try:
            return BUILTIN_INVOLUTIONS[name]
        except KeyError:
            known = ", ".join(sorted(BUILTIN_INVOLUTIONS))
            raise UsageError(f"unknown builtin involution {name!r}; known: {known}")
    text = _read(spec, "involution")
    if text.startswith("["):
        try:
            m = Mat4.from_json(json.loads(text))
        except _DECODE_ERRORS as e:
            raise UsageError(f"bad involution file {spec!r}: {e!r}")
    else:
        rows = [line.split() for line in text.splitlines() if line.strip()]
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise UsageError(f"involution file {spec!r} must contain a 4x4 matrix")
        try:
            m = Mat4([[_rat(x) for x in r] for r in rows])
        except UsageError as e:
            raise UsageError(f"bad matrix entry in {spec!r}: {e}")
    if not is_involution(m):
        raise UsageError(f"the matrix in {spec!r} is not an involution: S*S != I")
    return m


def _load_components(cls, path: str, max_degree: int, what: str):
    """A PolyVF or PolyMap from a file: the JSON emitted by ``--json``, or
    one ``lhs = polynomial`` line per component."""
    text = _read(path, what)
    try:
        if text.startswith("{"):
            return cls.from_json(json.loads(text))
        return cls.parse(text, max_degree)
    except FieldFormatError:
        raise
    except _DECODE_ERRORS as e:
        raise FieldFormatError(f"bad {what} file {path!r}: {e!r}")


def load_field(path: str, max_degree: int) -> PolyVF:
    return _load_components(PolyVF, path, max_degree, "field")


def load_map(path: str, max_degree: int) -> PolyMap:
    return _load_components(PolyMap, path, max_degree, "map")


_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?")


def _rat(text: str) -> Fraction:
    """A rational written ``a`` or ``a/b``, as in the field format."""
    try:
        if _RATIONAL_RE.fullmatch(text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError(f"not a rational number: {text!r}")


def _checked(make, *values):
    """make(*values), with the ValueError of a value it rejects as a usage
    error: a zero frequency, or p and q that are not coprime, positive and
    distinct (the 1:1 case is deeply degenerate)."""
    try:
        return make(*values)
    except ValueError as e:
        raise UsageError(str(e))


def _latex_rational(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return f"{sign}\\frac{{{abs(f.numerator)}}}{{{f.denominator}}}"


def _latex_scalar(s) -> str:
    if s.is_rational():
        return _latex_rational(s.a)
    parts = []
    if s.a != 0:
        parts.append(_latex_rational(s.a))
    coef = Fraction(s.b)
    root = f"\\sqrt{{{s.d}}}"
    if abs(coef) == 1:
        term = root if coef > 0 else f"-{root}"
    elif coef.denominator == 1:
        term = f"{coef.numerator}{root}"
    else:
        sgn = "-" if coef < 0 else ""
        term = f"{sgn}\\frac{{{abs(coef.numerator)}{root}}}{{{coef.denominator}}}"
    if parts and coef > 0:
        parts.append("+")
    parts.append(term)
    return "".join(parts)


def _latex_matrix(m: Mat4) -> str:
    body = "\\\\\n".join(
        " & ".join(_latex_scalar(m[i, j]) for j in range(4)) for i in range(4)
    )
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"


def _matrix_text(m: Mat4) -> str:
    cells = [[str(m[i, j]) for j in range(4)] for i in range(4)]
    w = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(w) for c in row) for row in cells)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _class_labels(classes, n: int) -> List[str]:
    """Xi<j> for a class of the n = 4 case with the rotations of <R0, phi_j>,
    class<index> otherwise."""
    xi = {}
    if n == 4:
        xi = {rotation_angles(Fraction(PHI[j].eps1, 4), Fraction(PHI[j].eps2, 4)): j
              for j in GROUP_INDICES}
    labels = []
    for idx, c in enumerate(classes, start=1):
        j = xi.get(rotation_angles(*c.members[0].block_angles))
        labels.append(f"Xi{j}" if j is not None else f"class{idx}")
    return labels


def cmd_solve_involutions(args) -> int:
    lin = _checked(LinearPart, _rat(args.alpha), _rat(args.beta))
    include = not args.exclude_degenerate
    sols = solve_involutions(lin, args.n, include_degenerate=include)
    nondeg = [s for s in sols if not s.degenerate]
    classes = partition_by_group(nondeg)
    class_of = {}
    for c, label in zip(classes, _class_labels(classes, args.n)):
        for m in c.members:
            class_of[m.s] = label
    if args.json:
        out = [s.to_json(class_id=class_of.get(s.s)) for s in sols]
        print(json.dumps(out, indent=2))
    elif args.latex:
        for s in sols:
            note = []
            if s.degenerate:
                note.append("degenerate")
            if s.s in class_of:
                note.append(class_of[s.s])
            suffix = "  % " + ", ".join(note) if note else ""
            print(_latex_matrix(s.s) + suffix)
    else:
        print(f"{len(sols)} solutions ({len(nondeg)} non-degenerate, "
              f"{len(classes)} classes)")
        for s in sols:
            k1, k2 = s.block_angles
            tag = "degenerate" if s.degenerate else class_of.get(s.s, "")
            print(f"\nangles ({k1}, {k2})  group order {s.group_order}  {tag}")
            print(_matrix_text(s.s))
    return 0


def cmd_classify(args) -> int:
    lin = _checked(LinearPart, _rat(args.alpha), _rat(args.beta))
    sols = solve_involutions(lin, args.n, include_degenerate=False)
    classes = partition_by_group(sols)
    report = [
        {
            "class_id": label,
            "members": [m.to_json() for m in c.members],
            "group": c.group.to_json(rho=c.rho),
            "dihedral": c.group.order == 2 * args.n,
            "n_reversing": sum(1 for s in c.rho.signs if s == -1),
        }
        for c, label in zip(classes, _class_labels(classes, args.n))
    ]
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"{len(classes)} classes of non-degenerate solutions")
        for entry in report:
            print(
                f"\n{entry['class_id']}: {len(entry['members'])} members, "
                f"group order {entry['group']['order']}, "
                f"dihedral={entry['dihedral']}, "
                f"{entry['n_reversing']} reversing elements"
            )
    return 0


def cmd_check(args) -> int:
    degree = _degree(args)
    x = load_field(args.field, degree)
    phi = load_involution(args.involution)
    rep = check_symmetry(x, phi, args.sign)
    kind = "reversible" if args.sign == -1 else "equivariant"
    if args.json:
        print(
            json.dumps(
                {
                    "ok": rep.ok,
                    "sign": args.sign,
                    "offending": [
                        {"component": i, "exponents": list(e), "value": str(v)}
                        for i, e, v in rep.offending[:20]
                    ],
                },
                indent=2,
            )
        )
    elif rep.ok:
        print(f"OK: field is {kind} under the given involution (degree <= {x.max_degree})")
    else:
        print(f"FAIL: field is not {kind}; first offending coefficients:")
        for i, e, v in rep.offending[:10]:
            print(f"  component {i + 1}, exponents {e}: residual {v}")
    return 0 if rep.ok else 1


def cmd_normal_form(args) -> int:
    spec = _checked(ResonanceSpec, args.p, args.q)
    degree = _degree(args)
    r = survival_analysis(spec, args.group, degree)
    if args.json:
        print(json.dumps(r.to_json(), indent=2))
        return 0
    if args.latex:
        print(emit_real_normal_form(r).as_latex())
        return 0
    print(f"p:q = {spec.p}:{spec.q}, group {args.group}, degree <= {degree}")
    hyp = r.hypothesis_status
    print(f"relaxed-hypothesis status: {hyp}")
    print(f"surviving monomials ({len(r.surviving)}):")
    for m, c in r.surviving:
        print(f"  {m}  [{c.value}]")
    if r.is_pure_delta_form():
        print("\nreal normal form:")
        print(emit_real_normal_form(r).as_text())
    else:
        print("\n(mixed resonant terms present; no pure-Delta real template)")
    return 0


def cmd_oracle(args) -> int:
    spec = _checked(ResonanceSpec, args.p, args.q)
    # the oracle starts at degree 2: below it there is nothing to report
    degree = _degree(args, minimum=2)
    res = brute_force_kernel(spec, args.group, degree)
    if args.json:
        print(json.dumps(res.to_json(), indent=2))
    else:
        print(f"p:q = {spec.p}:{spec.q}, group {args.group}")
        for k in sorted(res.dimensions):
            print(f"  degree {k}: kernel dimension {res.dimensions[k]}")
    return 0


def cmd_normalize(args) -> int:
    spec = _checked(ResonanceSpec, args.p, args.q)
    degree = _degree(args)
    x = load_field(args.field, degree)
    if any(c.d for comp in x.components for c in comp.terms.values()):
        raise UsageError("normalize takes rational coefficients only")
    nf, change = belitskii_normalize(x, spec, degree)
    if args.json:
        print(
            json.dumps(
                {"normal_form": nf.to_json(), "change": change.to_json()}, indent=2
            )
        )
    else:
        print("normal form:")
        print(nf)
        print("\nchange of coordinates:")
        print(change)
    return 0


def cmd_linearize(args) -> int:
    degree = _degree(args)
    phi = load_map(args.map, degree)
    h = linearize_involution(phi, degree)
    if args.json:
        print(json.dumps({"change": h.to_json()}, indent=2))
    else:
        print("linearizing change of coordinates:")
        print(h)
    return 0


def cmd_tables(args) -> int:
    rep = table_report()
    if args.json:
        print(json.dumps(rep, indent=2))
        return 0
    for row in rep:
        status = "unsatisfiable"
        if row["satisfiable"]:
            status = f"(p,q)=({row['witness'][0]},{row['witness'][1]}) -> {row['computed']}"
            if row["tautology"]:
                status += "  [vacuous printed condition]"
            elif not row["agrees"]:
                status += f"  [DISAGREES with stated {row['stated']}]"
        print(f"phi{row['phi']}  {row['hypothesis']:28}  stated={row['stated']}  {status}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="revequiv",
        description="Reversing-symmetry classification and resonant normal forms",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_fmt(sp, latex=True):
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--json", action="store_true")
        if latex:
            g.add_argument("--latex", action="store_true")

    sp = sub.add_parser("solve-involutions", help="enumerate reversing involutions")
    sp.add_argument("--n", type=int, required=True, choices=SUPPORTED_N)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument(
        "--exclude-degenerate",
        action="store_true",
        help="drop solutions whose group has order below 2n",
    )
    add_fmt(sp)
    sp.set_defaults(func=cmd_solve_involutions)

    sp = sub.add_parser("classify", help="partition solutions by generated group")
    sp.add_argument("--n", type=int, required=True, choices=SUPPORTED_N)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    add_fmt(sp, latex=False)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("check", help="verify reversibility/equivariance")
    sp.add_argument("--field", required=True)
    sp.add_argument("--involution", required=True, help="file or builtin:NAME")
    sp.add_argument("--sign", type=int, default=-1, choices=(-1, 1))
    sp.add_argument("--degree", type=int)
    add_fmt(sp, latex=False)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("normal-form", help="survival analysis / real normal-form template")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--group", type=int, required=True, choices=range(1, 7))
    sp.add_argument("--degree", type=int)
    add_fmt(sp)
    sp.set_defaults(func=cmd_normal_form)

    sp = sub.add_parser("oracle", help="brute-force kernel dimensions")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--group", type=int, required=True, choices=range(1, 7))
    sp.add_argument("--degree", type=int)
    add_fmt(sp, latex=False)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("normalize", help="normalize a concrete field")
    sp.add_argument("--field", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--degree", type=int)
    add_fmt(sp, latex=False)
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("linearize", help="linearize a polynomial involution")
    sp.add_argument("--map", required=True)
    sp.add_argument("--degree", type=int)
    add_fmt(sp, latex=False)
    sp.set_defaults(func=cmd_linearize)

    sp = sub.add_parser("tables", help="published coefficient-constraint tables")
    add_fmt(sp, latex=False)
    sp.set_defaults(func=cmd_tables)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (DegenerateResonance, UnsupportedGroupOrder) as e:
        print(f"unsupported case: {e}", file=sys.stderr)
        return 2
    except FieldFormatError as e:
        print(f"field format error: {e}", file=sys.stderr)
        return 2
    except IncompatibleRadicals as e:
        # only input files bring in a radical other than sqrt(3)
        print(f"usage error: the inputs mix quadratic fields, {e}", file=sys.stderr)
        return 2
    except (ValueError, NormalizationError) as e:
        # a mathematical failure: mixed resonant terms for --latex, a linear
        # part other than the requested rotation, a map that is no
        # involution, a homological equation without a solution
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
