"""Spans around calls into each revequiv module, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper: module
functions in every ``revequiv`` module that imported them by name, methods
on their class.  While an op runs (``Tracer.op`` is its index), a wrapper
records one span per call: name, start, end, parent span, op, and an
optional count taken from the call's arguments and result.  Outside an op
the wrappers only pass the call through, so input generation and answer
checking leave no spans.  Spans stay in memory until ``write``.

``metrics`` turns the spans into the per-layer metrics: ``<name>.calls``,
``.self_s`` (span time minus the time of its child spans) and ``.incl_s``,
summed over the run, plus the derived figures listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional


def _rref_stat(args, result):
    rows = args[0]
    red, pivots = result
    bits = 0
    for row in red:
        for x in row:
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return (len(rows) * (len(rows[0]) if rows else 0), len(pivots), len(rows), bits)


# (span name, module, class or None, attribute, count taken from a call)
TARGETS = [
    ("exactalg.Mat4.mul", "revequiv.exactalg", "Mat4", "__mul__", None),
    ("exactalg.Mat4.det", "revequiv.exactalg", "Mat4", "det", None),
    ("groups.generate_closure", "revequiv.groups", None, "generate_closure",
     lambda a, r: (len(r.elements), hash(r.elements))),
    ("groups.sign_assignment", "revequiv.groups", None, "sign_assignment", None),
    ("groups.is_dihedral", "revequiv.groups", None, "is_dihedral", None),
    ("solver.solve_involutions", "revequiv.solver", None, "solve_involutions",
     lambda a, r: len(r)),
    ("solver.partition_by_group", "revequiv.solver", None, "partition_by_group", None),
    ("cli.main", "revequiv.cli", None, "main", lambda a, r: int(r != 0)),
    ("linalg.rref", "revequiv.linalg", None, "rref", _rref_stat),
    ("linalg.nullspace", "revequiv.linalg", None, "nullspace", None),
    ("linalg.solve", "revequiv.linalg", None, "solve", lambda a, r: int(r is None)),
    ("normalform.survival_analysis", "revequiv.normalform", None, "survival_analysis",
     lambda a, r: len(r.surviving)),
    ("normalform.brute_force_kernel", "revequiv.normalform", None, "brute_force_kernel",
     None),
    ("normalform.belitskii_normalize", "revequiv.normalform", None,
     "belitskii_normalize", None),
    ("vecfield.conjugate", "revequiv.vecfield", None, "conjugate", None),
    ("vecfield.PolyMap.compose", "revequiv.vecfield", "PolyMap", "compose", None),
    ("vecfield.PolyMap.inverse", "revequiv.vecfield", "PolyMap", "inverse", None),
    ("vecfield.linearize_involution", "revequiv.vecfield", None,
     "linearize_involution", None),
    ("vecfield.Poly.mul", "revequiv.vecfield", "Poly", "mul", lambda a, r: len(r.terms)),
    ("vecfield.Poly.substitute", "revequiv.vecfield", "Poly", "substitute", None),
    ("vecfield.Poly.substitute_linear", "revequiv.vecfield", "Poly", "substitute_linear",
     None),
    ("vecfield.check_symmetry", "revequiv.vecfield", None, "check_symmetry", None),
]

# Every per-layer metric a traced run reports: name -> unit.
LAYER_METRICS = {
    "exactalg.Mat4.mul.calls": "count",
    "exactalg.Mat4.mul.self_s": "s",
    "exactalg.Mat4.det.self_s": "s",
    "groups.generate_closure.calls": "count",
    "groups.generate_closure.self_s": "s",
    "groups.generate_closure.elements": "count",
    "groups.generate_closure.unique_ratio": "1",
    "groups.sign_assignment.self_s": "s",
    "groups.is_dihedral.self_s": "s",
    "solver.solve_involutions.calls": "count",
    "solver.solve_involutions.self_s": "s",
    "solver.solve_involutions.solutions": "count",
    "solver.partition_by_group.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.exit_nonzero": "count",
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref.entries": "count",
    "linalg.rref.rank_ratio": "1",
    "linalg.rref.max_bits": "bits",
    "linalg.nullspace.calls": "count",
    "linalg.solve.calls": "count",
    "linalg.solve.failed": "count",
    "normalform.brute_force_kernel.incl_s": "s",
    "normalform.oracle.assembly_s": "s",
    "normalform.oracle.elim_s": "s",
    "normalform.survival_analysis.calls": "count",
    "normalform.survival_analysis.self_s": "s",
    "normalform.survival_analysis.monomials": "count",
    "normalform.belitskii_normalize.incl_s": "s",
    "normalform.normalize.split_first_s": "s",
    "normalform.normalize.split_repeat_s": "s",
    "vecfield.conjugate.calls": "count",
    "vecfield.conjugate.self_s": "s",
    "vecfield.PolyMap.compose.self_s": "s",
    "vecfield.PolyMap.inverse.self_s": "s",
    "vecfield.linearize_involution.self_s": "s",
    "vecfield.Poly.mul.calls": "count",
    "vecfield.Poly.mul.self_s": "s",
    "vecfield.Poly.mul.terms_out": "count",
    "vecfield.Poly.substitute.self_s": "s",
    "vecfield.Poly.substitute_linear.calls": "count",
    "vecfield.Poly.substitute_linear.self_s": "s",
    "vecfield.check_symmetry.calls": "count",
    "vecfield.check_symmetry.self_s": "s",
}

_COMPOSITION = ("vecfield.conjugate", "vecfield.PolyMap.compose", "vecfield.PolyMap.inverse")
# counts taken from calls that are summed over the run, by span name
_SUMMED = {
    "solver.solve_involutions": "solver.solve_involutions.solutions",
    "cli.main": "cli.main.exit_nonzero",
    "linalg.solve": "linalg.solve.failed",
    "normalform.survival_analysis": "normalform.survival_analysis.monomials",
    "vecfield.Poly.mul": "vecfield.Poly.mul.terms_out",
}


class Tracer:
    def __init__(self):
        self.names: List[str] = [t[0] for t in TARGETS]
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.op: Optional[int] = None
        self._restore: List[tuple] = []

    def _wrap(self, name_id: int, fn: Callable, stat) -> Callable:
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, op, None)
            if stat is not None:
                spans[idx] = (name_id, start, end, parent, op, stat(args, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "revequiv" or name.startswith("revequiv."))]
        for name_id, (_, module, owner, attr, stat) in enumerate(TARGETS):
            if owner is not None:
                cls = getattr(sys.modules[module], owner)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name_id, original, stat))
                continue
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name_id, original, stat)
            # cli, solver and the package import these by name
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """All spans as tab-separated text: name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            names = self.names
            for i, (name_id, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(f"{i}\t{names[name_id]}\t{start!r}\t{end!r}\t{parent}\t{op}\n")

    def metrics(self, ops, op_times) -> Dict[str, float]:
        names, spans = self.names, self.spans
        n = len(names)
        calls, incl, self_s = [0] * n, [0.0] * n, [0.0] * n
        child = [0.0] * len(spans)
        for name_id, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        ids = {name: i for i, name in enumerate(names)}
        is_linalg = [name.startswith("linalg.") for name in names]
        is_comp = [name in _COMPOSITION for name in names]
        bfk, bn = ids["normalform.brute_force_kernel"], ids["normalform.belitskii_normalize"]
        # per span: the enclosing brute_force_kernel / belitskii_normalize span,
        # and whether a linalg / composition span encloses it
        bfk_of, bn_of = [-1] * len(spans), [-1] * len(spans)
        in_lin, in_comp = [False] * len(spans), [False] * len(spans)
        elim: Dict[int, float] = {}
        comp: Dict[int, float] = {}
        top_level = 0.0
        extra: Dict[str, float] = {}
        closures_per_op: Dict[int, List[int]] = {}
        rref = [0, 0, 0, 0]
        elements = 0
        for i, (name_id, start, end, parent, op, value) in enumerate(spans):
            dur = end - start
            calls[name_id] += 1
            incl[name_id] += dur
            self_s[name_id] += dur - child[i]
            if parent < 0:
                top_level += dur
                up_bfk = up_bn = -1
                up_lin = up_comp = False
            else:
                up_bfk, up_bn = bfk_of[parent], bn_of[parent]
                up_lin, up_comp = in_lin[parent], in_comp[parent]
            bfk_of[i] = i if name_id == bfk else up_bfk
            bn_of[i] = i if name_id == bn else up_bn
            in_lin[i] = up_lin or is_linalg[name_id]
            in_comp[i] = up_comp or is_comp[name_id]
            if is_linalg[name_id] and not up_lin and up_bfk >= 0:
                elim[up_bfk] = elim.get(up_bfk, 0.0) + dur
            if is_comp[name_id] and not up_comp and up_bn >= 0:
                comp[up_bn] = comp.get(up_bn, 0.0) + dur
            if value is None:
                continue
            name = names[name_id]
            if name == "groups.generate_closure":
                elements += value[0]
                closures_per_op.setdefault(op, []).append(value[1])
            elif name == "linalg.rref":
                for k in range(3):
                    rref[k] += value[k]
                rref[3] = max(rref[3], value[3])
            else:
                key = _SUMMED[name]
                extra[key] = extra.get(key, 0) + value

        out: Dict[str, float] = {}
        for name, i in ids.items():
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
            out[f"{name}.incl_s"] = incl[i]
        out.update(extra)
        closures = sum(len(v) for v in closures_per_op.values())
        distinct = sum(len(set(v)) for v in closures_per_op.values())
        out["groups.generate_closure.elements"] = elements
        out["groups.generate_closure.unique_ratio"] = distinct / closures if closures else 0.0
        out["linalg.rref.entries"] = rref[0]
        out["linalg.rref.rank_ratio"] = rref[1] / rref[2] if rref[2] else 0.0
        out["linalg.rref.max_bits"] = rref[3]
        bfk_total = incl[bfk]
        elim_total = sum(elim.values())
        out["normalform.oracle.elim_s"] = elim_total
        out["normalform.oracle.assembly_s"] = bfk_total - elim_total
        first, repeat = [], []
        for i, (name_id, start, end, _, op, _) in enumerate(spans):
            if name_id == bn:
                split = end - start - comp.get(i, 0.0)
                (first if ops[op].first else repeat).append(split)
        out["normalform.normalize.split_first_s"] = statistics.median(first) if first else 0.0
        out["normalform.normalize.split_repeat_s"] = statistics.median(repeat) if repeat else 0.0
        metrics = {name: out.get(name, 0) for name in LAYER_METRICS}
        traced_time = sum(op_times)
        metrics["trace.top_span_share"] = top_level / traced_time if traced_time else 0.0
        return metrics
