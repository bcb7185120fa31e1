"""Spans around calls into slopewalk's public functions, recorded from outside.

The traced run replaces each function in the table below, in every
slopewalk namespace that holds it, with a wrapper that records a span: its
name, start, end and the span that was open when it was called. Patching
every namespace matters because callers look names up where they imported
them: overconvergent binds linalg.charpoly as _charpoly at import time, and
cli imports build_basis, u2_matrix_weight0 and NewtonPolygon by name.

Spans stay in memory; summarize() turns one round of them into per-layer
figures and dump() writes them out when the run ends. A layer's self time
is its span's duration minus the durations of its child spans (calls run
on one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


def _charpoly_sizes(args, result) -> dict:
    bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in result)
    return {"dim": len(args[0]), "coeff_bits": bits}


def _result_bytes(args, result) -> dict:
    return {"bytes": len(result)}


def _payload_bytes(args, result) -> dict:
    return {"bytes": len(args[2])}  # ResultCache.put(self, key, payload)


def _hit_or_miss(args, result) -> dict:
    return {"misses": 1} if result is None else {"hits": 1}


# (span name, module, attribute path, what to measure on return)
TARGETS = (
    ("linalg.charpoly", "slopewalk.linalg", "charpoly", _charpoly_sizes),
    ("linalg.solve_exact", "slopewalk.linalg", "solve_exact", None),
    ("linalg.rref", "slopewalk.linalg", "rref", None),
    ("linalg.rational_roots", "slopewalk.linalg", "rational_roots", None),
    ("padic.newton", "slopewalk.padic", "NewtonPolygon.from_polynomial", None),
    ("padic.val", "slopewalk.padic", "val", None),
    ("overconvergent.u2_matrix_weight0", "slopewalk.overconvergent", "u2_matrix_weight0", None),
    ("overconvergent.oc_slopes", "slopewalk.overconvergent", "oc_slopes", None),
    ("qseries.mul", "slopewalk.qseries", "QSeries.__mul__", None),
    ("qseries.hauptmodul_f", "slopewalk.qseries", "hauptmodul_f", None),
    ("qseries.u_p", "slopewalk.qseries", "u_p", None),
    ("spaces.build_basis", "slopewalk.spaces", "build_basis", None),
    ("spaces.operator_matrix", "slopewalk.spaces", "operator_matrix", None),
    ("spaces.cusp_subspace_level1", "slopewalk.spaces", "cusp_subspace_level1", None),
    ("spaces.hatada_check", "slopewalk.spaces", "hatada_check", None),
    ("pingpong.connect", "slopewalk.pingpong", "connect", None),
    ("pingpong.verify_certificate", "slopewalk.pingpong", "verify_certificate", None),
    ("pingpong.verify_certificate_json", "slopewalk.pingpong", "verify_certificate_json", None),
    ("eigencurve.twin", "slopewalk.eigencurve", "twin", None),
    ("eigencurve.annulus_index", "slopewalk.eigencurve", "annulus_index", None),
    ("weightspace.w_valuation", "slopewalk.weightspace", "w_valuation", None),
    ("serialize.json_dumps_stable", "slopewalk.serialize", "json_dumps_stable", _result_bytes),
    ("cache.get", "slopewalk.cache", "ResultCache.get", _hit_or_miss),
    ("cache.put", "slopewalk.cache", "ResultCache.put", _payload_bytes),
    ("cache.verify", "slopewalk.cache", "ResultCache.verify", None),
    ("cache.code_version", "slopewalk.cache", "code_version", None),
    ("cli.main", "slopewalk.cli", "main", None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "raised", "attrs")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = self.child = 0.0
        self.raised = False
        self.attrs = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = perf_counter()
                span.raised = True
                raise
            else:
                span.end = perf_counter()
                if measure is not None:
                    span.attrs = measure(args, result)
                return result
            finally:
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every target in every loaded slopewalk namespace."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "slopewalk" or n.startswith("slopewalk.")]
        for name, module, path, measure in TARGETS:
            owner = sys.modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                wrapped = self._wrap(name, raw.__func__ if is_classmethod else raw, measure)
                value = classmethod(wrapped) if is_classmethod else wrapped
                for other, obj in list(owner.__dict__.items()):
                    if obj is raw:  # QSeries.__rmul__ is __mul__
                        self._set(owner, other, value)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, measure)
            for mod in modules:
                for other, obj in list(vars(mod).items()):
                    if obj is original:
                        self._set(mod, other, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans = []

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: self time, calls, calls that raised, and the
        measured sizes (summed, except dim and coeff_bits, which are maxima)."""
        for span in self.spans:
            if span.parent is not None:
                span.parent.child += span.end - span.start
        out = {name: {"self_s": 0.0, "calls": 0, "raised": 0} for name in SPAN_NAMES}
        for span in self.spans:
            agg = out[span.name]
            agg["self_s"] += (span.end - span.start) - span.child
            agg["calls"] += 1
            agg["raised"] += span.raised
            for key, value in (span.attrs or {}).items():
                if key in ("dim", "coeff_bits"):
                    agg[key] = max(agg.get(key, 0), value)
                else:
                    agg[key] = agg.get(key, 0) + value
        return out

    def dump(self, path) -> None:
        """Write the spans of the last round as JSON lines."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "parent": None if span.parent is None else index[id(span.parent)],
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "raised": span.raised,
                    "attrs": span.attrs,
                }) + "\n")
