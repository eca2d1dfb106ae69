"""Spans and counters around the public functions of jalg's modules.

Everything is installed from outside the library: each public function and
method of the layer modules is replaced by a wrapper, and every binding of
it (the defining module, modules that imported it by name, the package
namespace) is repointed at the wrapper.
`uninstall` puts the originals back.

The scalar and polynomial primitives only count calls; everything else
records a span (name, start, end, parent span, job).  Self time is a span's
duration minus the time its child spans cover, summed per layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "fields",
    "poly",
    "linalg",
    "identities",
    "algebra",
    "matched_pair",
    "deformation",
    "morphism",
    "fileio",
    "catalog",
    "cli",
)

# counted, never spanned: (module, class, method) -> counter name
PRIMITIVES = {
    ("fields", "Field", "add"): "fields.add_calls",
    ("fields", "Field", "mul"): "fields.mul_calls",
    ("poly", "Poly", "__add__"): "poly.add_calls",
    ("poly", "Poly", "__radd__"): "poly.add_calls",
    ("poly", "Poly", "__mul__"): "poly.mul_calls",
    ("poly", "Poly", "__rmul__"): "poly.mul_calls",
    ("poly", "Poly", "eval"): "poly.eval_calls",
}

# spans kept for the spans file; self times and counts cover every call
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)  # span name or counter -> calls
        self.sums = defaultdict(int)  # derived totals, see _AFTER
        self.self_s = defaultdict(float)  # layer -> seconds
        self.raised = defaultdict(int)  # layer -> calls that raised
        self.spans: list[tuple] = []
        self.dropped = 0
        self.job = "setup"
        self._next_id = 0
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _counter(self, key, layer, fn):
        calls, raised = self.calls, self.raised
        if key == "poly.mul_calls":
            sums = self.sums

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[key] += 1
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    raised[layer] += 1
                    raise
                sums["poly.terms_out"] += len(out.terms)
                return out

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[layer] += 1
                raise

        return wrapper

    def _span(self, name, layer, fn):
        tracer = self
        stack = self._stack
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                tracer.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                tracer.calls[name] += 1
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((name, frame[1], end, parent, tracer.job))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(tracer.sums, args, out)
            return out

        return wrapper

    # -- installation ----------------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, wrapper) for every wrapped callable."""
        out = []
        for layer in LAYERS:
            module = importlib.import_module(f"jalg.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    out += self._class_targets(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                    out.append((module, name, obj, self._span(f"{layer}.{name}", layer, obj)))
        return out

    def _class_targets(self, layer, cls):
        out = []
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__add__", "__radd__", "__mul__", "__rmul__"):
                continue
            key = PRIMITIVES.get((layer, cls.__name__, attr))
            if key is not None:
                out.append((cls, attr, value, self._counter(key, layer, value)))
                continue
            if layer in ("fields", "poly"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                out.append((cls, attr, value, self._span(name, layer, value)))
            elif isinstance(value, (classmethod, staticmethod)):
                wrapped = type(value)(self._span(name, layer, value.__func__))
                out.append((cls, attr, value, wrapped))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        by_id = {id(original): wrapper for _, _, original, wrapper in targets}
        for owner, attr, original, wrapper in targets:
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))
        # repoint names bound at import time: `from .morphism import
        # iso_search`, the package re-exports, cli's aliases
        modules = [m for n, m in list(sys.modules.items()) if n == "jalg" or n.startswith("jalg.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None and not inspect.isclass(value):
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def fired(self, name) -> bool:
        return self.calls.get(name, 0) > 0

    def metrics(self) -> dict:
        """Per-layer metrics over everything traced so far."""
        calls, sums = self.calls, self.sums

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "fields.add_calls": calls["fields.add_calls"],
            "fields.mul_calls": calls["fields.mul_calls"],
            "poly.mul_calls": calls["poly.mul_calls"],
            "poly.add_calls": calls["poly.add_calls"],
            "poly.terms_out": sums["poly.terms_out"],
            "poly.eval_calls": calls["poly.eval_calls"],
            "identities.verdict_calls": sum(
                n for k, n in calls.items() if k.startswith("identities.") and k.endswith("_verdict")
            ),
            "identities.residual_terms": sums["identities.residual_terms"],
            "algebra.init_calls": calls["algebra.Algebra.__init__"],
            "algebra.mul_coords_calls": calls["algebra.Algebra.mul_coords"],
            "algebra.hom_check_calls": calls["algebra.hom_check"],
            "matched_pair.verify_calls": calls["matched_pair.MatchedPair.verify"],
            "matched_pair.census_accept_ratio": ratio(sums["census.accepted"], sums["census.scanned"]),
            "morphism.quadruple_check_calls": calls["morphism.quadruple_check"],
            "morphism.iso_search_calls": calls["morphism.iso_search"],
            "deformation.candidates": sums["deformation.candidates"],
            "deformation.maps_found": sums["deformation.maps_found"],
            "deformation.equiv_check_calls": calls["deformation.equiv_check"],
            "deformation.equiv_accept_ratio": ratio(sums["equiv.accepted"], calls["deformation.equiv_check"]),
            "linalg.rank_calls": calls["linalg.rank"],
        }
        for layer in LAYERS:
            if layer not in ("fields", "poly"):
                out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.raised"] = self.raised[layer]
        return out


def _verdict_residuals(sums, args, verdict):
    sums["identities.residual_terms"] += sum(len(f.residual.terms) for f in verdict.failures)


def _deformations(sums, args, found):
    mp = args[0]
    sums["deformation.candidates"] += mp.A.field.characteristic ** (mp.A.dim * mp.V.dim)
    sums["deformation.maps_found"] += len(found)


def _equiv(sums, args, accepted):
    sums["equiv.accepted"] += bool(accepted)


def _census(sums, args, census):
    sums["census.accepted"] += census.count
    sums["census.scanned"] += census.candidates


_AFTER = {
    "identities.jordan_verdict": _verdict_residuals,
    "identities.action_law_verdict": _verdict_residuals,
    "identities.bimodule_verdict": _verdict_residuals,
    "identities.matched_pair_verdict": _verdict_residuals,
    "identities.left_semidirect_verdict": _verdict_residuals,
    "identities.right_semidirect_verdict": _verdict_residuals,
    "deformation.enumerate_deformations": _deformations,
    "deformation.equiv_check": _equiv,
    "matched_pair.enumerate_abelian_pairs": _census,
}
