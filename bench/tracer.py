"""Span tracer that times calls into heatkern's public functions from outside.

``install()`` wraps each function in ``TARGETS`` at runtime and rebinds the
wrapper in every ``heatkern`` module namespace that holds the original (for
example ``heatkern.cli.eigendata`` and ``heatkern.oracle.eigendata`` get
the same wrapper), so calls through any import path are seen.  Nothing in
``src/`` is edited.

Spans are kept in memory as ``(id, name, start, end, parent, thread)``.
Parents come from a per-thread stack, so a span opened in a pool thread is
a root of that thread.  ``summarize()`` turns the spans of one traced
interpreter into additive per-layer totals and ``combine()`` adds those up
over the interpreters of a run.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import sys
import threading
import time

# module -> public functions whose calls are layer boundaries
TARGETS = {
    "heatkern.cli": ("main",),
    "heatkern.oracle": ("assemble", "eigendata", "log_det", "heat_trace", "zeta",
                        "eigenvalues_hp", "heat_trace_hp", "floquet_log_det"),
    "heatkern.heatcoeffs": ("global_invariant", "taylor_coefficient",
                            "diagonal_coefficient_recursive"),
    "heatkern.diffpoly": ("antiderivative", "evaluate"),
    "heatkern.specfun": ("integrate_unit_interval",),
    "heatkern.perturb": ("omega_exact2", "resummed_omega", "bq_gamma"),
    "heatkern.kdvflow": ("integrate_flow", "conservation_report"),
    "heatkern.acceptance": ("run_check",),
}

# counters that combine by maximum across interpreters (all others add up)
MAXED = ("oracle.galerkin_dim",)

# spans whose per-layer number is self time (children subtracted); every
# other function reports the wall time of its outermost spans
SELF_TIMED = {"oracle.eigendata": "oracle.eigensolve_s",
              "oracle.log_det": "oracle.log_det_s"}


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _potential_key(Q) -> str:
    """Content digest of a PeriodicFunction through its public accessors."""
    h = hashlib.sha1(repr(float(Q.a)).encode())
    for n in range(-Q.bandwidth, Q.bandwidth + 1):
        h.update(Q.mode(n).tobytes())
    return h.hexdigest()


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.invariant_keys: set = set()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _add(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def _max(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts.get(key, 0.0), value)

    # counters that need the call's arguments or result
    def _count(self, name: str, args, kwargs, result) -> None:
        if name == "heatcoeffs.global_invariant":
            key = (_arg(args, kwargs, 0, "k"), _potential_key(_arg(args, kwargs, 1, "Q")),
                   _arg(args, kwargs, 2, "grid"))
            with self._lock:
                if key in self.invariant_keys:
                    name = "heatcoeffs.global_invariant_repeats"
                    self.counts[name] = self.counts.get(name, 0.0) + 1
                self.invariant_keys.add(key)
        elif name == "diffpoly.evaluate":
            self._add("diffpoly.evaluate_words", len(_arg(args, kwargs, 0, "p")))
        elif name == "oracle.assemble" and result is not None:
            self._max("oracle.galerkin_dim", result.shape[0])
        elif name == "kdvflow.integrate_flow":
            self._add("kdvflow.rk4_steps", _arg(args, kwargs, 3, "steps"))

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if name == "acceptance.run_check":
                span_name = "acceptance." + str(_arg(args, kwargs, 0, "name"))
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, span_name, start, end, parent,
                                     threading.get_ident()))
                tracer._count(name, args, kwargs, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Import every target module, then rebind each target function in
        all loaded ``heatkern`` namespaces.  A target that no longer exists
        is listed in ``missing`` and its metrics read 0."""
        originals = {}
        for module_name, names in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.extend(f"{module_name}.{n}" for n in names)
                continue
            layer = module_name.rsplit(".", 1)[1]
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{fname}")
                    continue
                originals[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "heatkern"
                                      or module_name.startswith("heatkern.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


def _self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, _name, start, end, parent, _tid in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _tid in spans:
        covered, cursor = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[sid] = (end - start) - covered
    return out


def summarize(spans, counts) -> dict[str, float]:
    """Additive per-layer totals of one traced interpreter.

    ``<layer>.<fn>_s`` is the summed wall time of the outermost spans of
    that function (recursive calls are not counted twice; spans in pool
    threads add up, so it is busy time, not elapsed time), except the
    entries of ``SELF_TIMED``; ``<layer>.<fn>_calls`` counts every call;
    ``<layer>.self_s`` is the layer's summed self time.
    """
    by_id = {s[0]: s for s in spans}
    selft = _self_times(spans)
    out: dict[str, float] = dict(counts)
    for sid, name, start, end, parent, _tid in spans:
        out[name + "_calls"] = out.get(name + "_calls", 0.0) + 1
        layer = name.split(".", 1)[0]
        out[layer + ".self_s"] = out.get(layer + ".self_s", 0.0) + selft[sid]
        if name in SELF_TIMED:
            key = SELF_TIMED[name]
            out[key] = out.get(key, 0.0) + selft[sid]
            continue
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[1] != name:
            ancestor = by_id.get(ancestor[4])
        if ancestor is None:
            out[name + "_s"] = out.get(name + "_s", 0.0) + (end - start)
    return out


def combine(summaries: list[dict[str, float]]) -> dict[str, float]:
    """Totals over several interpreters plus the derived ratios."""
    out: dict[str, float] = {}
    for summary in summaries:
        for key, value in summary.items():
            if key in MAXED:
                out[key] = max(out.get(key, 0.0), value)
            else:
                out[key] = out.get(key, 0.0) + value
    calls = out.get("heatcoeffs.global_invariant_calls", 0.0)
    out["heatcoeffs.global_invariant_repeat_ratio"] = (
        out.get("heatcoeffs.global_invariant_repeats", 0.0) / calls if calls else 0.0)
    flow_s = out.get("kdvflow.integrate_flow_s", 0.0)
    out["kdvflow.rk4_steps_per_s"] = (
        out.get("kdvflow.rk4_steps", 0.0) / flow_s if flow_s else 0.0)
    return out
