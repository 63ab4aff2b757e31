"""Call tracing for the benchmark's traced runs.

While a `with Tracer()` block is open, the public functions of the ksum3
layers (field, curve, valuation, oracle, cli) and a listed set of their
classes' methods are replaced with timing wrappers.  A function is replaced
under every name that binds it in any loaded ksum3 module, including the
`from .x import y` copies and the values of module-level dicts such as
`cli.COMMANDS`; the originals go back when the block ends.  The library
itself is not edited.

Each thread keeps its own stack, counters and spans, so counts stay exact
under the scan's thread pool.  A wrapped call's self time is its duration
minus the time of the wrapped calls it made.  Times are wall clock: with
several threads they include waits for the interpreter lock, and a name's
self time is the sum over threads.  Every call is counted and
timed; every call except those in `PER_STEP` also keeps a span (name,
start, end, parent span, element id, whether it returned) in memory until
`write_spans`.  The per-step calls run millions of times in a whole-field
scan, so they are counted and timed but keep no span.  The element id is
the code of `a` in the last `CurveParams.make` on the thread, which is
where every workload's per-element work begins (NO_ELEMENT before it).
"""

from __future__ import annotations

import inspect
import sys
import threading
from array import array
from time import perf_counter

import numpy as np

from ksum3 import cli, curve, field, oracle, valuation

LAYERS = {"field": field, "curve": curve, "valuation": valuation,
          "oracle": oracle, "cli": cli}

# Methods traced besides each layer's public module-level functions.
METHODS = {
    "field": {
        field.Field: ["code_add", "code_neg", "code_mul", "code_inv", "code_pow",
                      "add_codes", "mul_codes", "pow_codes",
                      "random_element", "solve_artin_schreier"],
        field.Fe: ["cube_root", "ninth_root", "trace", "is_square", "sqrt"],
    },
    "curve": {curve.CurveParams: ["make"]},
}

PER_STEP = {"field.code_add", "field.code_neg", "field.code_mul",
            "field.code_inv", "field.code_pow", "curve.triple_x"}

# Totals taken from return values: ValuationReport.trail is the walk's
# steps, DescentGraph.t its levels.
RESULT_TOTALS = {
    "valuation.kval": lambda rep: len(rep.trail),
    "valuation.descent": lambda graph: graph.t,
}


def _element_code(cls, field, a):
    """A span's element id: CurveParams.make(field, a) begins every
    workload's per-element work."""
    return a.code


NO_ELEMENT = 2 ** 64 - 1   # element codes are below 3^40 < 2^64 - 1

SPAN_COLUMNS = {"name": np.int32, "start": np.float64, "end": np.float64,
                "parent": np.int64, "element": np.uint64, "ok": np.int8,
                "thread": np.int32}


class _ThreadLog:
    """One thread's open calls, counters and kept spans."""

    def __init__(self, nnames: int):
        self.child = []           # time spent in wrapped callees, per open call
        self.open = []            # span index of each open call that keeps one
        self.element = NO_ELEMENT
        self.calls = [0] * nnames
        self.self_s = [0.0] * nnames
        self.totals = [0] * nnames
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.elem = array("Q")
        self.ok = array("b")


def _targets():
    """(name, owner, attribute, original) for everything traced."""
    out = []
    for layer, mod in LAYERS.items():
        for attr, obj in sorted(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)):
                out.append((f"{layer}.{attr}", mod, attr, obj))
        for cls, attrs in METHODS.get(layer, {}).items():
            for attr in attrs:
                out.append((f"{layer}.{attr}", cls, attr, cls.__dict__[attr]))
    return out


def _bindings(modules, orig):
    """(container, key) of every module global or module-level dict value
    that holds `orig`."""
    out = []
    for mod in modules:
        for key, value in vars(mod).items():
            if value is orig:
                out.append((mod, key))
            elif isinstance(value, dict):
                out.extend((value, k) for k, v in value.items() if v is orig)
    return out


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Traces the ksum3 layers while a `with tracer:` block is open.

    A tracer may be entered many times; its counts and spans accumulate.
    """

    def __init__(self):
        self.names = []
        self._logs = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.t0 = perf_counter()
        self._sites = []   # (container, key, original, wrapper)
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "ksum3" or k.startswith("ksum3."))]
        for name, owner, attr, orig in _targets():
            idx = len(self.names)
            self.names.append(name)
            if isinstance(orig, classmethod):
                self._sites.append((owner, attr, orig, classmethod(self._wrap(idx, orig.__func__))))
            elif isinstance(owner, type):
                self._sites.append((owner, attr, orig, self._wrap(idx, orig)))
            else:
                wrapper = self._wrap(idx, orig)
                self._sites += [(c, k, orig, wrapper) for c, k in _bindings(modules, orig)]

    def __enter__(self):
        for container, key, _, wrapper in self._sites:
            _set(container, key, wrapper)
        return self

    def __exit__(self, *exc):
        for container, key, orig, _ in reversed(self._sites):
            _set(container, key, orig)
        return False

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = _ThreadLog(len(self.names))
            with self._lock:
                self._logs.append(log)
            self._local.log = log
            return log

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        get_log = self._log
        pc = perf_counter
        t0 = self.t0

        if name in PER_STEP:
            def traced(*args, **kwargs):
                log = get_log()
                child = log.child
                child.append(0.0)
                t = pc()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = pc() - t
                    log.self_s[idx] += d - child.pop()
                    log.calls[idx] += 1
                    if child:
                        child[-1] += d
            return traced

        starts_element = name == "curve.make"
        measure = RESULT_TOTALS.get(name)

        def traced(*args, **kwargs):
            log = get_log()
            if starts_element:
                log.element = _element_code(*args, **kwargs)
            k = len(log.start)
            log.name.append(idx)
            log.parent.append(log.open[-1] if log.open else -1)
            log.elem.append(log.element)
            log.ok.append(0)
            log.open.append(k)
            child = log.child
            child.append(0.0)
            t = pc()
            log.start.append(t - t0)
            log.end.append(t - t0)
            try:
                result = fn(*args, **kwargs)
                log.ok[k] = 1
                if measure is not None:
                    log.totals[idx] += measure(result)
                return result
            finally:
                end = pc()
                d = end - t
                log.end[k] = end - t0
                log.open.pop()
                log.self_s[idx] += d - child.pop()
                log.calls[idx] += 1
                if child:
                    child[-1] += d
        return traced

    # -- reading the results ---------------------------------------------------

    def _index(self, name: str) -> int:
        return self.names.index(name)

    def calls(self, name: str) -> int:
        i = self._index(name)
        return sum(log.calls[i] for log in self._logs)

    def self_s(self, name: str) -> float:
        i = self._index(name)
        return sum(log.self_s[i] for log in self._logs)

    def total(self, name: str) -> int:
        """Sum of the RESULT_TOTALS value over the calls of `name`."""
        i = self._index(name)
        return sum(log.totals[i] for log in self._logs)

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s(n) for n in self.names if n.startswith(layer + "."))

    def spans(self) -> dict:
        """Every kept span of every thread, as numpy columns."""
        cols = {k: [np.zeros(0, dtype)] for k, dtype in SPAN_COLUMNS.items()}
        base = 0
        for tid, log in enumerate(self._logs):
            for k, arr in (("name", log.name), ("start", log.start), ("end", log.end),
                           ("element", log.elem), ("ok", log.ok)):
                cols[k].append(np.frombuffer(arr, SPAN_COLUMNS[k]))
            parent = np.frombuffer(log.parent, np.int32).astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + base, -1))
            cols["thread"].append(np.full(len(log.start), tid, np.int32))
            base += len(log.start)
        return {k: np.concatenate(v) for k, v in cols.items()}

    def span_seconds(self, name: str) -> float:
        """Summed duration of the kept spans of `name`."""
        s = self.spans()
        sel = s["name"] == self._index(name)
        return float((s["end"][sel] - s["start"][sel]).sum())

    def calls_inside(self, name: str, ancestor: str) -> int:
        """Kept spans of `name` with a span of `ancestor` above them."""
        s = self.spans()
        want = self._index(ancestor)
        count = 0
        for k in np.nonzero(s["name"] == self._index(name))[0]:
            p = s["parent"][k]
            while p >= 0 and s["name"][p] != want:
                p = s["parent"][p]
            count += p >= 0
        return int(count)

    def ok_calls(self, name: str) -> int:
        """Calls of `name` that returned rather than raised."""
        s = self.spans()
        return int(((s["name"] == self._index(name)) & (s["ok"] == 1)).sum())

    def write_spans(self, path) -> int:
        s = self.spans()
        np.savez(path, names=np.array(self.names), **s)
        return len(s["name"])
