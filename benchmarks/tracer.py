"""Spans and counters around the calls into each hydroham layer, recorded
from outside the package.

``Tracer.install`` wraps every public function defined in a loaded
``hydroham.*`` module, plus a few methods (``SamplePlan.point``,
``HydroSystem.speeds``, ``CheckReport.to_dict``), and rebinds each wrapper
at every place the original is bound: modules import names directly, so
``eval_jet`` lives in the dicts of exprs, geometry, operators, systems and
driftflux at once.  ``unwrapped_bindings`` lists any original still bound
after installation; the self-test requires it to be empty, so a refactor
cannot silently drop spans.  Jet arithmetic is counted (``jets.ops``) but
not spanned, because its per-call cost is close to a span's.

A span's self time is its duration minus the time covered by its child
spans.  Spans and counts are only recorded inside ``Tracer.request``, so the
benchmark's own checking of results is never attributed to a layer.  Spans
stay in memory; ``span_log`` keeps them when asked, for writing out at the
end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter

PACKAGE = "hydroham"

# (module, class, method) spans beyond the module-level functions.
METHODS = (
    ("sampling", "SamplePlan", "point"),
    ("systems", "HydroSystem", "speeds"),
    ("reports", "CheckReport", "to_dict"),
)
# Jet arithmetic and elementary functions, counted as jets.ops.
JET_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__pow__", "exp", "log", "sqrt", "sin", "cos")


def loaded_modules() -> dict:
    """Short name ('exprs', 'cli', ...) -> module, for every loaded hydroham module."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            out[name[len(PACKAGE) + 1:] or PACKAGE] = mod
    return out


class Tracer:
    def __init__(self):
        self.recording = False
        self.self_ns: Counter = Counter()  # span name -> self time
        self.calls: Counter = Counter()  # span name -> calls
        self.counts: Counter = Counter()  # named counters
        self.span_log = None  # list of spans while logging, else None
        self._stack: list = []  # [span id, child ns] per open span
        self._next_id = 0
        self._request = None
        self._installed: list = []  # (owner, attribute, original, wrapper)

    # -- recording -------------------------------------------------------------

    def reset(self):
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()

    @contextlib.contextmanager
    def request(self, rid: str):
        """Record everything called inside as part of request ``rid``; yields a
        dict that holds the request's start and end (ns), the part of its
        time covered by layer spans, and the self time of its entry spans
        (those called directly by the request, such as ``check_*`` or
        ``cli.main``)."""
        root = [None, 0, 0]  # span id, child ns, entry spans' self ns
        self._stack = [root]
        self._request = rid
        self.recording = True
        info = {"start_ns": time.perf_counter_ns()}
        try:
            yield info
        finally:
            info["end_ns"] = time.perf_counter_ns()
            info["spanned_ns"] = root[1]
            info["entry_self_ns"] = root[2]
            self.recording = False
            self._stack = []

    def _span(self, name: str, fn, count=None):
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if count is not None:
                count(tracer.counts, args, kwargs)
            stack = tracer._stack
            parent = stack[-1]
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_raise(layer, exc)
                raise
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                if len(stack) == 1:  # an entry span: its parent is the request
                    parent[2] += dur - frame[1]
                tracer.calls[name] += 1
                tracer.self_ns[name] += dur - frame[1]
                if tracer.span_log is not None:
                    tracer.span_log.append(
                        (tracer._request, frame[0], parent[0], name, t0, t1))

        return wrapper

    def _note_raise(self, layer: str, exc: BaseException):
        """Count each exception object once per layer it escapes, so a
        domain error passing through nested eval spans counts once."""
        try:
            seen = exc.__dict__.setdefault("_traced_layers", set())
        except AttributeError:
            return
        if layer not in seen:
            seen.add(layer)
            self.counts[f"{layer}.raised.{type(exc).__name__}"] += 1

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording:
                tracer.counts["jets.ops"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, wrapper) for everything to wrap."""
        mods = loaded_modules()
        budget = mods["sampling"].RESAMPLE_BUDGET
        targets = []
        for short, mod in mods.items():
            if short == PACKAGE:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    targets.append((mod, attr, obj,
                                    self._span(name, obj, _COUNTS.get(name))))
        for short, cls_name, attr in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[attr]
            name = f"{short}.{cls_name}.{attr}"
            count = _count_draw(budget) if name == "sampling.SamplePlan.point" else None
            targets.append((cls, attr, fn, self._span(name, fn, count)))
        jet = mods["jets"].Jet
        for attr in JET_OPS:
            fn = jet.__dict__[attr]
            targets.append((jet, attr, fn, self._counter(fn)))
        return targets

    def install(self):
        """Rebind every wrapper at every module binding of its original."""
        if self._installed:
            return
        targets = self._targets()
        by_id = {id(orig): wrapper for _, _, orig, wrapper in targets}
        done = []
        for owner, attr, orig, wrapper in targets:
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                done.append((owner, attr, orig, wrapper))
        for mod in loaded_modules().values():
            for attr, obj in list(vars(mod).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    done.append((mod, attr, obj, wrapper))
        self._installed = done

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed = []

    def unwrapped_bindings(self) -> list:
        """'module.attr' for every original still bound in a hydroham module, in
        a module-level dict, list or tuple (a registry calls around the
        wrapper), or in a class; empty when installation reached every site."""
        originals = {id(orig): orig for _, _, orig, _ in self._installed}
        found = []
        for short, mod in loaded_modules().items():
            for attr, obj in vars(mod).items():
                if id(obj) in originals and originals[id(obj)] is obj:
                    found.append(f"{short}.{attr}")
                if isinstance(obj, (dict, list, tuple)):
                    items = obj.values() if isinstance(obj, dict) else obj
                    if any(id(x) in originals and originals[id(x)] is x for x in items):
                        found.append(f"{short}.{attr}[...]")
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for m_attr, m_obj in vars(obj).items():
                        if id(m_obj) in originals and originals[id(m_obj)] is m_obj:
                            found.append(f"{short}.{attr}.{m_attr}")
        return sorted(set(found))


def _count_eval_jet(counts, args, kwargs):
    order = args[2] if len(args) > 2 else kwargs.get("order", 2)
    counts[f"exprs.eval_jet.o{order}.calls"] += 1


def _count_draw(budget: int):
    def count(counts, args, kwargs):
        retry = args[2] if len(args) > 2 else kwargs.get("retry", 0)
        counts["sampling.draws"] += 1
        if retry:
            counts["sampling.redraws"] += 1
        if retry == budget:
            counts["sampling.exhausted"] += 1  # the last redraw of a point

    return count


_COUNTS = {"exprs.eval_jet": _count_eval_jet}
