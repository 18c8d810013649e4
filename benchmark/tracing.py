"""Run-time spans around the public functions of every snapgrip layer.

Nothing in ``src`` is edited: ``Tracer.install`` replaces each public
function of the layer modules with one wrapper, in every ``snapgrip.*``
namespace that binds it (``from .model import gradient_1dof`` makes one
binding per importing module), and ``uninstall`` puts the originals back.

Spans are aggregated in memory by (task, calling span, name) with their
call count, total time and self time (total minus the time of child
spans), and written once by the caller when the run ends.  Private
helpers are not wrapped, so their time counts as self time of the nearest
wrapped caller.  This module imports only the standard library, so
loading it does not move the set-up time of the program under test.
"""

import functools
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("model", "statics", "dynamics", "explore", "config", "report", "cli")
ROOT_SPAN = "<task>"


def _design_metrics(notes, args, kwargs, result, solves):
    if result.get("bistable"):
        notes["bistable_points"] += 1
        notes["solves_in_bistable_points"] += solves


def _closing_time(notes, args, kwargs, result, _):
    notes["closing_attempts"] += 1
    notes["closing_triggered"] += int(bool(result.triggered))


def _find_equilibria_chain(notes, args, kwargs, result, _):
    seeds = args[1] if len(args) > 1 else kwargs["seeds"]
    notes["chain_seeds"] += len(seeds)
    notes["chain_equilibria"] += len(result)


def _file_written(notes, args, kwargs, result, _):
    path = args[0] if args else kwargs["path"]
    notes["bytes_written"] += os.path.getsize(path)


def _svg_rendered(notes, args, kwargs, result, _):
    notes["bytes_written"] += len(result.encode("utf-8"))


# name -> (counter read at entry and passed on as its increase, or None; hook)
HOOKS = {
    "explore.design_metrics": ("statics.find_equilibria_1dof",
                               _design_metrics),
    "dynamics.closing_time": (None, _closing_time),
    "statics.find_equilibria_chain": (None, _find_equilibria_chain),
    "report.write_csv": (None, _file_written),
    "report.write_key_value": (None, _file_written),
    "report.write_manifest": (None, _file_written),
    "report.svg_line_plot": (None, _svg_rendered),
    "report.svg_grouped_bars": (None, _svg_rendered),
}


def public_functions(module, layer):
    """(span name, function) for each public function defined in ``module``."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield f"{layer}.{name}", obj


class Tracer:
    """Aggregated spans and counters of one traced run."""

    def __init__(self):
        self.task = "setup"
        # (task, caller, name) -> [calls, total_s, self_s]
        self.spans = {}
        self.calls = Counter()     # name -> calls
        self.notes = Counter()     # outcome counters filled by HOOKS
        self.import_s = []         # `import snapgrip.cli` times of children
        self._stack = [[ROOT_SPAN, 0.0]]
        self._patched = []

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"snapgrip.{layer}")
            if module is None:
                continue
            for name, fn in public_functions(module, layer):
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "snapgrip" and not modname.startswith("snapgrip."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        stack, spans, calls, notes = (self._stack, self.spans, self.calls,
                                      self.notes)
        watch, hook = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = calls[watch] if watch else 0
            frame = [name, 0.0]
            stack.append(frame)
            calls[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                caller = stack[-1]
                caller[1] += elapsed
                key = (self.task, caller[0], name)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if hook is not None:
                hook(notes, args, kwargs, result,
                     calls[watch] - entry if watch else None)
            return result

        return wrapper

    # -- serialisation, used to carry a traced CLI child back to its parent

    def dump(self):
        return {"import_s": self.import_s, "notes": dict(self.notes),
                "spans": [[caller, name, *rec]
                          for (_, caller, name), rec in self.spans.items()]}

    def merge(self, dumped, task):
        self.import_s.extend(dumped["import_s"])
        self.notes.update(dumped["notes"])
        for caller, name, calls, total, self_s in dumped["spans"]:
            self.calls[name] += calls
            rec = self.spans.setdefault((task, caller, name), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s

    # -- per-layer metrics

    def self_s(self, name):
        return sum((rec[2] for (_, _, n), rec in self.spans.items()
                    if n == name), 0.0)

    def calls_from(self, caller, name):
        return sum(rec[0] for (_, c, n), rec in self.spans.items()
                   if c == caller and n == name)

    def span_records(self):
        return [{"task": task, "caller": caller, "name": name, "calls": rec[0],
                 "total_s": rec[1], "self_s": rec[2]}
                for (task, caller, name), rec in sorted(self.spans.items())]
