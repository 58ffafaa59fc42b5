"""Spans around the calls between uplinkgame's modules, recorded from outside
the package.

Each hook replaces one module attribute (or one entry of a module-level dict)
through which a layer calls another, for the duration of a ``Hooks`` context,
and restores it afterwards, also when the traced work raises. Functions are
bound by name in each importing module, so a function called from several
modules is hooked once per binding. A target that no longer exists is
reported as not installed; it is never an error.

Spans live in flat arrays: name id, start, end, parent index and the index of
the top-level span (the benchmark's own call into the package) they belong to.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _wf_cells(counters, args, kwargs, result):
    floors = np.atleast_2d(np.asarray(args[0] if args else kwargs["floors"]))
    rows, cols = floors.shape
    counters["waterfill.rows"] += rows
    counters["waterfill.cells"] += rows * cols


def _inner_iters(key):
    def on_result(counters, args, kwargs, result):
        counters[key] += result.iterations
        counters["inner.nonconverged"] += not result.converged

    return on_result


def _profiles(counters, args, kwargs, result):
    counters["baselines.profiles"] += len(result.table)


def _file_bytes(key, pos, name):
    def on_result(counters, args, kwargs, result):
        path = args[pos] if len(args) > pos else kwargs[name]
        counters[key] += os.path.getsize(path)

    return on_result


def _trace_rows(counters, args, kwargs, result):
    counters["trace.rows_written"] += len(args[1] if len(args) > 1 else kwargs["rows"])
    _file_bytes("trace.bytes_written", 0, "path")(counters, args, kwargs, result)


# (module, attribute, span name, on_result). The span name is
# "<layer>.<function>", with "@<caller>" where one binding must be counted
# apart from the others. The layer is the module that defines the function.
# An attribute written "NAME[key]" is an entry of the dict NAME.
HOOKS = (
    # The benchmark's own calls into the package.
    ("uplinkgame", "generate_scenario", "scenario.generate_scenario", None),
    ("uplinkgame", "save_scenario", "scenario.save_scenario",
     _file_bytes("scenario.bytes", 1, "path")),
    ("uplinkgame", "load_scenario", "scenario.load_scenario",
     _file_bytes("scenario.bytes", 0, "path")),
    ("uplinkgame", "exhaustive_search", "baselines.exhaustive_search", _profiles),
    ("uplinkgame", "closest_ap", "baselines.closest_ap", None),
    ("uplinkgame", "virtual_ap_bound", "baselines.virtual_ap_bound", None),
    ("uplinkgame", "a_iwf", "inner.a_iwf", _inner_iters("inner.a_iwf_iters")),
    ("uplinkgame", "s_iwf", "inner.s_iwf", _inner_iters("inner.s_iwf_rounds")),
    ("uplinkgame", "jaspa", "jaspa.jaspa", None),
    ("uplinkgame", "se_jaspa", "jaspa.se_jaspa", None),
    ("uplinkgame", "si_jaspa", "jaspa.si_jaspa", None),
    ("uplinkgame", "j_jaspa", "jjaspa.j_jaspa", None),
    ("uplinkgame", "verify_jep", "game.verify_jep", None),
    ("uplinkgame.cli", "main", "cli.main", None),
    # cli -> everything below it.
    ("uplinkgame.cli", "generate_scenario", "scenario.generate_scenario", None),
    ("uplinkgame.cli", "save_scenario", "scenario.save_scenario",
     _file_bytes("scenario.bytes", 1, "path")),
    ("uplinkgame.cli", "load_scenario", "scenario.load_scenario",
     _file_bytes("scenario.bytes", 0, "path")),
    ("uplinkgame.cli", "closest_ap", "baselines.closest_ap", None),
    ("uplinkgame.cli", "exhaustive_search", "baselines.exhaustive_search", _profiles),
    ("uplinkgame.cli", "virtual_ap_bound", "baselines.virtual_ap_bound", None),
    ("uplinkgame.cli", "verify_jep", "game.verify_jep", None),
    ("uplinkgame.cli", "JOINT_ALGOS[jaspa]", "jaspa.jaspa", None),
    ("uplinkgame.cli", "JOINT_ALGOS[se_jaspa]", "jaspa.se_jaspa", None),
    ("uplinkgame.cli", "JOINT_ALGOS[si_jaspa]", "jaspa.si_jaspa", None),
    ("uplinkgame.cli", "JOINT_ALGOS[j_jaspa]", "jjaspa.j_jaspa", None),
    ("uplinkgame.cli", "inner_rows", "trace.inner_rows", None),
    ("uplinkgame.cli", "write_trace", "trace.write_trace", _trace_rows),
    ("uplinkgame.cli", "write_summary", "trace.write_summary", None),
    # baselines -> inner (InnerConfig.run).
    ("uplinkgame.baselines", "a_iwf", "inner.a_iwf@baselines", _inner_iters("inner.a_iwf_iters")),
    ("uplinkgame.baselines", "s_iwf", "inner.s_iwf@baselines", _inner_iters("inner.s_iwf_rounds")),
    # jaspa -> inner, game, trace, waterfill; best_reply_table is called
    # within jaspa and timed on its own.
    ("uplinkgame.jaspa", "a_iwf", "inner.a_iwf", _inner_iters("inner.a_iwf_iters")),
    ("uplinkgame.jaspa", "s_iwf", "inner.s_iwf", _inner_iters("inner.s_iwf_rounds")),
    ("uplinkgame.jaspa", "evaluate_profile", "inner.evaluate_profile", None),
    ("uplinkgame.jaspa", "all_rates", "game.all_rates", None),
    ("uplinkgame.jaspa", "verify_jep", "game.verify_jep", None),
    ("uplinkgame.jaspa", "verify_power_ne", "game.verify_power_ne@jaspa", None),
    ("uplinkgame.jaspa", "inner_rows", "trace.inner_rows", None),
    ("uplinkgame.jaspa", "water_fill_batch", "waterfill.water_fill_batch", _wf_cells),
    ("uplinkgame.jaspa", "best_reply_table", "jaspa.best_reply_table", None),
    # jjaspa -> inner, game, waterfill; ap_memory_update is internal.
    ("uplinkgame.jjaspa", "evaluate_profile", "inner.evaluate_profile", None),
    ("uplinkgame.jjaspa", "verify_jep", "game.verify_jep@jjaspa", None),
    ("uplinkgame.jjaspa", "water_fill_batch", "waterfill.water_fill_batch", _wf_cells),
    ("uplinkgame.jjaspa", "ap_memory_update", "jjaspa.ap_memory_update", None),
    # inner -> waterfill.
    ("uplinkgame.inner", "water_fill_batch", "waterfill.water_fill_batch", _wf_cells),
    # game -> waterfill, and the game functions other layers reach through
    # game's own module globals (wf_operator imports interference_at at call
    # time).
    ("uplinkgame.game", "water_fill", "waterfill.water_fill", None),
    ("uplinkgame.game", "wf_operator", "waterfill.wf_operator", None),
    ("uplinkgame.game", "verify_power_ne", "game.verify_power_ne", None),
    ("uplinkgame.game", "all_rates", "game.all_rates", None),
    ("uplinkgame.game", "best_response_rate", "game.best_response_rate", None),
    ("uplinkgame.game", "interference_at", "game.interference_at", None),
    # waterfill.water_fill -> water_fill_batch.
    ("uplinkgame.waterfill", "water_fill_batch", "waterfill.water_fill_batch", _wf_cells),
)

LAYERS = ("waterfill", "game", "inner", "jaspa", "jjaspa", "baselines", "trace", "scenario", "cli")


class Tracer:
    """In-memory span store plus counters fed by the hooks' result callbacks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.solve = array("i")
        self._stack: list[int] = []
        self.counters: defaultdict = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span_name: str, on_result=None):
        nid = self.name_id(span_name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.name.append(nid)
            tracer.parent.append(parent)
            tracer.solve.append(tracer.solve[parent] if parent >= 0 else idx)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer.counters, args, kwargs, result)
            return result

        return traced

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "solve": np.frombuffer(self.solve, dtype=np.int32).copy(),
        }


def _split_item(attr: str):
    if attr.endswith("]") and "[" in attr:
        name, key = attr[:-1].split("[", 1)
        return name, key
    return attr, None


class Hooks:
    """Context manager that installs every hook of ``table`` on entry and
    restores the original objects on exit, in reverse order."""

    def __init__(self, tracer: Tracer, table=HOOKS):
        self.tracer = tracer
        self.table = table
        self.installed: list[tuple] = []  # (holder, key, original, is_item)
        self.missing: list[str] = []

    def __enter__(self):
        try:
            for module_name, attr, span_name, on_result in self.table:
                self._install(module_name, attr, span_name, on_result)
        except BaseException:
            self._restore()
            raise
        return self

    def _install(self, module_name, attr, span_name, on_result):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}.{attr}")
            return
        name, key = _split_item(attr)
        holder = getattr(module, name, None)
        if key is not None:
            if not isinstance(holder, dict) or not callable(holder.get(key)):
                self.missing.append(f"{module_name}.{attr}")
                return
            original = holder[key]
            holder[key] = self.tracer.wrap(original, span_name, on_result)
            self.installed.append((holder, key, original, True))
            return
        if not callable(holder):
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(module, name, self.tracer.wrap(holder, span_name, on_result))
        self.installed.append((module, name, holder, False))

    def _restore(self):
        while self.installed:
            holder, key, original, is_item = self.installed.pop()
            if is_item:
                holder[key] = original
            else:
                setattr(holder, key, original)

    def __exit__(self, *exc):
        self._restore()
        return False


def summarize(tracer: Tracer) -> dict:
    """Per span name: call count and total time; per layer: self time (span
    duration minus its direct children's, summed over the layer's spans);
    and the total time covered by top-level spans."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    self_t = dur - child
    n_names = len(tracer.names)
    calls = np.bincount(a["name"], minlength=n_names)
    total = np.bincount(a["name"], weights=dur, minlength=n_names)
    name_self = np.bincount(a["name"], weights=self_t, minlength=n_names)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, name in enumerate(tracer.names):
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + float(name_self[i])
    return {
        "by_name": {name: (int(calls[i]), float(total[i])) for i, name in enumerate(tracer.names)},
        "layer_self": layer_self,
        "covered_s": float(dur[~has_parent].sum()),
        "self_sum_s": float(self_t.sum()),
        "min_self_s": float(self_t.min()) if self_t.size else 0.0,
        "spans": int(dur.size),
    }


def calls_and_time(by_name: dict, base: str) -> tuple[int, float]:
    """Totals over every binding of one function (``base`` and ``base@...``)."""
    calls, secs = 0, 0.0
    for name, (c, t) in by_name.items():
        if name == base or name.startswith(base + "@"):
            calls += c
            secs += t
    return calls, secs
