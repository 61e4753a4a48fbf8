"""Layer-boundary tracer for the traced benchmark run.

The tracer lives in the benchmark, not in the package: `install` wraps the
module-level functions of each layer module and re-points every reference
to them inside the package (module attributes, and module-level dicts such
as the CLI's cell-command table), so a call is seen wherever the name is
looked up.  `uninstall` puts the originals back.

A span is one call of a wrapped function.  Its self time is its wall time
minus the part of that interval covered by its child spans.  A span opened
by a worker thread whose own stack is empty takes the innermost span open
in the installing thread as its parent (with IFNET_THREADS > 1 the census
and sweep thread pools are started from there); such cross-thread children are merged as a union
of intervals, because two of them can run at once.  Self times of spans in
worker threads add up over threads, so a layer's self time can exceed the
wall time of the call that fanned out.  A function that calls itself
(`cli._jsonable`) is folded into its outermost span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

PACKAGE = "ifnet"
LAYERS = ("_kernels", "dynamics", "params", "contraction", "cycles", "config", "cli")
# private helpers that are layer boundaries of their own
PRIVATE_BOUNDARIES = ("cli._metric_check", "cli._jsonable")
# boundaries whose individual call durations are kept for percentiles
KEEP_DURATIONS = ("cycles.detect_cycle",)


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "durations", "counts", "values")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.durations = []
        self.counts = {}
        self.values = []

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount


class _Span:
    __slots__ = ("child_s", "cross")

    def __init__(self):
        self.child_s = 0.0
        self.cross = []


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a = max(a, end)
        b = min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _observe_pair_ratios(stat, args, result):
    stat.add("pairs", len(args[0]))
    stat.add("valid", int(result[0].sum()))


def _observe_verify_contraction(stat, args, result):
    stat.add("kept", int(result.pairs))


def _observe_detect_cycle(stat, args, result):
    stat.add("fate." + result.outcome, 1)
    stat.values.append(int(result.transient_steps))


OBSERVERS = {
    "_kernels.pair_ratios": _observe_pair_ratios,
    "contraction.verify_contraction": _observe_verify_contraction,
    "cycles.detect_cycle": _observe_detect_cycle,
}


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack = None
        self._patches = []
        self.stats = {}
        self.observer_errors = 0

    def _stack(self):
        local = self._local
        try:
            return local.stack, local.open
        except AttributeError:
            local.stack, local.open = [], set()
            return local.stack, local.open

    def boundaries(self):
        """Names of the functions the tracer wraps, as `module.function`."""
        found = {}
        for short in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in PRIVATE_BOUNDARIES)):
                    found[name] = obj
        return found

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._home_stack, _ = self._stack()
        wrappers = {}
        for name, fn in self.boundaries().items():
            self.stats.setdefault(name, Stat())
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod in modules:
            space = vars(mod)
            for attr, obj in list(space.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((space, attr, obj))
                    space[attr] = hit[1]
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        hit = wrappers.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._patches.append((obj, key, value))
                            obj[key] = hit[1]

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches = []

    def reset(self):
        with self._lock:
            for name in self.stats:
                self.stats[name] = Stat()

    def _wrap(self, name, fn):
        tracer = self
        lock = self._lock
        clock = time.perf_counter
        keep = name in KEEP_DURATIONS
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, open_names = tracer._stack()
            if name in open_names:
                return fn(*args, **kwargs)
            cross_parent = None
            if not stack and stack is not tracer._home_stack:
                try:
                    cross_parent = tracer._home_stack[-1]
                except IndexError:
                    pass
            span = _Span()
            stack.append(span)
            open_names.add(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_names.discard(name)
                dur = t1 - t0
                covered = span.child_s + (_covered(span.cross, t0, t1) if span.cross else 0.0)
                with lock:
                    stat = tracer.stats[name]
                    stat.calls += 1
                    stat.self_s += dur - covered
                    stat.total_s += dur
                    if keep:
                        stat.durations.append(dur)
                    if cross_parent is not None:
                        cross_parent.cross.append((t0, t1))
                if stack:
                    stack[-1].child_s += dur
            if observe is not None:
                with lock:
                    try:
                        observe(tracer.stats[name], args, result)
                    except Exception:  # an API change must not stop the run
                        tracer.observer_errors += 1
            return result

        return traced


def _pct(values, q):
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def _ratio(num, den):
    return num / den if den else 0.0


def _calls(b):
    return ((b,), lambda s: s[b].calls)


def _self_s(b):
    return ((b,), lambda s: s[b].self_s)


# per-layer metric -> (unit, boundaries it reads, value from the stats)
LAYER_METRICS = {
    "kernels.step.calls": ("count",) + _calls("_kernels.step"),
    "kernels.step.self_s": ("s",) + _self_s("_kernels.step"),
    "kernels.run_orbit.self_s": ("s",) + _self_s("_kernels.run_orbit"),
    "kernels.pair_ratios.pairs": ("count", ("_kernels.pair_ratios",),
                                  lambda s: s["_kernels.pair_ratios"].counts.get("pairs", 0)),
    "kernels.pair_ratios.valid_ratio": ("ratio", ("_kernels.pair_ratios",), lambda s: _ratio(
        s["_kernels.pair_ratios"].counts.get("valid", 0),
        s["_kernels.pair_ratios"].counts.get("pairs", 0))),
    "kernels.pair_ratios.self_s": ("s",) + _self_s("_kernels.pair_ratios"),
    "kernels.absorb_run.calls": ("count",) + _calls("_kernels.absorb_run"),
    "kernels.absorb_run.self_s": ("s",) + _self_s("_kernels.absorb_run"),
    "kernels.track_pair.calls": ("count",) + _calls("_kernels.track_pair"),
    "kernels.track_pair.self_s": ("s",) + _self_s("_kernels.track_pair"),
    "kernels.sync_run.calls": ("count",) + _calls("_kernels.sync_run"),
    "kernels.sync_run.self_s": ("s",) + _self_s("_kernels.sync_run"),
    "dynamics.return_map.calls": ("count",) + _calls("dynamics.return_map"),
    "dynamics.return_map.self_s": ("s",) + _self_s("dynamics.return_map"),
    "dynamics.as_state.calls": ("count",) + _calls("dynamics.as_state"),
    "dynamics.as_state.self_s": ("s",) + _self_s("dynamics.as_state"),
    "dynamics.orbit.self_s": ("s",) + _self_s("dynamics.orbit"),
    "dynamics.sample_trajectory.self_s": ("s",) + _self_s("dynamics.sample_trajectory"),
    "params.check_hypotheses.calls": ("count",) + _calls("params.check_hypotheses"),
    "params.check_hypotheses.self_s": ("s",) + _self_s("params.check_hypotheses"),
    "params.derived_constants.calls": ("count",) + _calls("params.derived_constants"),
    "params.derived_constants.self_s": ("s",) + _self_s("params.derived_constants"),
    "params.classify_neurons.calls": ("count",) + _calls("params.classify_neurons"),
    "params.classify_neurons.self_s": ("s",) + _self_s("params.classify_neurons"),
    "contraction.verify_contraction.self_s": ("s",) + _self_s("contraction.verify_contraction"),
    # pairs kept / pairs drawn; pair_ratios draws only for verify_contraction
    "contraction.verify_contraction.acceptance": (
        "ratio", ("contraction.verify_contraction", "_kernels.pair_ratios"), lambda s: _ratio(
            s["contraction.verify_contraction"].counts.get("kept", 0),
            s["_kernels.pair_ratios"].counts.get("pairs", 0))),
    "contraction.absorption_check.self_s": ("s",) + _self_s("contraction.absorption_check"),
    "contraction.estimate_lipschitz_c.self_s": ("s",) + _self_s("contraction.estimate_lipschitz_c"),
    "contraction.adapted_distance.calls": ("count",) + _calls("contraction.adapted_distance"),
    "contraction.adapted_distance.self_s": ("s",) + _self_s("contraction.adapted_distance"),
    "cycles.cycle_census.self_s": ("s",) + _self_s("cycles.cycle_census"),
    "cycles.detect_cycle.calls": ("count",) + _calls("cycles.detect_cycle"),
    "cycles.detect_cycle.p50_s": ("s", ("cycles.detect_cycle",),
                                  lambda s: _pct(s["cycles.detect_cycle"].durations, 50)),
    "cycles.detect_cycle.p99_s": ("s", ("cycles.detect_cycle",),
                                  lambda s: _pct(s["cycles.detect_cycle"].durations, 99)),
    "cycles.fate.synchronized": ("count", ("cycles.detect_cycle",),
                                 lambda s: s["cycles.detect_cycle"].counts.get("fate.synchronized", 0)),
    "cycles.fate.cycle": ("count", ("cycles.detect_cycle",),
                          lambda s: s["cycles.detect_cycle"].counts.get("fate.cycle", 0)),
    "cycles.fate.grazing": ("count", ("cycles.detect_cycle",),
                            lambda s: s["cycles.detect_cycle"].counts.get("fate.grazing", 0)),
    "cycles.fate.unresolved": ("count", ("cycles.detect_cycle",),
                               lambda s: s["cycles.detect_cycle"].counts.get("fate.unresolved", 0)),
    "cycles.transient_steps.p50": ("count", ("cycles.detect_cycle",),
                                   lambda s: _pct(s["cycles.detect_cycle"].values, 50)),
    "cycles.transient_steps.p99": ("count", ("cycles.detect_cycle",),
                                   lambda s: _pct(s["cycles.detect_cycle"].values, 99)),
    "cycles.sync_test.self_s": ("s",) + _self_s("cycles.sync_test"),
    "config.load_config.self_s": ("s",) + _self_s("config.load_config"),
    "cli.serialize_s": ("s", ("cli._jsonable", "config.dump_json"),
                        lambda s: s["cli._jsonable"].self_s + s["config.dump_json"].self_s),
    "cli.fmt.calls": ("count",) + _calls("config.fmt"),
    "cli.metric_check.self_s": ("s",) + _self_s("cli._metric_check"),
    "cli.metric_check.total_s": ("s", ("cli._metric_check",), lambda s: s["cli._metric_check"].total_s),
    "cli.cmd_sweep.self_s": ("s",) + _self_s("cli.cmd_sweep"),
}

# counts that must repeat exactly for a fixed seed
ANCHORS = ("kernels.step.calls", "dynamics.return_map.calls", "params.derived_constants.calls",
           "cycles.fate.synchronized", "cycles.fate.cycle", "cycles.fate.grazing",
           "cycles.fate.unresolved")


def layer_values(stats):
    """Per-layer metric values from one traced pass, and the boundaries the
    package no longer has (their metrics read 0)."""
    values = {}
    absent = set()
    for metric, (_, needs, read) in LAYER_METRICS.items():
        missing = [b for b in needs if b not in stats]
        absent.update(missing)
        values[metric] = 0 if missing else read(stats)
    return values, sorted(absent)
