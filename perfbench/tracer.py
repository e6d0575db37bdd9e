"""Span and count recording around the planner's layer boundaries.

The tracer never edits the program: it replaces module-level names (and a
few methods) with wrappers for the length of a traced pass and puts the
originals back afterwards.  Each function is wrapped at every module that
binds it, so a call from one layer into another is seen wherever it is made.

A span has a name, start, end, parent span and job id.  Spans stay in
compact arrays in memory and are written out once, by ``save``.  A layer's
self time is the duration of its spans minus the part their child spans
cover; because the program runs on one thread, children never overlap and
that part is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import math
from array import array
from collections import Counter, defaultdict

LAYERS = ("model", "covariance", "dwell", "cycles", "fleet", "simulate", "cli")


def _module(short: str):
    return importlib.import_module(f"patrolplan.{short}")


def _len(result, args):
    return len(result)


# (modules that bind the name, name, span name, {counter: f(result, args)}).
# The span's layer is the module that defines the function.
SPANS = [
    (("covariance", "simulate"), "observed_flow", "covariance.flow_build", {}),
    (("covariance", "simulate"), "unobserved_flow", "covariance.flow_build", {}),
    (("dwell",), "_scalar_periodic_peaks", "covariance.fixed_point",
     {"covariance.fixed_point_iters": lambda r, a: r[2]}),
    (("dwell", "simulate"), "periodic_steady_state", "covariance.fixed_point",
     {"covariance.fixed_point_iters": lambda r, a: r.iterations}),
    (("cycles",), "lower_bound", "covariance.lower_bound", {}),
    (("cycles",), "steady_states_for", "covariance.steady_solve", {}),
    (("dwell",), "balance_single_visit", "dwell.balance",
     {"dwell.sweeps": lambda r, a: r.iterations}),
    (("dwell",), "balance_multi_visit", "dwell.balance",
     {"dwell.sweeps": lambda r, a: r.iterations}),
    (("dwell",), "balance_within_target", "dwell.split", {}),
    (("dwell",), "golden_period_search", "dwell.golden",
     {"dwell.golden_probes": lambda r, a: len(r[2])}),
    (("dwell", "cli"), "plan_single_agent", "dwell.plan_single_agent",
     {"dwell.exclusion_rounds": lambda r, a: len(r.excluded)}),
    (("dwell", "fleet"), "plan_for_cycle", "dwell.plan_for_cycle", {}),
    (("dwell", "cycles"), "tsp_heuristic", "cycles.tsp", {}),
    (("cycles", "dwell", "fleet", "cli"), "cycle_lower_bound", "cycles.metric", {}),
    (("cycles",), "enumerate_cmos", "cycles.enumerate_cmos", {"cycles.candidates": _len}),
    (("cycles", "fleet"), "improve_cycle", "cycles.improve", {}),
    (("cycles", "fleet"), "greedy_construct", "cycles.greedy_construct", {}),
    (("fleet",), "disparity_matrix", "fleet.disparity", {}),
    (("fleet",), "spectral_cluster", "fleet.cluster", {}),
    (("fleet",), "tes_refine", "fleet.tes",
     {"fleet.tes_commits": lambda r, a: len(r.tes_log) - len(a[0].tes_log)}),
    (("fleet",), "_build_cluster", "fleet.build_cluster", {}),
    (("fleet",), "enumerate_ceos", "fleet.enumerate_ceos", {"fleet.ceo_candidates": _len}),
    (("fleet", "cli"), "cluster_subnetwork", "fleet.subnetwork", {}),
    (("fleet", "cli"), "plan_fleet", "fleet.plan_fleet",
     {"fleet.initial_builds": lambda r, a: len(r.clusters),
      "fleet.log_floor": lambda r, a: math.log(r.fleet_metric)}),
    (("simulate", "cli"), "simulate", "simulate.simulate",
     {"simulate.samples": lambda r, a: len(r.times)}),
    (("simulate",), "steady_initial_covariances", "simulate.init", {}),
    (("simulate", "cli"), "validate", "simulate.validate", {}),
    (("simulate", "cli"), "trace_to_csv", "simulate.csv", {"simulate.csv_bytes": _len}),
    (("cli",), "cmd_plan_single", "cli.plan_cmd", {}),
    (("cli",), "cmd_simulate", "cli.simulate_cmd", {}),
]

# (module, class, method, span name): methods timed as spans.
METHOD_SPANS = [
    ("model", "TargetNetwork", "_floyd_warshall", "model.network_build"),
]

# (module, class, method, counter): hot methods that are only counted; their
# time stays with the span that called them.
METHOD_COUNTS = [
    ("model", "TargetNetwork", "target", "model.target_lookups"),
    ("cycles", "SteadyStateCache", "lower_bound", "cycles.lb_lookups"),
    ("cycles", "Cycle", "__init__", "cycles.cycles_built"),
]


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.jobs = array("i")
        self.job = -1
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, fn, name: str, extra: dict | None = None):
        """Wrap ``fn`` so every call records a span called ``name``."""
        layer = fn.__module__.rsplit(".", 1)[-1]
        nid = self._name_id(name)
        extra = extra or {}
        stack, counts, times, self_s = self._stack, self.counts, self.times, self.self_s
        clock = self.clock
        starts, ends, name_ids, parents, jobs = (
            self.starts, self.ends, self.name_ids, self.parents, self.jobs
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(starts)
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            name_ids.append(nid)
            parents.append(parent[1] if parent else -1)
            jobs.append(self.job)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[sid] = t1
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                self_s[layer] += dur - frame[0]
                times[name] += dur
                counts[name] += 1
            for counter, measure in extra.items():
                counts[counter] += measure(result, args)
            return result

        return wrapper

    def counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for modules, attr, name, extra in SPANS:
            original = getattr(_module(modules[0]), attr)
            wrapper = self.span(original, name, extra)
            for short in modules:
                module = _module(short)
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{short}.{attr} is not {original.__qualname__}")
                self._set(module, attr, wrapper)
        for short, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(_module(short), cls_name)
            self._set(cls, attr, self.span(getattr(cls, attr), name))
        for short, cls_name, attr, name in METHOD_COUNTS:
            cls = getattr(_module(short), cls_name)
            self._set(cls, attr, self.counter(getattr(cls, attr), name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def save(self, path, job_names: list[str]) -> None:
        """Write every span as columns of one ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path,
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            job=np.frombuffer(self.jobs, dtype=np.int32),
            names=np.array(self.names),
            job_names=np.array(job_names),
        )
