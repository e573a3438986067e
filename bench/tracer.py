"""Outside-in tracer for the expdyn package.

The tracer changes no program file.  It replaces, for the duration of a
traced pass, every module attribute through which a traced function is
reached: ``step_log_polar`` is bound by name in ``dynamics``,
``invariant_sets``, ``induced`` and ``coding``, so all four bindings are
wrapped.  Methods (``TowerReal.__post_init__``, ``ThinSetSpec.classify``)
are wrapped on their class.  A target whose name no longer exists is
skipped and its metrics read 0.

Two kinds of wrapper:

* span targets (op-level and outer calls) record a Span with a parent
  link and the id of the op that caused it;
* hot targets (inner functions called per pixel or per column) only add
  to an aggregate of count, total time and self time.

Self time is a call's duration minus the part of it covered by its
children.  Calls nested in one thread run one after another, so their
durations add up; items that ``parallel.ordered_map`` runs on worker
threads can overlap, so the map's self time subtracts the union of their
intervals.  Aggregates are kept per thread and merged on read, so counts
are exact whatever the thread interleaving.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    op: Optional[int]
    name: str
    start: float
    end: float


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """Duration of [start, end] minus the part covered by child intervals."""
    clipped = [(max(lo, start), min(hi, end)) for lo, hi in children]
    return (end - start) - union_length((lo, hi) for lo, hi in clipped if hi > lo)


class _Frame:
    __slots__ = ("start", "child", "span", "xchildren")

    def __init__(self, start: float, span: Optional[int] = None):
        self.start = start
        self.child = 0.0
        self.span = span
        self.xchildren: Optional[list] = None


class _ThreadState:
    __slots__ = ("stack", "stats", "counts", "root_parent")

    def __init__(self):
        self.stack: list[_Frame] = []
        self.stats: dict[str, list] = {}  # name -> [count, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.root_parent: Optional[int] = None


def _add_stat(st: _ThreadState, name: str, dur: float, self_s: float) -> None:
    s = st.stats.get(name)
    if s is None:
        s = st.stats[name] = [0, 0.0, 0.0]
    s[0] += 1
    s[1] += dur
    s[2] += self_s


def _bump(st: _ThreadState, name: str, by: float = 1) -> None:
    st.counts[name] = st.counts.get(name, 0) + by


# (module, attribute path, metric name, kind).  Kinds: "hot" aggregates
# only; "span" also records spans; "field" is a span that marks the scope
# in which "hot-field" targets also count separately (shadow_eval_ratio);
# "pool" is the row pool, whose items become child spans; "tower" is a hot
# target that also counts towers at level >= 1.
TARGETS = (
    ("expdyn.cli", "main", "cli.main", "span"),
    ("expdyn.invariant_sets", "sample_lambda_set", "invariant_sets.sample_lambda_set", "field"),
    ("expdyn.invariant_sets", "write_field_pgm", "invariant_sets.write_field_pgm", "span"),
    ("expdyn.invariant_sets", "_membership_walk", "invariant_sets.membership_walk", "hot"),
    ("expdyn.invariant_sets", "ThinSetSpec.classify", "invariant_sets.classify", "hot"),
    ("expdyn.render", "render_field", "render.render_field", "span"),
    ("expdyn.parallel", "ordered_map", "parallel.ordered_map", "pool"),
    ("expdyn.dynamics", "step_log_polar", "dynamics.step_log_polar", "hot-field"),
    ("expdyn.dynamics", "eval_map", "dynamics.eval_map", "hot-field"),
    ("expdyn.dynamics", "_require_lambda", "dynamics.require_lambda", "hot"),
    ("expdyn.dynamics", "inverse_branch", "dynamics.inverse_branch", "hot"),
    ("expdyn.dynamics", "iterate_orbit", "dynamics.iterate_orbit", "span"),
    ("expdyn.dynamics", "check_supergrowth", "dynamics.check_supergrowth", "span"),
    ("expdyn.towers", "TowerReal.__post_init__", "towers.new", "tower"),
    ("expdyn.towers", "TowerReal.to_float", "towers.to_float", "hot"),
    ("expdyn.coding", "strip_index", "coding.strip_index", "hot"),
    ("expdyn.rays", "trace_ray", "rays.trace_ray", "span"),
    ("expdyn.induced", "_positive_column_sum", "induced.positive_column_sum", "hot"),
    ("expdyn.induced", "_max_width", "induced.max_width", "hot"),
    ("expdyn.induced", "InducedGeometry.level_of_column", "induced.level_of_column", "hot"),
    ("expdyn.induced", "verify_contraction", "induced.verify_contraction", "span"),
    ("expdyn.induced", "cover_iterate", "induced.cover_iterate", "span"),
    ("expdyn.induced", "negative_geometry", "induced.negative_geometry", "span"),
    ("expdyn.induced", "build_zm", "induced.build_zm", "span"),
    ("expdyn.boxdim", "dimension_bound_search", "boxdim.dimension_bound_search", "span"),
    ("expdyn.boxdim", "box_count", "boxdim.box_count", "span"),
)


class Tracer:
    """Wraps program functions from outside and aggregates what they do."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.thread_time,
    ):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.field_active = 0
        self.max_workers = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op: Optional[int] = None

    # ---- per-thread state and reading -----------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds), merged over threads."""
        out: dict[str, list] = {}
        for st in self._states:
            for name, (n, tot, slf) in st.stats.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += n
                acc[1] += tot
                acc[2] += slf
        return {k: (v[0], v[1], v[2]) for k, v in out.items()}

    def counts(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for st in self._states:
            for name, v in st.counts.items():
                out[name] = out.get(name, 0) + v
        return out

    # ---- ops ----------------------------------------------------------------

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span for one benchmark op; spans below carry its id."""
        span_id = next(self._ids)
        prev, self._op = self._op, span_id
        start = self.clock()
        try:
            yield span_id
        finally:
            self.spans.append(Span(span_id, None, span_id, name, start, self.clock()))
            self._op = prev

    # ---- wrappers -------------------------------------------------------------

    def _parent(self, st: _ThreadState) -> Optional[int]:
        for f in reversed(st.stack):
            if f.span is not None:
                return f.span
        return st.root_parent if st.root_parent is not None else self._op

    def _hot(self, name: str, fn: Callable, scoped: bool, tower: bool) -> Callable:
        state, clock, tracer = self._state, self.clock, self
        field_name = name + "@field"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            if scoped and tracer.field_active:
                _bump(st, field_name)
            stack = st.stack
            f = _Frame(clock())
            stack.append(f)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - f.start
                _add_stat(st, name, dur, dur - f.child)
                if stack:
                    stack[-1].child += dur
                if tower and args[0].level >= 1:
                    _bump(st, "towers.lift")

        return wrapper

    def _span(self, name: str, fn: Callable, kind: str) -> Callable:
        state, clock, tracer = self._state, self.clock, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            parent = tracer._parent(st)
            f = _Frame(clock(), next(tracer._ids))
            if kind == "pool":
                f.xchildren = []
                args, workers = tracer._pool_args(f, args)
            elif kind == "field":
                tracer.field_active += 1
            st.stack.append(f)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                st.stack.pop()
                dur = end - f.start
                if kind == "field":
                    tracer.field_active -= 1
                # children on other threads may overlap: subtract their union
                covered = dur - self_time(f.start, end, f.xchildren) if f.xchildren else 0.0
                _add_stat(st, name, dur, dur - f.child - covered)
                if st.stack:
                    st.stack[-1].child += dur
                tracer.spans.append(Span(f.span, parent, tracer._op, name, f.start, end))
                if kind == "pool":
                    _bump(st, "parallel.capacity", workers * dur)
            tracer._observe(st, name, result)
            return result

        return wrapper

    def _pool_args(self, frame: _Frame, args: tuple):
        """Wrap ordered_map's per-item function so items become child spans."""
        fn, items = args[0], list(args[1])
        par = sys.modules.get("expdyn.parallel")
        n = par.thread_count() if hasattr(par, "thread_count") else 1
        workers = 1 if n <= 1 or len(items) <= 1 else min(n, len(items))
        self.max_workers = max(self.max_workers, workers)
        state, clock, cpu_clock, tracer = self._state, self.clock, self.cpu_clock, self

        def item(x):
            ist = state()
            same_thread = bool(ist.stack) and ist.stack[-1] is frame
            saved = ist.root_parent
            if not same_thread:
                ist.root_parent = frame.span
            f = _Frame(clock(), next(tracer._ids))
            cpu0 = cpu_clock()
            ist.stack.append(f)
            try:
                return fn(x)
            finally:
                end = clock()
                cpu = cpu_clock() - cpu0
                ist.stack.pop()
                dur = end - f.start
                _add_stat(ist, "parallel.item", dur, dur - f.child)
                _bump(ist, "parallel.item_cpu", cpu)
                tracer.spans.append(Span(f.span, frame.span, tracer._op, "parallel.item", f.start, end))
                if same_thread:
                    frame.child += dur
                else:
                    frame.xchildren.append((f.start, end))
                    ist.root_parent = saved

        return (item, items) + tuple(args[2:]), workers

    def _observe(self, st: _ThreadState, name: str, result) -> None:
        """Outcome counts read off return values."""
        if name == "invariant_sets.sample_lambda_set":
            n = result.depth
            opt = result.data("optimistic")
            _bump(st, "field.pixels", len(opt))
            _bump(st, "field.points", sum(n if v == n + 1 else v + 1 for v in opt))
            _bump(st, "field.survivors", result.survivor_count("conservative"))
        elif name == "induced.verify_contraction":
            _bump(st, "certs.tried")
            if result.passed:
                _bump(st, "certs.passed")
        elif name == "induced.cover_iterate":
            _bump(st, "cover.cells", sum(level.cells for level in result.levels))
        elif name == "rays.trace_ray":
            _bump(st, "ray.samples", len(result.samples))

    # ---- installation -----------------------------------------------------------

    def _make(self, name: str, fn: Callable, kind: str) -> Callable:
        if kind in ("hot", "hot-field", "tower"):
            return self._hot(name, fn, kind == "hot-field", kind == "tower")
        return self._span(name, fn, kind)

    def install(self, targets=TARGETS, prefix: str = "expdyn") -> None:
        """Wrap each target at every module attribute that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == prefix or k.startswith(prefix + "."))]
        for mod_name, path, name, kind in targets:
            mod = sys.modules.get(mod_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = (owner.__dict__.get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None)) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self._make(name, original, kind)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
            else:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextlib.contextmanager
    def installed_for(self, targets=TARGETS, prefix: str = "expdyn"):
        self.install(targets, prefix)
        try:
            yield self
        finally:
            self.uninstall()
