"""Span tracer that instruments fogbandit from outside its sources.

`instrument(tracer)` replaces the module attributes the library looks up
at call time with timing wrappers and restores every one of them when the
block exits, also on an exception. Spans are folded online into per-name
aggregates (count, duration, self time, log-bucket histogram of self time)
and per-(parent, name) edges, so tracer memory does not grow with the
number of rounds. Self time is a span's duration minus the time its child
spans cover; the wrappers' own cost lands in the parent's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time

# Histogram buckets per doubling of the self time.
_BUCKETS_PER_OCTAVE = 8


class Aggregate:
    __slots__ = ("count", "total", "self_total", "hist")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0
        self.hist = {}

    def add(self, duration: float, self_time: float) -> None:
        self.count += 1
        self.total += duration
        self.self_total += self_time
        b = math.floor(math.log2(max(self_time, 1e-9) * 1e9) * _BUCKETS_PER_OCTAVE)
        self.hist[b] = self.hist.get(b, 0) + 1

    def self_quantile(self, q: float) -> float:
        """Self time (s) at quantile q, read from the bucket midpoints."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for b in sorted(self.hist):
            seen += self.hist[b]
            if seen >= rank:
                return 2.0 ** ((b + 0.5) / _BUCKETS_PER_OCTAVE) * 1e-9
        return 0.0


class Tracer:
    """Stack of open spans plus the aggregates of the closed ones."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []                 # [name, child_time] per open span
        self.spans = {}                  # name -> Aggregate
        self.edges = {}                  # (parent name, name) -> [count, total]
        self.counters = {}               # name -> int

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span called `name`."""
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                self._close(parent[0] if parent else None, name,
                            duration, duration - frame[1])

        traced.__wrapped__ = fn
        return traced

    def _close(self, parent, name, duration, self_time):
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = Aggregate()
        agg.add(duration, self_time)
        edge = self.edges.get((parent, name))
        if edge is None:
            edge = self.edges[(parent, name)] = [0, 0.0]
        edge[0] += 1
        edge[1] += duration

    # -- readers ----------------------------------------------------------

    def calls(self, name: str, parent: str = None) -> int:
        if parent is not None:
            return self.edges.get((parent, name), (0, 0.0))[0]
        agg = self.spans.get(name)
        return agg.count if agg else 0

    def total(self, name: str, parent: str = None) -> float:
        if parent is not None:
            return self.edges.get((parent, name), (0, 0.0))[1]
        agg = self.spans.get(name)
        return agg.total if agg else 0.0

    def self_total(self, name: str) -> float:
        agg = self.spans.get(name)
        return agg.self_total if agg else 0.0

    def self_quantile(self, name: str, q: float) -> float:
        agg = self.spans.get(name)
        return agg.self_quantile(q) if agg else 0.0


class TimedBank:
    """Delegating bank: same `feedback_kind`, with `act` and `observe`
    timed under strategies.<name>.act / .observe."""

    def __init__(self, bank, name: str, tracer: Tracer):
        self._bank = bank
        self.feedback_kind = bank.feedback_kind
        self.act = tracer.wrap(f"strategies.{name}.act", bank.act)
        self.observe = tracer.wrap(f"strategies.{name}.observe", bank.observe)

    def __getattr__(self, attr):
        return getattr(self._bank, attr)


def _timed_make_bank(tracer, make_bank):
    timed = tracer.wrap("campaign.make_bank", make_bank)

    def make_timed_bank(name, *args, **kwargs):
        return TimedBank(timed(name, *args, **kwargs), name, tracer)
    return make_timed_bank


def _counted_golden_max(tracer, golden_max):
    """golden_max span that also counts objective evaluations."""
    def golden_max_counting(f, *args, **kwargs):
        def objective(z):
            tracer.count("strategies.golden_max.evals")
            return f(z)
        return golden_max(objective, *args, **kwargs)
    return tracer.wrap("strategies.golden_max", golden_max_counting)


def _timed_trace_writer(tracer, writer_cls):
    class TimedTraceWriter(writer_cls):
        __init__ = tracer.wrap("campaign.trace.file", writer_cls.__init__)
        __call__ = tracer.wrap("campaign.trace.write", writer_cls.__call__)
        close = tracer.wrap("campaign.trace.file", writer_cls.close)
    return TimedTraceWriter


def _span(name):
    return lambda tracer, fn: tracer.wrap(name, fn)


# (module, attribute, wrapper factory). Each attribute is the binding the
# calling module looks up at call time, so e.g. the engine's own
# `utility_matrix` name is replaced, not the definition in `game`.
TARGETS = (
    ("fogbandit.engine", "run_round", _span("engine.run_round")),
    ("fogbandit.engine", "utility_matrix", _span("game.utility_matrix")),
    ("fogbandit.engine", "gradient_matrix", _span("game.gradient_matrix")),
    ("fogbandit.engine", "deviation_utilities", _span("nash.deviation_utilities")),
    ("fogbandit.campaign", "run_seed", _span("engine.run_seed")),
    ("fogbandit.campaign", "solve_nash", _span("nash.solve_nash")),
    ("fogbandit.campaign", "estimate_bounds", _span("game.estimate_bounds")),
    ("fogbandit.campaign", "epsilon_gap", _span("nash.epsilon_gap")),
    ("fogbandit.campaign", "make_bank", _timed_make_bank),
    ("fogbandit.campaign", "_TraceWriter", _timed_trace_writer),
    ("fogbandit.cli", "run_campaign", _span("campaign.run_campaign")),
    ("fogbandit.cli", "write_outputs", _span("campaign.write_outputs")),
    ("fogbandit.cli", "load_dataset", _span("dataset.load_dataset")),
    ("fogbandit.nash", "br_profile", _span("nash.br_profile")),
    ("fogbandit.nash", "epsilon_gap", _span("nash.epsilon_gap")),
    ("fogbandit.strategies.baselines", "golden_max", _counted_golden_max),
    ("fogbandit.strategies.llr", "linear_sum_assignment",
     _span("strategies.llr.assign")),
)


@contextlib.contextmanager
def instrument(tracer: Tracer, targets=TARGETS):
    """Patch every target that exists; yield the list of the ones that do
    not; restore every patched attribute on exit."""
    patched, missing = [], []
    try:
        for module_name, attr, factory in targets:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            setattr(module, attr, factory(tracer, original))
            patched.append((module, attr, original))
        yield missing
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
