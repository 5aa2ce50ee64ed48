"""In-process replay of a workload, untraced and traced, for per-layer
numbers.

The replay does what the engine process does for each event, in the same
order and single-threaded: frame the bytes (``DocumentStream.feed``), decode
(``decode_event``), run the rules (``handle_event``, whose outcomes go
through ``encode_outcome`` as the socket sink does) and run the External
rules on the tick schedule the offered rate implies. Transition scripts and
exec actions run for real through ``SubprocessRunner``.

Tracing wraps the calls into each layer's public functions and records one
span (name, start, end, parent, event seq) per call in memory. Nothing in
the engine is changed; the wrappers are installed for the traced replay
only and removed after it.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import defaultdict
from statistics import median

import yaml

from rips import patterns, predicates, regexlite, wire
from rips.checker import check_file
from rips.runtime import EngineConfig, FakeClock, InterpretedEngine, SubprocessRunner
from rips.transpiler import load_generated, transpile

TICK_S = 0.1


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)

    def __exit__(self, *exc):
        self.tracer.close(self.idx)


class Tracer:
    """In-memory span recorder; spans nest by call stack.

    Spans are kept in parallel lists of plain values, so recording adds no
    objects for the cyclic garbage collector to walk.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.seqs: list[int] = []
        self.engines: list[str] = []
        self.nbytes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.seq = -1
        self.engine = ""

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.names.append(name)
        self.seqs.append(self.seq)
        self.engines.append(self.engine)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, name: str, fn, size=None):
        def traced(*args, **kwargs):
            if size is not None:
                self.nbytes[name] += size(args)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ns and self ns (inclusive minus
        the time covered by child spans)."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0] * len(durations)
        for parent, d in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += d
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0})
        for name, d, c in zip(self.names, durations, child):
            t = out[name]
            t["calls"] += 1
            t["incl_ns"] += d
            t["self_ns"] += d - c
        return dict(out)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.seqs, self.engines):
                fh.write(json.dumps(dict(zip(("name", "start_ns", "end_ns", "parent", "seq", "engine"), row))) + "\n")


class _YamlProxy:
    """Stands in for the ``yaml`` module inside ``rips.wire`` so that the
    parse inside ``decode_event`` gets its own span."""

    def __init__(self, load):
        self.load = load

    def __getattr__(self, name):
        return getattr(yaml, name)


class TimedRunner:
    """Wraps an injected runner; every child process gets a span."""

    def __init__(self, inner, tracer: Tracer):
        self.run_script = tracer.wrap("runtime.runner", inner.run_script)
        self.run_exec = tracer.wrap("runtime.runner", inner.run_exec)
        self.run_plugin = tracer.wrap("runtime.runner", inner.run_plugin)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install span wrappers around the layers' public functions."""
    patches = [
        (wire, "yaml", _YamlProxy(tracer.wrap("wire.yaml_parse", yaml.load))),
        (wire, "parse_graph_context", tracer.wrap("wire.graph_build", wire.parse_graph_context)),
        (regexlite.CompiledPattern, "full_match",
         tracer.wrap("regexlite.full_match", regexlite.CompiledPattern.full_match)),
        (patterns.PatternFile, "match",
         tracer.wrap("patterns.match", patterns.PatternFile.match, size=lambda a: len(a[1]))),
        (predicates.IdsAlertScanner, "search",
         tracer.wrap("predicates.ids_search", predicates.IdsAlertScanner.search)),
    ]
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, value in patches:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)


def build_engine(mode: str, checked, module, runner, clock, ids_dir: str):
    config = EngineConfig(tick_interval=TICK_S, ids_dir=ids_dir)
    if mode == "interp":
        return InterpretedEngine(checked, clock=clock, runner=runner, config=config)
    return module.build_engine(clock=clock, runner=runner, config=config)


def replay(mode, checked, module, corpus, n, offered_eps, ids_dir, tracer: Tracer | None = None,
           until_s: float = math.inf) -> tuple[int, float]:
    """Replay the first ``n`` events through one fresh engine, stopping
    early once ``until_s`` seconds have passed; (events, wall seconds)."""
    clock = FakeClock(0)
    runner = SubprocessRunner()
    tick_every = max(1, round(offered_eps * TICK_S))
    step_ns = int(1e9 / offered_eps)
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    if tracer is not None:
        runner = TimedRunner(runner, tracer)
        tracer.engine = mode
        encode = tracer.wrap("wire.encode", wire.encode_outcome)
    else:
        encode = wire.encode_outcome
    engine = build_engine(mode, checked, module, runner, clock, ids_dir)
    engine.sink = lambda o: len(encode(o).encode("utf-8")) > 0
    framer = wire.DocumentStream()
    docs = [corpus[i].doc for i in range(n)]
    t0 = time.perf_counter()
    stop_at = t0 + until_s
    engine.start()
    for i, doc in enumerate(docs):
        if time.perf_counter() > stop_at:
            n = i
            break
        if tracer is not None:
            tracer.seq = i
        with span("wire.framing"):
            texts = framer.feed(doc)
        for text in texts:
            with span("wire.decode"):
                event = wire.decode_event(text)
            with span(f"runtime.{mode}.{event.kind}"):
                engine.handle_event(event)
        clock.advance(step_ns)
        if (i + 1) % tick_every == 0:
            with span(f"runtime.{mode}.tick"):
                engine.tick()
    return n, time.perf_counter() - t0


def setup_times(rules_path: str, scripts_dir: str, reps: int = 5) -> tuple[float, float]:
    """Median ms of ``check_file`` and of ``transpile`` + ``load_generated``."""
    check, gen = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        checked = check_file(rules_path, scripts_dir)
        t1 = time.perf_counter()
        load_generated(transpile(checked), "bench_generated")
        t2 = time.perf_counter()
        check.append((t1 - t0) * 1e3)
        gen.append((t2 - t1) * 1e3)
    return median(check), median(gen)
