"""Replay benchmark: interpreter vs generated program over a recorded event
corpus, with decode / rule-execution / encode time broken out.

A document that fails to decode is skipped and counted, as the serving loop
skips it. Each mode starts with an empty context cache, so both decode the
corpus alike."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .checker import CheckedProgram
from .runtime import FakeClock, InterpretedEngine, RecordingRunner
from .transpiler import load_generated, transpile
from .wire import DecodeError, clear_context_cache, decode_event, encode_outcome


@dataclass
class ModeTiming:
    mode: str
    events: int = 0
    skipped: int = 0  # documents that failed to decode
    outcomes: int = 0
    decode_s: float = 0.0
    execute_s: float = 0.0
    encode_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.decode_s + self.execute_s + self.encode_s

    @property
    def wire_share(self) -> float:
        total = self.total_s
        return (self.decode_s + self.encode_s) / total if total else 0.0


@dataclass
class BenchReport:
    interpreted: ModeTiming
    generated: ModeTiming

    @property
    def exec_speedup(self) -> float | None:
        """Interpreter rule-execution time over generated rule-execution time."""
        if self.generated.execute_s <= 0.0:
            return None
        return self.interpreted.execute_s / self.generated.execute_s

    def format(self) -> str:
        lines = [
            f"{'mode':<12} {'events':>7} {'skipped':>7} {'outcomes':>8}"
            f" {'decode':>10} {'exec':>10} {'encode':>10} {'total':>10}",
        ]
        for t in (self.interpreted, self.generated):
            lines.append(
                f"{t.mode:<12} {t.events:>7} {t.skipped:>7} {t.outcomes:>8}"
                f" {t.decode_s:>9.4f}s {t.execute_s:>9.4f}s {t.encode_s:>9.4f}s {t.total_s:>9.4f}s"
            )
        speedup = self.exec_speedup
        lines.append(
            "rule-execution speedup (interpreted/generated): "
            + (f"{speedup:.2f}x" if speedup is not None else "n/a")
        )
        lines.append(
            f"decode+encode share of total: interpreted {self.interpreted.wire_share:.0%},"
            f" generated {self.generated.wire_share:.0%}"
        )
        return "\n".join(lines)


def _time_replay(mode: str, engine, docs: list[str]) -> ModeTiming:
    timing = ModeTiming(mode)
    perf = time.perf_counter_ns
    clear_context_cache()
    engine.start()
    for doc in docs:
        t0 = perf()
        try:
            event = decode_event(doc)
        except DecodeError:
            timing.decode_s += (perf() - t0) / 1e9
            timing.skipped += 1
            continue
        t1 = perf()
        outcomes = engine.handle_event(event)
        t2 = perf()
        for o in outcomes:
            encode_outcome(o)
        t3 = perf()
        timing.decode_s += (t1 - t0) / 1e9
        timing.execute_s += (t2 - t1) / 1e9
        timing.encode_s += (t3 - t2) / 1e9
        timing.events += 1
        timing.outcomes += len(outcomes)
    return timing


def run_benchmark(checked: CheckedProgram, docs: list[str]) -> BenchReport:
    interp = InterpretedEngine(checked, clock=FakeClock(0), runner=RecordingRunner())
    interpreted = _time_replay("interpreted", interp, docs)

    module = load_generated(transpile(checked), "bench_generated")
    gen = module.build_engine(clock=FakeClock(0), runner=RecordingRunner())
    generated = _time_replay("generated", gen, docs)

    return BenchReport(interpreted=interpreted, generated=generated)
