"""Socket-level end-to-end benchmark of the rips engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. For each engine (the interpreter,
``rips run``, and the program ``rips compile`` emits) it times set-up, then
drives one engine process over its Unix socket: a saturation phase (send as
fast as backpressure allows) and an open-loop phase at the workload's fixed
offered rate. Every outcome is checked against the interpreter reference.
With ``--trace 1`` it also replays the corpus in-process, untraced and
traced, and reports per-layer numbers. The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_work"

ENGINES = ("interp", "gen")
ROUNDS = 6  # engine processes per engine and run
SATURATION_SHARE = 0.4  # of a round's time; the rest is open loop


def metric_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {section: {m["name"]: m["unit"] for m in spec[section]} for section in ("end_to_end", "per_layer")}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; inf for an empty sample."""
    if not values:
        return math.inf
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _median(values: list[float], empty: float) -> float:
    return median(values) if values else empty


def _finite(x: float) -> float:
    return x if math.isfinite(x) else 1e9


# --- the socket run ------------------------------------------------------


def engine_argv(mode: str, files: dict, run_dir: str) -> tuple[list[str], str]:
    """Command line of one engine process, and its socket path."""
    from corpus import IDS_PATTERN

    sock_path = os.path.join(run_dir, f"{mode}.sock")
    common = ["-s", sock_path, "--tick", "0.1", "--ids-dir", files["ids_dir"], "--ids-pattern", IDS_PATTERN]
    if mode == "interp":
        return [sys.executable, "-m", "rips.cli", "run", files["scripts"], files["rules"], *common], sock_path
    return [sys.executable, generated_path(run_dir), *common], sock_path


def generated_path(run_dir: str) -> str:
    return os.path.join(run_dir, "generated_rules.py")


def compile_program(files: dict, run_dir: str, env: dict) -> None:
    """``rips compile`` the workload's rules into the generated program."""
    with open(generated_path(run_dir), "wb") as fh:
        subprocess.run([sys.executable, "-m", "rips.cli", "compile", files["rules"], "-c", files["scripts"]],
                       stdout=fh, env=env, check=True, timeout=120)


def start_engine(mode, files, run_dir, env):
    """Set the engine up from scratch (compiling first for ``gen``) and
    connect; returns (process, socket, set-up seconds)."""
    from loadgen import now, spawn_until_accepting

    t0 = now()
    if mode == "gen":
        compile_program(files, run_dir, env)
    argv, sock_path = engine_argv(mode, files, run_dir)
    proc, sock = spawn_until_accepting(argv, env, sock_path, os.path.join(run_dir, f"{mode}.log"))
    return proc, sock, now() - t0


def run_round(mode, files, corpus, workload, run_dir, env, seconds) -> dict:
    """One engine process, set up from scratch: warm-up, a saturation batch
    sized to ``SATURATION_SHARE`` of ``seconds`` at the workload's nominal
    rate, then the open loop for the rest of ``seconds``."""
    from loadgen import Session

    proc, sock, setup = start_engine(mode, files, run_dir, env)
    session = Session(sock, corpus, proc)
    sat = opn = None
    cpu = rss = math.inf
    answered = False
    try:
        if session.warm_up():
            sat = session.saturate(round(seconds * SATURATION_SHARE * workload.nominal_eps))
            if sat.t_last_ack is not None:
                cpu0 = proc.cpu_s()
                opn = session.open_loop(workload.offered_eps, seconds * (1 - SATURATION_SHARE))
                answered = opn.t_last_ack is not None
                if answered:
                    cpu = proc.cpu_s() - cpu0
                    rss = proc.peak_rss_mb()
    finally:
        session.close()
        # Once every event is answered no transition script can be running,
        # so a kill is safe and skips the reader's shutdown wait. Otherwise
        # SIGINT lets the engine end its children first.
        proc.stop(graceful=not answered)
    return {"setup": setup, "sat": sat, "open": opn, "cpu": cpu, "rss": rss, "answered": answered,
            "received": session.received(), "sent": session.next}


def probe_latencies_ms(phase, received, corpus) -> list[float]:
    """Latency of each probe of an open-loop phase, from its due time to
    the arrival of its alert; inf for a probe never answered."""
    from reference import probe_number

    arrived = {}
    for t, key in received:
        n = probe_number(key)
        if n:
            arrived.setdefault(n, t)
    lat = []
    for i, due in phase.due.items():
        n = corpus[i].probe
        if n:
            lat.append((arrived[n] - due) * 1e3 if n in arrived else math.inf)
    return lat


def engine_metrics(rounds: list[dict], corpus) -> dict:
    """One engine's metrics over its rounds.

    Set-up time is the best (lowest) of the rounds and throughput the best
    (highest): on a shared host, time the hypervisor takes away only ever
    adds to them. CPU time and memory are medians, and latency percentiles
    are taken over the pooled probes.
    """
    eps, cpu, lat, lags = [], [], [], []
    for r in rounds:
        sat, opn = r["sat"], r["open"]
        ok = sat is not None and sat.t_last_ack is not None
        eps.append(sat.events / (sat.t_last_ack - sat.t_start) if ok else 0.0)
        if opn is None:
            cpu.append(math.inf)
            continue
        cpu.append(r["cpu"] / max(1, opn.events) * 1e6)
        lat += probe_latencies_ms(opn, r["received"], corpus)
        lags += [(opn.sent[i] - due) * 1e3 for i, due in opn.due.items() if i in opn.sent]
    return {
        "setup_s": min((r["setup"] for r in rounds), default=math.inf),
        "max_eps": max(eps, default=0.0),
        "lat_p50_ms": percentile(lat, 0.50),
        "lat_p95_ms": percentile(lat, 0.95),
        "cpu_us_per_event": _median(cpu, math.inf),
        "peak_rss_mb": _median([r["rss"] for r in rounds], math.inf),
        "lat_samples": len(lat),
        "lat_all": lat,
        "lags": lags,
    }


# --- the traced replay ---------------------------------------------------


def layer_metrics(workload, corpus, checked, files, seconds, max_eps, trace_path) -> dict:
    from layers import Tracer, instrumented, replay, setup_times

    from rips.transpiler import load_generated, transpile

    module = load_generated(transpile(checked), "bench_generated")
    budget = seconds / 16.0  # per untraced replay; four replays in all
    tracer = Tracer()
    m: dict[str, float] = {}
    events = {}
    untraced = traced = 0.0
    # Size each replay by time, then replay exactly those events traced.
    # Both untraced replays run first, while the heap holds no spans.
    cap = int(budget * 5000)  # more events than any workload replays in the budget
    for mode in ENGINES:
        n, elapsed = replay(mode, checked, module, corpus, cap, workload.offered_eps, files["ids_dir"], until_s=budget)
        events[mode] = n
        m[f"replay.{mode}.eps"] = n / elapsed
        untraced += elapsed
    with instrumented(tracer):
        for mode in ENGINES:
            traced += replay(mode, checked, module, corpus, events[mode], workload.offered_eps, files["ids_dir"], tracer)[1]
    tracer.write_jsonl(trace_path)

    tot = tracer.totals()
    zero = {"calls": 0, "incl_ns": 0, "self_ns": 0}

    def t(name):
        return tot.get(name, zero)

    def per(name, key, denom, scale):
        return t(name)[key] / max(1, denom) / scale

    docs = sum(events.values())
    m["wire.framing.us_per_doc"] = per("wire.framing", "incl_ns", docs, 1e3)
    m["wire.framing.bytes_per_doc"] = sum(len(corpus[i].doc) for mode in ENGINES for i in range(events[mode])) / docs
    m["wire.decode.us_per_doc"] = per("wire.decode", "incl_ns", docs, 1e3)
    m["wire.yaml_parse.us_per_doc"] = per("wire.yaml_parse", "incl_ns", docs, 1e3)
    m["wire.graph_build.us_per_doc"] = per("wire.graph_build", "incl_ns", docs, 1e3)
    for mode in ENGINES:
        for kind in ("graph", "msg"):
            name = f"runtime.{mode}.{'message' if kind == 'msg' else kind}"
            m[f"runtime.{mode}.{kind}_us_per_event"] = per(name, "self_ns", t(name)["calls"], 1e3)
        m[f"runtime.{mode}.tick_us"] = per(f"runtime.{mode}.tick", "incl_ns", t(f"runtime.{mode}.tick")["calls"], 1e3)
    ids = t("predicates.ids_search")
    m["predicates.ids_search.ms_per_call"] = per("predicates.ids_search", "incl_ns", ids["calls"], 1e6)
    m["predicates.ids_search.bytes_per_call"] = _ids_bytes(files["ids_dir"]) if ids["calls"] else 0.0
    rx = t("regexlite.full_match")
    m["regexlite.full_match.us_per_call"] = per("regexlite.full_match", "incl_ns", rx["calls"], 1e3)
    m["regexlite.full_match.calls_per_event"] = rx["calls"] / docs
    pm = t("patterns.match")
    m["patterns.match.us_per_call"] = per("patterns.match", "incl_ns", pm["calls"], 1e3)
    m["patterns.match.bytes_per_call"] = tracer.nbytes["patterns.match"] / max(1, pm["calls"])
    rn = t("runtime.runner")
    m["runtime.runner.ms_per_spawn"] = per("runtime.runner", "incl_ns", rn["calls"], 1e6)
    m["runtime.runner.spawns_per_kevent"] = rn["calls"] / docs * 1e3
    enc = t("wire.encode")
    m["wire.encode.us_per_outcome"] = per("wire.encode", "incl_ns", enc["calls"], 1e3)
    m["wire.encode.outcomes_per_event"] = enc["calls"] / docs
    m["bus.handoff_us_per_event"] = 1e6 / max_eps - 1e6 / m["replay.interp.eps"] if max_eps else math.inf
    m["trace.overhead_ratio"] = traced / untraced

    # Where the time goes: every span's self time, summed, is the replay.
    total_self = sum(v["self_ns"] for v in tot.values())
    decode = t("wire.decode")["incl_ns"]
    side = sum(t(n)["incl_ns"] for n in ("regexlite.full_match", "predicates.ids_search", "runtime.runner", "wire.encode"))
    m["wire.decode.time_share"] = decode / total_self
    m["side_paths.time_over_decode"] = side / decode

    m["checker.check_ms"], m["transpiler.transpile_ms"] = setup_times(files["rules"], files["scripts"])
    m.update(corpus_properties(corpus, max(events.values())))
    return m


def _ids_bytes(directory: str) -> float:
    import fnmatch

    from corpus import IDS_PATTERN

    total = 0
    for root, _dirs, names in os.walk(directory):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in names if fnmatch.fnmatch(f, IDS_PATTERN))
    return float(total)


def corpus_properties(corpus, n: int) -> dict:
    evs = [corpus[i] for i in range(n)]
    msgs = [e for e in evs if e.kind == "message"]
    return {
        "corpus.context_repeat_share": sum(e.context_repeat for e in evs) / n,
        "corpus.doc_bytes_mean": sum(len(e.doc) for e in evs) / n,
        "corpus.message_share": len(msgs) / n,
        "corpus.probe_share": sum(1 for e in msgs if e.probe) / max(1, len(msgs)),
    }


# --- main ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rips", "__init__.py")):
        print(f"error: no rips sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    units = metric_units()
    # A terminated run still stops the engine it started (the finally
    # clauses below run on SystemExit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from corpus import WORKLOADS, Corpus, write_engine_files
    from reference import count_failures, reference_outcomes

    from rips.checker import check_file

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        files = {k: os.path.abspath(v) for k, v in write_engine_files(workload, run_dir).items()}
        corpus = Corpus(workload, args.seed)
        checked = check_file(files["rules"], files["scripts"])
        # Rounds alternate the engines, so both sample the whole run.
        per_round = args.seconds / (ROUNDS * len(ENGINES))
        rounds = {mode: [] for mode in ENGINES}
        answered = True
        for _ in range(ROUNDS):
            for mode in ENGINES:
                r = run_round(mode, files, corpus, workload, run_dir, env, per_round)
                rounds[mode].append(r)
                # An engine that stopped answering ends the run: its
                # unanswered events count as failed, and no round waits for
                # further timeouts.
                answered = r["answered"]
                if not answered:
                    break
            if not answered:
                break

        sent = max(r["sent"] for rs in rounds.values() for r in rs)
        expected = reference_outcomes(checked, corpus, sent)
        attempted = failed = 0
        for r in (r for rs in rounds.values() for r in rs):
            attempted += r["sent"]
            failed += count_failures(corpus, expected, [key for _t, key in r["received"]], r["sent"])
        em = {mode: engine_metrics(rounds[mode], corpus) for mode in ENGINES}

        metrics = {"setup_s": em["interp"]["setup_s"], "gen.setup_s": em["gen"]["setup_s"]}
        for mode in ENGINES:
            for key in ("max_eps", "lat_p50_ms", "lat_p95_ms", "cpu_us_per_event", "peak_rss_mb"):
                metrics[f"{mode}.{key}"] = em[mode][key]
        all_units = {**units["end_to_end"], **units["per_layer"]}
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {all_units[name]}")
        for mode in ENGINES:
            print(f"{mode}.lat_samples = {em[mode]['lat_samples']} probes at {workload.offered_eps:g} ev/s offered")
        print(f"error_ratio = {failed / max(1, attempted):.6g} ({failed} of {attempted} events)")

        if args.trace:
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            trace_path = os.path.join(WORK, "traces", f"{workload.name}-seed{args.seed}.jsonl")
            lm = layer_metrics(workload, corpus, checked, files, args.seconds, em["interp"]["max_eps"], trace_path)
            lm["client.send_lag_p99_ms"] = percentile(em["interp"]["lags"] + em["gen"]["lags"], 0.99)
            lm["client.lat_p99_ms"] = percentile(em["interp"]["lat_all"] + em["gen"]["lat_all"], 0.99)
            lm.update(metrics)
            out = {name: {"value": _finite(lm[name]), "unit": unit} for name, unit in units["per_layer"].items()}
            for name, v in out.items():
                if name not in metrics:
                    print(f"{name} = {v['value']:.6g} {v['unit']}")
            print(f"spans written to {trace_path}")
        else:
            out = {name: {"value": _finite(metrics[name]), "unit": unit} for name, unit in units["end_to_end"].items()}
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
