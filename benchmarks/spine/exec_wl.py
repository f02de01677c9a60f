"""``exec_inproc``: fused plans behind ``InferenceSession.execute``.

Closed loop, one thread, no queue, no thread hop, no pipe: whatever moves
here was moved by ``runtime`` or ``codegen``.  Shapes run in blocks
(warm-up, then a fixed number of requests), never round-robin —
``mha-long``'s working set would otherwise sit in the middle of every
other shape's timing.
"""

from __future__ import annotations

import pathlib
import time

import numpy as np

from repro.hw import AMPERE
from repro.obs import NULL_TRACER, Tracer, use_tracer
from repro.runtime.compiled import PlanCache, compile_schedule
from repro.serve import InferenceSession

from common import (SETUP_REPEATS, PassResult, SpanRecorder, chunks, geomean,
                    median, modelled_costs, overhead_pct, peak_rss_mb, span,
                    steady_percentile, timed_block)
from inputs import EXEC_SHAPES, build_subgraphs, feeds_and_references

#: Timed requests per second of ``--seconds`` (about a sixth of the window
#: each, a third for mha-long at ~100 ms a request) and distinct feeds
#: (mha-long's reference costs over a second per feed).
REQUESTS_PER_SECOND = {"mlp": 100, "lstm": 400, "layernorm": 250, "mha": 45,
                       "mha-decode": 1000, "mha-long": 3.5}
FEEDS = {name: 4 for name in EXEC_SHAPES} | {"mha-long": 2}
MIN_REQUESTS = 5
#: Each shape's timings are cut into this many consecutive blocks.
BLOCKS = 5


def session_call(session: InferenceSession):
    def call(feeds):
        reply = session.execute(feeds)
        # A degraded reply came from the reference fallback, not the plan.
        return None if reply.degraded else reply.outputs
    return call


def plan_call(session: InferenceSession):
    program, wanted = session.program, session.graph.output_tensors

    def call(feeds):
        env = program.execute(feeds)
        return {t: env[t] for t in wanted}
    return call


def _setup(recorder):
    graphs = build_subgraphs(EXEC_SHAPES)
    plans = PlanCache()
    sessions = {}
    for name, graph in graphs.items():
        with span(recorder, "serve.session_compile", shape=name):
            sessions[name] = InferenceSession(graph, AMPERE, eager=True,
                                              plan_cache=plans)
    return graphs, sessions


def run_pass(workload: str, seed: int, seconds: float,
             recorder: SpanRecorder | None, work: pathlib.Path) -> PassResult:
    setup_s = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with span(recorder, "bench.setup", rep=rep):
            graphs, sessions = _setup(recorder)
        setup_s.append(time.perf_counter() - t0)

    result = PassResult()
    result.failed = sum(s.state != "ready" for s in sessions.values())
    result.attempted = len(sessions)
    layer = result.per_layer
    medians, p90s, self_us, publish = {}, {}, [], []
    busy_s, requests, aliased = 0.0, 0, 0
    costed = []
    for shape in EXEC_SHAPES:
        graph, session = graphs[shape], sessions[shape]
        if session.program is None:
            continue            # its compile failure is already counted
        feeds, refs = feeds_and_references(graph, seed, FEEDS[shape])
        count = max(MIN_REQUESTS, round(REQUESTS_PER_SECOND[shape] * seconds))
        times, bad = timed_block(session_call(session), feeds, refs, count,
                                 recorder, "serve.session_execute",
                                 shape=shape)
        blocks = chunks(times, BLOCKS)
        medians[shape] = steady_percentile(blocks, 50)
        p90s[shape] = steady_percentile(blocks, 90)
        busy_s += sum(times)
        requests += count
        result.attempted += count
        result.failed += bad
        costed.append((graph, session.schedule))
        if recorder is not None:
            # The rung below the session: the bare plan, same feeds.
            plan_times, bad = timed_block(plan_call(session), feeds, refs,
                                          count, recorder,
                                          "runtime.plan_execute", shape=shape)
            result.attempted += count
            result.failed += bad
            layer[f"runtime.execute_ms.{shape}"] = median(plan_times) * 1e3
            self_us.append((medians[shape] - median(plan_times)) * 1e6)
            publish.append(sum(a.nbytes for a in refs[0].values()) / 1024.0)
            aliased += _output_is_overwritten(session, feeds)

    fused_s, dram, unfused_s = modelled_costs(costed)
    result.end_to_end = {
        "setup_s": median(setup_s),
        "latency_p50_ms": geomean(medians.values()) * 1e3,
        "throughput_rps": requests / busy_s if busy_s else 0.0,
        "modelled_dram_mb": dram / 1e6,
        "modelled_speedup": unfused_s / fused_s if fused_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    result.info = {"requests": requests, "busy_s": busy_s,
                   "setup_repeats": SETUP_REPEATS,
                   "median_ms": {s: m * 1e3 for s, m in medians.items()}}
    if recorder is not None:
        programs = [s.program for s in sessions.values()
                    if s.program is not None]
        layer.update({
            "serve.session_self_us": median(self_us),
            "runtime.publish_kb": sum(publish) / max(1, len(publish)),
            "runtime.aliased_outputs": aliased,
            "codegen.source_lines": sum(p.fused.source.count("\n") + 1
                                        for p in programs),
            "codegen.segments": sum(len(p.fused.segments) for p in programs),
            "hw.modelled_time_ms": fused_s * 1e3,
            "baselines.unfused_time_ms": unfused_s * 1e3,
            "bench.samples": requests,
            "bench.latency_p90_ms": geomean(p90s.values()) * 1e3,
        })
        _lowering_rows(layer, sessions, recorder)
        layer["obs.tracer_on_overhead_pct"] = _ambient_tracer_overhead(
            graphs, sessions, seed, seconds)
    return result


def _output_is_overwritten(session: InferenceSession, feeds: list) -> bool:
    """Does answering the next request change the previous answer?  A plan
    that publishes one of its arena buffers passes every check made right
    after the call and still hands a pipelined server the wrong bytes."""
    first = session.execute(feeds[0]).outputs
    kept = {name: arr.copy() for name, arr in first.items()}
    session.execute(feeds[1])
    return any(not np.array_equal(first[name], kept[name]) for name in kept)


def _lowering_rows(layer: dict, sessions: dict, recorder) -> None:
    """Each schedule lowered on a fresh plan cache, then the hit path."""
    lower_ms, hit_us = [], []
    for name, session in sessions.items():
        if session.schedule is None:
            continue
        plans = PlanCache()
        with span(recorder, "runtime.lower", shape=name):
            t0 = time.perf_counter()
            compile_schedule(session.schedule, cache=plans)
            lower_ms.append((time.perf_counter() - t0) * 1e3)
        for _ in range(20):
            t0 = time.perf_counter()
            compile_schedule(session.schedule, cache=plans)
            hit_us.append((time.perf_counter() - t0) * 1e6)
    layer["runtime.lower_ms"] = sum(lower_ms)
    layer["runtime.plan_cache_hit_us"] = median(hit_us)


def _ambient_tracer_overhead(graphs, sessions, seed, seconds) -> float:
    """What a live ambient ``repro.obs.Tracer`` costs the smallest request:
    the mha-decode block under NULL_TRACER, a Tracer, NULL_TRACER again."""
    shape = "mha-decode"
    if sessions[shape].program is None:
        return 0.0
    feeds, refs = feeds_and_references(graphs[shape], seed, FEEDS[shape])
    count = max(MIN_REQUESTS,
                round(REQUESTS_PER_SECOND[shape] * seconds) // 2)
    call = session_call(sessions[shape])
    timings = []
    for tracer in (NULL_TRACER, Tracer(), NULL_TRACER):
        with use_tracer(tracer):
            times, _bad = timed_block(call, feeds, refs, count, None, "")
        timings.append(median(times))
    return overhead_pct(timings[1], (timings[0] + timings[2]) / 2.0)
