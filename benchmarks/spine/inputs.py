"""The programs and feeds the workloads run.

Graph *shapes* are fixed (they are the benchmark's definition); what
``--seed`` varies is the order the compile workloads visit them in, the
feed values, and the serving arrival schedule.  References come from
``execute_graph_reference`` — the unfused op-by-op f64 evaluator, which
shares nothing with the compiler or the fused plans.
"""

from __future__ import annotations

from repro.models import (
    build_model,
    layernorm_graph,
    lstm_cell_graph,
    mha_graph,
    mlp_graph,
    softmax_gemm_graph,
)
from repro.runtime.kernels import execute_graph_reference, random_feeds

ZOO = tuple((name, seq) for name in ("bert", "albert", "gpt2", "t5", "llama2")
            for seq in (128, 512))

#: The seven subgraphs of the compile workloads; the first six are the
#: ``exec_inproc`` shapes.  ``mha-long`` is last of the six on purpose:
#: its 12.6 MB working set evicts everything the smaller shapes keep warm.
SUBGRAPHS = {
    "mlp": lambda: mlp_graph(8, 256, 64, 64),
    "lstm": lambda: lstm_cell_graph(64, 128),
    "layernorm": lambda: layernorm_graph(256, 256),
    "mha": lambda: mha_graph(1, 8, 128, 128, 64),
    "mha-decode": lambda: mha_graph(1, 8, 1, 128, 64),
    "mha-long": lambda: mha_graph(2, 8, 512, 512, 64),
    "softmax-gemm": lambda: softmax_gemm_graph(512, 1024, 64),
}
EXEC_SHAPES = tuple(SUBGRAPHS)[:6]

#: Serving mixes: name -> (graph factory, share of requests).
#: ``serve_heavy`` was sized with ``mlp_graph(8, 256, 64, 64)`` as its
#: second graph, but that plan publishes an arena buffer as its output and
#: a worker thread's next request overwrites it before the reply is
#: pickled: ~1.5 % of fleet replies carried another request's answer.  The
#: fix is in ``codegen`` and outside this benchmark; until then the slot
#: goes to a softmax-GEMM of the same weight (2.4 ms plan, 1.3 MB feeds).
SERVE_MIXES = {
    "serve_heavy": {
        "mha": (SUBGRAPHS["mha"], 0.5),
        "softmax-gemm": (lambda: softmax_gemm_graph(256, 512, 64), 0.5),
    },
    "serve_light": {
        "mha-decode": (SUBGRAPHS["mha-decode"], 0.5),
        "layernorm": (lambda: layernorm_graph(48, 64), 0.3),
        "lstm": (SUBGRAPHS["lstm"], 0.2),
    },
}


def build_models() -> dict:
    """``label -> TensorProgram`` for the zoo at batch 1 (vit: 224 px)."""
    progs = {f"{name}-{seq}": build_model(name, 1, seq=seq)
             for name, seq in ZOO}
    progs["vit"] = build_model("vit", 1)
    return progs


def build_subgraphs(names=tuple(SUBGRAPHS)) -> dict:
    return {name: SUBGRAPHS[name]() for name in names}


def feeds_and_references(graph, seed: int, count: int):
    """``count`` feed dicts drawn from ``seed`` and their reference outputs."""
    feeds = [random_feeds(graph, seed=seed * 1000 + i) for i in range(count)]
    refs = [execute_graph_reference(graph, f) for f in feeds]
    return feeds, refs

