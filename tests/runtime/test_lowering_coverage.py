"""The fused-plan emitter covers every op a non-barrier kernel can hold.

There is one code generator and no per-op fallback, so three facts carry
the compiled engine:

* every elementwise, scalar, reduce and contraction kind that
  ``evaluate_op`` evaluates renders through ``_op_call``, and the plan
  computes the same bits;
* the compiler puts layout ops (``BARRIER_KINDS``) only into barrier
  kernels, which the emitter handles on their own;
* a schedule that breaks that rule (say, doctored on disk) fails at lower
  time with ``LoweringError``, and a session serving it degrades to the
  reference instead of answering wrong.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.builder import build_smg
from repro.core.schedule import KernelSchedule, ProgramSchedule, ScheduleConfig
from repro.hw import AMPERE
from repro.ir import GraphBuilder, program_from_graph
from repro.ir.ops import (
    BARRIER_KINDS,
    BINARY_KINDS,
    REDUCE_KINDS,
    UNARY_KINDS,
    make_scalar,
)
from repro.models.zoo import build_model
from repro.pipeline import compile_model_for
from repro.runtime import (
    LoweringError,
    PlanCache,
    evaluate_op,
    execute_graph_reference,
    lower_program,
)
from repro.runtime.kernels import _BINARY_FUNCS, _REDUCE_FUNCS, _UNARY_FUNCS
from repro.serve import InferenceSession


def _scalar_forms() -> list[str]:
    """Every ``scalar_*`` kind ``make_scalar`` accepts."""
    forms = []
    for kind in sorted(BINARY_KINDS | UNARY_KINDS | {"rsub", "rdiv"}):
        try:
            make_scalar("s", kind, "X", ("m",), "Y", 1.0)
        except ValueError:
            continue
        forms.append(kind)
    return forms


def _one_op_graph(family: str, kind: str):
    """A graph whose single op is ``kind``; inputs are positive so log,
    sqrt and pow stay finite."""
    b = GraphBuilder(f"{family}_{kind}")
    x = b.input("X", [("m", 6), ("n", 5)])
    if family == "unary":
        b.unary(kind, x, out_name="Y")
    elif family == "binary":
        # A broadcast operand in another axis order exercises the
        # transpose/None-index path of the emitter.
        w = b.input("W", [("n", 5)])
        b.binary(kind, x, w, out_name="Y")
    elif family == "scalar":
        b.scalar(kind, x, 1.25, out_name="Y")
    elif family == "reduce":
        b.reduce(kind, x, "n", out_name="Y")
    else:
        w = b.input("W", [("n", 5), ("k", 3)])
        b.matmul(x, w, reduce_dim="n", out_name="Y")
    return b.build()


CASES = ([("unary", k) for k in sorted(UNARY_KINDS)]
         + [("binary", k) for k in sorted(BINARY_KINDS)]
         + [("scalar", k) for k in _scalar_forms()]
         + [("reduce", k) for k in sorted(REDUCE_KINDS)]
         + [("contraction", "matmul")])


def _plain_kernel(graph) -> ProgramSchedule:
    kernel = KernelSchedule(graph.name, build_smg(graph), (), None,
                            config=ScheduleConfig.of(block=()))
    return ProgramSchedule(graph.name, [kernel])


def _feeds(graph) -> dict:
    rng = np.random.default_rng(7)
    feeds = {t: rng.uniform(0.5, 2.0, graph.tensors[t].shape(graph.dims))
             for t in graph.input_tensors}
    if "W" in feeds and graph.ops[0].kind == "where_mask":
        feeds["W"] = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    return feeds


class TestEveryComputeKindLowers:
    def test_evaluate_op_knows_no_kind_outside_these_cases(self):
        """The reference evaluator's tables name exactly the IR's compute
        kinds, so the cases below cover everything it can evaluate."""
        assert set(_UNARY_FUNCS) == UNARY_KINDS
        assert set(_BINARY_FUNCS) | {"where_mask"} == BINARY_KINDS
        assert set(_REDUCE_FUNCS) == REDUCE_KINDS
        assert {"rsub", "rdiv", "maximum", "pow"} <= set(_scalar_forms())

    @pytest.mark.parametrize("family,kind", CASES,
                             ids=[f"{f}-{k}" for f, k in CASES])
    @pytest.mark.parametrize("published", [True, False],
                             ids=["published", "arena"])
    def test_plan_equals_evaluate_op_bitwise(self, family, kind, published):
        """The op renders through ``_op_call`` (a CodegenError would fail
        the lowering) and the plan computes evaluate_op's bits."""
        graph = _one_op_graph(family, kind)
        op = graph.ops[0]
        if not published:
            # A consumer after the op sends its result into an arena
            # buffer (``out=``) instead of a fresh published array.
            graph.tensors["Z"] = dataclasses.replace(
                graph.tensors[op.output], name="Z")
            copy = dataclasses.replace(
                op, name="copy", kind="identity", inputs=(op.output,),
                input_axes=(op.output_axes,), output="Z",
                iter_dims=op.output_axes, reduce_dims=(), reduce_kind=None,
                attrs={})
            graph.ops.append(copy)
            graph.validate()
        feeds = _feeds(graph)
        sizes = dict(graph.dims.items())
        expected = evaluate_op(op, dict(feeds), sizes)
        plan = lower_program(_plain_kernel(graph))
        assert plan.kind_counts() == {"vector": 1}
        env = plan.execute(feeds)
        got = env["Y" if published else "Z"]
        assert got.shape == np.shape(expected)
        np.testing.assert_array_equal(got, expected)


def _zoo():
    return [build_model(name, 1, seq=seq)
            for name in ("bert", "albert", "gpt2", "t5", "llama2")
            for seq in (128, 512)] + [build_model("vit", 1)]


class TestLayoutOpsOnlyInBarrierKernels:
    def test_across_the_model_zoo(self):
        kernels = 0
        for program in _zoo():
            model = compile_model_for(program, AMPERE)
            for sub in model.subprograms:
                for kernel in sub.schedule.kernels:
                    kernels += 1
                    kinds = {op.kind for op in kernel.exec_graph.ops}
                    if kernel.meta.get("barrier"):
                        assert len(kernel.exec_graph.ops) == 1
                        assert kinds <= BARRIER_KINDS
                    else:
                        assert not kinds & BARRIER_KINDS, (
                            program.name, kernel.name, kinds)
        assert kernels > 100


def _doctored_schedule():
    """A compiled exp → reshape program whose reshape kernel lost its
    barrier mark: a plain kernel holding an op the emitter cannot
    express."""
    b = GraphBuilder("doctored")
    x = b.input("X", [("m", 8), ("n", 4)])
    e = b.unary("exp", x)
    b.barrier("reshape", e, [("f", 32)], out_name="Y")
    graph = b.build()
    schedule = compile_model_for(program_from_graph(graph),
                                 AMPERE).expanded_schedule()
    kernels = [dataclasses.replace(k, meta={}) if k.meta.get("barrier")
               else k for k in schedule.kernels]
    assert len(kernels) == 2 and not any(k.meta.get("barrier")
                                         for k in kernels)
    return graph, dataclasses.replace(schedule, kernels=kernels)


class TestAnInexpressibleOpIsALoweringError:
    def test_lower_program_raises(self):
        _graph, schedule = _doctored_schedule()
        with pytest.raises(LoweringError, match="reshape"):
            lower_program(schedule)

    def test_a_session_answers_degraded_and_correct(self):
        graph, schedule = _doctored_schedule()
        session = InferenceSession(graph, AMPERE,
                                   compile_fn=lambda: schedule,
                                   plan_cache=PlanCache())
        feeds = {"X": np.random.default_rng(0).standard_normal((8, 4))}
        reply = session.execute(feeds)
        assert reply.degraded and reply.reason == "compile_failed"
        assert session.compile_error.startswith("LoweringError")
        expected = execute_graph_reference(graph, feeds)
        np.testing.assert_array_equal(reply.outputs["Y"], expected["Y"])
        np.testing.assert_allclose(reply.outputs["Y"],
                                   np.exp(feeds["X"]).reshape(32))

    def test_the_session_lowers_once(self, monkeypatch):
        """A deterministic error is not retried: one lowering, no
        backoff, and the first answer is already the degraded one."""
        from repro.runtime import compiled

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return lower_program(*args, **kwargs)

        monkeypatch.setattr(compiled, "lower_program", counting)
        graph, schedule = _doctored_schedule()
        session = InferenceSession(graph, AMPERE,
                                   compile_fn=lambda: schedule,
                                   plan_cache=PlanCache())
        feeds = {"X": np.random.default_rng(0).standard_normal((8, 4))}
        reply = session.execute(feeds)
        assert reply.degraded and reply.reason == "compile_failed"
        assert len(calls) == 1
        assert session.metrics.get("lower.retries") == 0
        assert session.metrics.get("retry.deadline_capped") == 0
        np.testing.assert_array_equal(
            reply.outputs["Y"], execute_graph_reference(graph, feeds)["Y"])
