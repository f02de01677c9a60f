"""A cold compile prices only the cuts that can win (section 5.3).

``make_compiler`` hands the compiler ``DeviceSimulator.region_time_bound``:
a partition candidate whose parts' bounds already reach the incumbent's
time is skipped before any part is compiled.  The skip changes nothing
only if no part can ever take less than its bound, float for float, so
these tests compare every schedule with and without the bound, check the
bound against every part the compiler prices, and show with an
inadmissible bound that the comparison can fail.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.compiler import _contraction_segments
from repro.core.serialize import schedule_to_json
from repro.hw import AMPERE, HOPPER, VOLTA
from repro.hw.simulator import DeviceSimulator
from repro.ir.program import TensorProgram
from repro.pipeline import make_compiler
from tests.core.test_resources import SUBGRAPHS, zoo_programs
from tests.test_fuzz_compile import random_graph

GPUS = [VOLTA, AMPERE, HOPPER]


def _items() -> list:
    return [*zoo_programs(), *(build() for build in SUBGRAPHS.values())]


def _jsons(compiler, item) -> list[str]:
    if isinstance(item, TensorProgram):
        return [schedule_to_json(sub.schedule)
                for sub in compiler.compile_model(item).subprograms]
    return [schedule_to_json(compiler.compile_graph(item)[0])]


def _compiler(gpu, bound="real", priced=None):
    """``make_compiler(gpu)`` with its bound kept (``"real"``) or replaced
    (``None``: every candidate is priced) and, given ``priced``, every
    region it compiles appended there with the time it returned."""
    compiler = make_compiler(gpu)
    if bound != "real":
        compiler.time_bound = bound
    if priced is not None:
        real = compiler._compile_region

        def compile_region(graph, *args, **kwargs):
            t = real(graph, *args, **kwargs)
            priced.append((graph, t))
            return t

        compiler._compile_region = compile_region
    return compiler


@pytest.fixture(scope="module", params=GPUS, ids=lambda g: g.name)
def compiled(request):
    """``(gpu, with bound, without, parts priced with, parts priced
    without)`` over the zoo and the seven subgraphs."""
    gpu = request.param
    items = _items()
    pruned, full = [], []
    bounded = _compiler(gpu, priced=pruned)
    unbounded = _compiler(gpu, None, priced=full)
    return (gpu, [_jsons(bounded, item) for item in items],
            [_jsons(unbounded, item) for item in items], pruned, full)


class TestTheBoundMovesNoSchedule:
    def test_zoo_and_subgraphs(self, compiled):
        _gpu, with_bound, without, pruned, full = compiled
        assert with_bound == without
        # The bound did skip work: fewer regions were compiled.
        assert len(pruned) < len(full)

    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large,
                                     HealthCheck.filter_too_much])
    @given(graph=random_graph())
    def test_fuzzed_graphs(self, graph):
        for gpu in GPUS:
            priced = []
            assert _jsons(_compiler(gpu), graph) == \
                _jsons(_compiler(gpu, None, priced), graph)
            bound = DeviceSimulator(gpu).region_time_bound
            for part, t in priced:
                assert t >= bound(part), (gpu.name, part.name)


class TestTheBoundIsAdmissible:
    def test_every_priced_part_takes_at_least_its_bound(self, compiled):
        gpu, _with, _without, _pruned, full = compiled
        bound = DeviceSimulator(gpu).region_time_bound
        cut_parts = 0
        for part, t in full:
            assert t >= bound(part), part.name
            cut_parts += ".c" in part.name
        # Cuts were priced, and some part's time is its bound exactly:
        # the comparison runs at the edge the skip relies on.
        assert cut_parts >= 10
        assert any(t == bound(part) for part, t in full)

    def test_an_inadmissible_bound_moves_a_schedule(self):
        """Twice the real bound skips a cut that wins, so the identity
        tests above can fail."""
        def moved(gpu):
            bound = DeviceSimulator(gpu).region_time_bound
            doubled = _compiler(gpu, lambda g: 2 * bound(g))
            unbounded = _compiler(gpu, None)
            return any(_jsons(doubled, item) != _jsons(unbounded, item)
                       for item in _items())

        assert any(map(moved, GPUS))


def test_a_one_group_split_is_never_compiled():
    """A region that is a single contraction-headed segment (a GEMM and
    its epilogue) offers no contraction split: its one part would be the
    region compiled again."""
    compiler = make_compiler(AMPERE)
    compiler.time_bound = None  # price every cut that is offered
    real = compiler._compile_region
    enclosing, one_segment = [], []

    def compile_region(graph, *args, **kwargs):
        ops = {op.name for op in graph.ops}
        assert not enclosing or ops != enclosing[-1], graph.name
        n_contractions = sum(op.is_contraction for op in graph.ops)
        if (not enclosing and n_contractions
                and len(graph.ops) > n_contractions
                and len(_contraction_segments(graph)) == 1):
            one_segment.append(graph.name)
        enclosing.append(ops)
        try:
            return real(graph, *args, **kwargs)
        finally:
            enclosing.pop()

    compiler._compile_region = compile_region
    for item in _items():
        _jsons(compiler, item)
    assert one_segment
