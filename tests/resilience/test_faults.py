"""Tests for the failpoint registry: arming, actions, determinism, and
that every registered failpoint has an owner that arms it."""

import itertools
import pathlib
import re
import time

import pytest

# Every module that registers a failpoint site, so ``known()`` is whole.
import repro.cluster.supervisor  # noqa: F401
import repro.cluster.worker  # noqa: F401
import repro.core.autotuner  # noqa: F401
import repro.runtime.compiled  # noqa: F401
import repro.serve  # noqa: F401
import repro.tune.db  # noqa: F401
from repro.resilience import faults
from repro.resilience.faults import (
    FailpointError,
    FailpointRegistry,
    FaultInjected,
    parse_action,
)


_ROOT = pathlib.Path(__file__).resolve().parents[2]
_DOC = _ROOT / "docs" / "resilience.md"
#: The mechanisms the ownership table must cover besides failpoints.
_MECHANISMS = {"session breaker", "restart breaker", "compile retry"}
_OWNER = re.compile(r"`repro chaos( --cluster)?` phase `(\w+)`"
                    r"|`(tests/[\w/]+\.py)((?:::\w+)*)`")


def _table_after(marker: str) -> dict[str, str]:
    """First cell → rest of the row, for the table following ``marker``."""
    lines = _DOC.read_text().splitlines()
    after = lines[lines.index(marker) + 1:]
    table = itertools.takewhile(
        lambda line: line.startswith("|"),
        itertools.dropwhile(lambda line: not line.startswith("|"), after))
    rows = {}
    for line in list(table)[2:]:        # past the header and its rule
        first, *rest = (c.strip() for c in line.strip("|").split("|"))
        rows[first.strip("`")] = " | ".join(rest)
    return rows


class TestSpecParsing:
    def test_fail_variants(self):
        a = parse_action("fail")
        assert a.kind == "fail" and a.remaining is None
        a = parse_action("fail_n_times(3)")
        assert a.remaining == 3 and a.kind == "fail"

    def test_delay_is_milliseconds(self):
        assert parse_action("delay(10)").delay_s == pytest.approx(0.010)
        assert parse_action("delay(0)").delay_s == 0.0

    @pytest.mark.parametrize("bad", [
        "explode", "fail(2)", "fail(-0.5)", "fail(0.3)", "fail(1)",
        "fail_n_times(0)", "fail_n_times(1.5)", "delay(-1)",
        "fail_n_times", "delay",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(FailpointError):
            parse_action(bad)


class TestRegistry:
    def test_arm_unknown_name_rejected(self):
        reg = FailpointRegistry()
        with pytest.raises(FailpointError, match="unknown failpoint"):
            reg.arm("nope", "fail")

    def test_disarmed_fire_is_noop(self):
        reg = FailpointRegistry()
        reg.register("x")
        reg.fire("x")                       # nothing armed: passes
        assert not reg.armed_any

    def test_fail_always(self):
        reg = FailpointRegistry()
        reg.register("x")
        reg.arm("x", "fail")
        with pytest.raises(FaultInjected) as exc:
            reg.fire("x")
        assert exc.value.failpoint == "x"

    def test_fail_n_times_exhausts(self):
        reg = FailpointRegistry()
        reg.register("x")
        reg.arm("x", "fail_n_times(2)")
        for _ in range(2):
            with pytest.raises(FaultInjected):
                reg.fire("x")
        reg.fire("x")                       # third evaluation passes
        assert reg.hits() == {"x": 2}

    def test_delay_sleeps(self):
        reg = FailpointRegistry()
        reg.register("x")
        reg.arm("x", "delay(20)")
        t0 = time.perf_counter()
        reg.fire("x")
        assert time.perf_counter() - t0 >= 0.015

    def test_triggered_returns_instead_of_raising(self):
        reg = FailpointRegistry()
        reg.register("x")
        assert reg.triggered("x") is False
        reg.arm("x", "fail_n_times(1)")
        assert reg.triggered("x") is True
        assert reg.triggered("x") is False   # exhausted

    def test_armed_context_restores(self):
        reg = FailpointRegistry()
        reg.register("a")
        reg.register("b")
        with reg.armed({"a": "fail", "b": "delay(1)"}):
            assert reg.armed_any
            with pytest.raises(FaultInjected):
                reg.fire("a")
        assert not reg.armed_any
        reg.fire("a")                        # disarmed again

    def test_armed_context_disarms_on_error(self):
        reg = FailpointRegistry()
        reg.register("a")
        with pytest.raises(RuntimeError):
            with reg.armed({"a": "fail"}):
                raise RuntimeError("boom")
        assert not reg.armed_any


class TestGlobalSites:
    """The module-level hooks the instrumented call sites use."""

    def test_known_sites_registered_on_import(self):
        known = faults.registry().known()
        assert len(known) == 12
        assert set(_table_after(
            "Registered sites and what arming them simulates:")) == known

    def test_global_fire_zero_cost_when_disarmed(self):
        assert not faults.registry().armed_any
        faults.fire("serve.batch")
        assert faults.triggered("runtime.poison") is False

    def test_global_arm_and_fire(self):
        reg = faults.registry()
        with reg.armed({"serve.batch": "fail_n_times(1)"}):
            with pytest.raises(FaultInjected):
                faults.fire("serve.batch")
            faults.fire("serve.batch")
        faults.fire("serve.batch")


class TestOwnership:
    """docs/resilience.md's "Who exercises what" table is the contract:
    one row per registered failpoint and per retry/breaker mechanism,
    each naming a chaos phase or test that really arms it."""

    def test_one_row_per_site_and_mechanism(self):
        owners = set(_table_after("## Who exercises what"))
        assert owners - _MECHANISMS == faults.registry().known()
        assert _MECHANISMS <= owners

    def test_every_row_is_armed_where_it_says(self):
        from repro.resilience import cluster_chaos
        from repro.resilience.chaos import DEFAULT_FAULT_PLAN, PHASES

        server_plan = {(e["failpoint"], e["phase"])
                       for e in DEFAULT_FAULT_PLAN}
        fleet_src = pathlib.Path(cluster_chaos.__file__).read_text()
        for what, cell in _table_after("## Who exercises what").items():
            owners = list(_OWNER.finditer(cell))
            assert owners, f"{what}: no owner in {cell!r}"
            failpoint = what not in _MECHANISMS
            for m in owners:
                cluster, phase, path, node = m.groups()
                if path is not None:
                    text = (_ROOT / path).read_text()
                    for part in filter(None, node.split("::")):
                        assert re.search(
                            rf"^\s*(class|def) {part}\b", text, re.M), \
                            (what, path, part)
                    if failpoint:
                        assert f'"{what}"' in text, (what, path)
                elif cluster:
                    assert f'run.phase("{phase}"' in fleet_src, (what, phase)
                    if failpoint:
                        assert f'"{what}"' in fleet_src, (what, phase)
                else:
                    assert phase in PHASES, (what, phase)
                    if failpoint:
                        assert (what, phase) in server_plan, (what, phase)
