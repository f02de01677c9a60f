"""Chaos harness: a full server run must hold every invariant, and the
harness core (the judging both targets share) is driven without a fork."""

import json
import types

import numpy as np
import pytest

from repro.resilience import faults
from repro.resilience.chaos import (
    CHAOS_WORKLOADS,
    DEADLINE_SLACK_S,
    DEFAULT_FAULT_PLAN,
    ChaosError,
    ChaosReport,
    Invariant,
    Run,
    fault_invariants,
    load_fault_plan,
    run_chaos,
)
from repro.runtime.kernels import execute_graph_reference


@pytest.fixture(autouse=True)
def _clean_registry():
    """A crashed harness must not leave faults armed for other tests."""
    yield
    faults.registry().disarm()


class TestChaosRun:
    def test_full_run_holds_all_invariants(self, tmp_path):
        report_path = tmp_path / "robustness.json"
        report = run_chaos(seed=0, requests=120,
                           report_path=str(report_path))
        assert report.ok, report.render()
        # The canned plan must actually exercise every mechanism.
        assert report.exercised["compile_retries"] >= 1
        assert report.exercised["breaker_cycles"] >= 1
        assert report.exercised["sheds"] >= 1
        assert report.exercised["quarantines"] >= 1
        assert report.exercised["disk_errors"] >= 1
        # Nothing armed survives the run.
        assert not faults.registry().armed_any
        # The written report is valid JSON with the verdict.
        data = json.loads(report_path.read_text())
        assert data["ok"] is True
        assert data["experiment"] == "chaos"
        assert len(data["invariants"]) >= 8

    def test_run_is_seed_deterministic_on_exercise_counts(self):
        a = run_chaos(seed=5, requests=80)
        b = run_chaos(seed=5, requests=80)
        assert a.ok and b.ok
        for key in ("compile_retries", "quarantines",
                    "disk_errors", "breaker_cycles"):
            assert a.exercised[key] == b.exercised[key], key

    def test_no_faults_plan_still_serves_correctly(self):
        report = run_chaos(seed=1, requests=60, fault_plan=[])
        # Invariants about *exercising* faults fail by design (nothing
        # was injected), but correctness invariants must hold.
        by_name = {i.name: i for i in report.invariants}
        assert by_name["answered_exactly_once"].ok
        assert by_name["all_answers_correct"].ok
        assert by_name["drains_clean"].ok
        assert not by_name["retry_exercised"].ok

    def test_unknown_failpoint_in_plan_rejected(self):
        with pytest.raises(ChaosError, match="unknown failpoint"):
            run_chaos(seed=0, requests=60, fault_plan=[
                {"failpoint": "no.such.site", "action": "fail",
                 "phase": "steady"}])

    def test_unknown_workload_rejected(self):
        with pytest.raises(ChaosError, match="unknown chaos workload"):
            run_chaos(workload="resnet")


class TestFaultPlanIO:
    def test_load_bare_list_and_wrapped(self, tmp_path):
        p1 = tmp_path / "bare.json"
        p1.write_text(json.dumps(DEFAULT_FAULT_PLAN))
        assert load_fault_plan(str(p1)) == DEFAULT_FAULT_PLAN
        p2 = tmp_path / "wrapped.json"
        p2.write_text(json.dumps({"faults": DEFAULT_FAULT_PLAN}))
        assert load_fault_plan(str(p2)) == DEFAULT_FAULT_PLAN

    def test_missing_keys_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps([{"failpoint": "runtime.execute"}]))
        with pytest.raises(ChaosError, match="missing"):
            load_fault_plan(str(p))

    def test_bad_phase_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps([{"failpoint": "runtime.execute",
                                  "action": "fail", "phase": "warp"}]))
        with pytest.raises(ChaosError, match="unknown phase"):
            load_fault_plan(str(p))


class Shed(Exception):
    """The fake target's admission-control exception."""


class FakeRequest:
    """A scripted request handle: what ``Run`` sees of a real one."""

    def __init__(self, seq, outputs=None, error=None, resolutions=1,
                 done=True):
        self.seq = seq
        self.outputs = outputs
        self.error = error
        self.resolutions = resolutions
        self._done = done

    def done(self):
        return self._done

    def result(self, timeout=None):
        self._done = True
        if self.error is not None:
            raise self.error
        return types.SimpleNamespace(outputs=self.outputs)


class FakeTarget:
    """``submit`` answers every request from the reference unless the
    next scripted outcome says otherwise."""

    def __init__(self, graph):
        self.graph = graph
        self.script = []        # per-request overrides, consumed in order
        self.seen = 0

    def submit(self, workload, feeds, timeout=None, on_done=None):
        outcome = self.script.pop(0) if self.script else {}
        if outcome.get("shed"):
            raise Shed("queue full")
        self.seen += 1
        outputs = execute_graph_reference(self.graph, feeds)
        if "corrupt" in outcome:
            outputs = {k: outcome["corrupt"](v) for k, v in outputs.items()}
        request = FakeRequest(
            self.seen, outputs, error=outcome.get("error"),
            resolutions=outcome.get("resolutions", 1),
            done=outcome.get("done", True))
        on_done(request)
        return request


@pytest.fixture()
def harness():
    graph = CHAOS_WORKLOADS["mlp"]()
    target = FakeTarget(graph)
    return target, Run(target.submit, Shed, {"mlp": graph}, ref_seeds=3)


class TestRunCore:
    def test_correct_answers_hold_every_verdict(self, harness):
        _target, run = harness
        run.phase("steady", lambda: [run.infer("mlp", i, "steady",
                                               timeout=5.0)
                                     for i in range(5)])
        assert run.request_counts() == {"steady": 5, "submitted": 5,
                                        "shed": 0}
        assert run.exactly_once("once").ok
        assert run.correct("correct").ok
        assert run.on_time("on_time").ok

    def test_phase_expected_failure_is_not_a_violation(self, harness):
        target, run = harness
        target.script = [{"error": TimeoutError("budget spent")},
                         {"error": TimeoutError("budget spent")}]
        run.infer("mlp", 0, "storm", expect=(TimeoutError,))
        assert run.unexpected == [] and run.correct("c").ok
        run.infer("mlp", 1, "steady")           # nothing expected here
        assert len(run.unexpected) == 1
        assert "[steady]" in run.unexpected[0]
        assert "TimeoutError" in run.unexpected[0]
        verdict = run.correct("c")
        assert not verdict.ok and "TimeoutError" in verdict.detail

    def test_reply_past_deadline_plus_slack_is_late(self, harness):
        _target, run = harness
        on_time = run.submit("mlp", 0, "tight", timeout=0.05)
        on_time.done_at = on_time.deadline_wall + DEADLINE_SLACK_S / 2
        run.check(on_time)
        assert run.late == [] and run.on_time("t").ok
        late = run.submit("mlp", 1, "tight", timeout=0.05)
        late.done_at = late.deadline_wall + DEADLINE_SLACK_S + 0.01
        run.check(late)
        assert len(run.late) == 1 and "[tight]" in run.late[0]
        assert not run.on_time("t").ok
        assert run.correct("c").ok          # late, but not wrong

    def test_no_deadline_means_never_late(self, harness):
        _target, run = harness
        flight = run.submit("mlp", 0, "steady")
        flight.done_at += 3600.0
        run.check(flight)
        assert run.late == []

    @pytest.mark.parametrize("corrupt", [
        lambda v: np.full_like(v, np.nan),
        lambda v: v + 1e-6,
    ], ids=["nan", "off-reference"])
    def test_bad_output_lands_in_wrong(self, harness, corrupt):
        target, run = harness
        target.script = [{"corrupt": corrupt}]
        run.infer("mlp", 0, "steady")
        assert len(run.wrong) == 1 and not run.correct("c").ok
        run.infer("mlp", 1, "steady")
        assert len(run.wrong) == 1          # the next answer is judged fresh

    def test_shed_is_tallied_and_returns_none(self, harness):
        target, run = harness
        target.script = [{"shed": True}]
        assert run.infer("mlp", 0, "overload") is None
        assert run.infer("mlp", 0, "overload") is not None
        assert (run.submitted, run.shed, len(run.flights)) == (2, 1, 1)
        assert run.exactly_once("once").ok  # a shed request owes no answer

    def test_duplicate_resolution_fails_exactly_once(self, harness):
        target, run = harness
        target.script = [{}, {"resolutions": 2}]
        run.infer("mlp", 0, "steady")
        run.infer("mlp", 1, "steady")
        verdict = run.exactly_once("once")
        assert not verdict.ok and "multi=[2]" in verdict.detail

    def test_pending_request_fails_exactly_once(self, harness):
        target, run = harness
        target.script = [{"done": False, "resolutions": 0}]
        flight = run.submit("mlp", 0, "drain")
        assert run.unresolved() == [flight.request.seq]
        assert not run.exactly_once("once").ok
        # check_all_pending waits on exactly the unresolved flights.
        flight.request.resolutions = 1
        run.check_all_pending()
        assert run.unresolved() == [] and run.exactly_once("once").ok

    def test_seed_wraps_onto_the_reference_set(self, harness):
        _target, run = harness
        assert run.submit("mlp", 7, "steady").seed == 7 % 3


class TestFaultInvariants:
    TABLE = (("any_retry", (("compile", "lower"),), "{compile}+{lower}"),
             ("both_paths", (("arena",), ("inband",)), "{arena}/{inband}"))

    def test_group_sums_and_all_groups_required(self):
        ok = fault_invariants(
            {"compile": 0, "lower": 2, "arena": 1, "inband": 3}, self.TABLE)
        assert [(i.name, i.ok, i.detail) for i in ok] == [
            ("any_retry", True, "0+2"), ("both_paths", True, "1/3")]
        bad = fault_invariants(
            {"compile": 0, "lower": 0, "arena": 5, "inband": 0}, self.TABLE)
        assert [i.ok for i in bad] == [False, False]


class TestReportMerge:
    """`repro chaos` and `repro chaos --cluster` share one report file."""

    @staticmethod
    def reports():
        server = ChaosReport(
            mode="server", seed=1, sections={"workload": "mlp"},
            requests={"steady": 3}, exercised={"sheds": 1},
            invariants=[Invariant("drains_clean", True)])
        cluster = ChaosReport(
            mode="cluster", seed=2, sections={"workers": 2},
            requests={"warmup": 4}, exercised={"requests_spilled": 1},
            invariants=[Invariant("drains_clean", False, "stranded")])
        return server, cluster

    def test_modes_emit_their_own_keys(self):
        server, cluster = self.reports()
        assert set(server.to_dict()) == {
            "experiment", "seed", "ok", "elapsed_s", "exercised",
            "invariants", "requests", "workload"}
        assert set(cluster.to_dict()) == {
            "experiment", "mode", "seed", "ok", "elapsed_s", "exercised",
            "invariants", "phases", "workers"}
        assert cluster.to_dict()["phases"] == {"warmup": 4}
        assert server.ok and not cluster.ok

    def test_either_write_order_keeps_both_sections(self, tmp_path):
        server, cluster = self.reports()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        server.write(str(a))
        cluster.write(str(a))
        cluster.write(str(b))
        server.write(str(b))
        first, second = json.loads(a.read_text()), json.loads(b.read_text())
        assert first == second
        assert first["cluster"] == cluster.to_dict()
        assert {k: v for k, v in first.items() if k != "cluster"} \
            == server.to_dict()

    def test_rerun_replaces_only_its_own_section(self, tmp_path):
        server, cluster = self.reports()
        path = tmp_path / "r.json"
        server.write(str(path))
        cluster.write(str(path))
        server.seed = 99
        server.write(str(path))
        data = json.loads(path.read_text())
        assert data["seed"] == 99 and data["cluster"]["seed"] == 2

    @pytest.mark.parametrize("junk", ["{not json", "[1, 2, 3]"])
    def test_unreadable_or_non_dict_file_is_replaced(self, tmp_path, junk):
        server, cluster = self.reports()
        for report in (server, cluster):
            path = tmp_path / f"{report.mode}.json"
            path.write_text(junk)
            report.write(str(path))
            data = json.loads(path.read_text())
            assert data["experiment"] == "chaos"
            assert ("cluster" in data) == (report.mode == "cluster")
