"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, WORKLOADS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_inspect_args(self):
        args = build_parser().parse_args(["inspect", "mha", "--dot"])
        assert args.workload == "mha" and args.dot

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "resnet"])

    def test_every_experiment_named(self):
        for exp in ("fig11a", "fig13", "fig14", "table4", "table6"):
            assert exp in EXPERIMENTS


class TestCommands:
    def test_inspect_prints_smg(self, capsys):
        assert main(["inspect", "softmax-gemm"]) == 0
        out = capsys.readouterr().out
        assert "SMG" in out and "A2O chains" in out

    def test_inspect_dot(self, capsys):
        assert main(["inspect", "softmax-gemm", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_tunedb_stats_reports_model_entries(self, capsys, tmp_path):
        from repro.hw import AMPERE
        from repro.models.zoo import build_model
        from repro.pipeline import compile_model_for
        from repro.tune import TuneDB

        compile_model_for(build_model("bert", 1, seq=64), AMPERE,
                          tune_db=TuneDB(tmp_path))
        assert main(["tunedb", "stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "models:         1 entries" in out
        assert main(["tunedb", "prune", str(tmp_path), "--keep", "0"]) == 0
        assert "(0 remain)" in capsys.readouterr().out
        assert TuneDB(tmp_path).disk_stats()["model_entries"] == 0

    def test_compile_reports_schedule(self, capsys):
        assert main(["compile", "softmax-gemm", "--gpu", "volta"]) == 0
        out = capsys.readouterr().out
        assert "modelled cost" in out and "kernel" in out

    def test_compile_pseudocode_flag(self, capsys):
        assert main(["compile", "softmax-gemm", "--pseudocode"]) == 0
        assert "parallel_for" in capsys.readouterr().out

    def test_validate_passes(self, capsys):
        assert main(["validate", "softmax-gemm", "--seed", "3"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bench_runs_small_experiment(self, capsys):
        assert main(["bench", "table4"]) == 0
        assert "Compilation time" in capsys.readouterr().out

    def test_all_workloads_buildable(self):
        for fn in WORKLOADS.values():
            graph = fn()
            assert graph.ops

    def test_compile_cache_dir_miss_then_hit(self, capsys, tmp_path):
        assert main(["compile", "layernorm",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "MISS" in capsys.readouterr().out
        assert main(["compile", "layernorm",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "HIT" in capsys.readouterr().out


class TestValidateCommand:
    def test_nan_output_fails_validation(self, capsys, monkeypatch):
        """Regression: a NaN-producing schedule used to exit 0 because
        ``max(0.0, nan)`` stays 0.0.  The NaN-safe reduction must make
        ``validate`` exit non-zero."""
        import repro.cli as cli

        def nan_engine(schedule, feeds, dtype=np.float64):
            graph = WORKLOADS["softmax-gemm"]()
            from repro.runtime.kernels import execute_graph_reference
            env = {k: np.asarray(v, dtype=np.float64).copy()
                   for k, v in execute_graph_reference(
                       graph, feeds, dtype=dtype).items()}
            next(iter(env.values())).flat[0] = np.nan
            return env

        monkeypatch.setattr(cli, "execute_schedule", nan_engine)
        assert main(["validate", "softmax-gemm"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "nan" in out.lower()

    def test_float32_engine_passes_with_dtype_tolerance(self, capsys):
        assert main(["validate", "softmax-gemm", "--dtype", "float32"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "[float32]" in out

    def test_explicit_tol_overrides_default(self, capsys):
        assert main(["validate", "softmax-gemm", "--dtype", "float32",
                     "--tol", "1e-30"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_validate_parser_flags(self):
        args = build_parser().parse_args(
            ["validate", "mha", "--dtype", "float16", "--tol", "0.5",
             "--engine", "compiled"])
        assert args.dtype == "float16" and args.tol == 0.5
        assert args.engine == "compiled"

    def test_unknown_dtype_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["validate", "mha", "--dtype", "int8"])


class TestAuditCommand:
    def test_audit_smoke_with_selftest_and_json(self, capsys, tmp_path):
        """One small workload end to end: static audit + oracle + seeded
        mutations + JSON report."""
        import json

        out_json = tmp_path / "audit.json"
        assert main(["audit", "--workloads", "mlp", "--gpus", "volta",
                     "--selftest", "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "audit clean" in out
        assert "oracle" in out
        assert "selftest" in out
        payload = json.loads(out_json.read_text())
        assert payload["failures"] == 0
        assert payload["reports"][0]["ok"] is True
        assert payload["reports"][0]["oracle_ok"] is True
        assert payload["reports"][0]["selftest_missed"] == []

    def test_audit_static_only(self, capsys):
        assert main(["audit", "--workloads", "layernorm",
                     "--gpus", "ampere", "--no-oracle"]) == 0
        out = capsys.readouterr().out
        assert "audit clean" in out
        assert "oracle" not in out

    def test_audit_parser_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.oracle is True
        assert args.selftest is False and args.zoo is False
        assert args.workloads is None and args.gpus is None
        assert args.fn is not None

    def test_audit_rejects_unknown_arch(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--gpus", "tpu"])


class TestTraceCommand:
    def test_trace_prints_breakdown(self, capsys):
        assert main(["trace", "layernorm"]) == 0
        out = capsys.readouterr().out
        assert "compile breakdown" in out
        assert "tuning" in out
        assert "total compile time" in out
        assert "raw span totals" in out

    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        """Acceptance: the exported file is loadable trace_event JSON and
        its per-phase durations sum to the reported compile wall time."""
        import json
        import re

        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        assert main(["trace", "mlp", "--chrome-trace", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "chrome trace written" in out
        trace = json.loads(out_path.read_text())
        assert validate_chrome_trace(trace) == []
        assert any(ev["ph"] == "X" for ev in trace["traceEvents"])
        # Tuning dominates the printed breakdown, and the phase rows sum
        # to the reported total (the breakdown is exhaustive).
        total = float(re.search(r"total compile time: ([0-9.]+)s", out)
                      .group(1))
        breakdown_block = out.split("raw span totals")[0]
        rows = re.findall(r"^(\w+)\s+\d+\s+([0-9.]+)s", breakdown_block,
                          re.M)
        phase_sum = sum(float(s) for _name, s in rows)
        assert phase_sum == pytest.approx(total, rel=0.05)
        tuning = next(float(s) for name, s in rows if name == "tuning")
        assert tuning > 0.5 * total

    def test_trace_parser(self):
        args = build_parser().parse_args(
            ["trace", "mha", "--chrome-trace", "/tmp/t.json"])
        assert args.workload == "mha" and args.chrome_trace == "/tmp/t.json"
        assert args.fn is not None


class TestServeCommand:
    def test_serve_demo_reports_stats(self, capsys, tmp_path):
        assert main(["serve", "layernorm", "--requests", "8",
                     "--clients", "4", "--workers", "2",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 wrong answer(s)" in out
        assert "serve-stats" in out
        assert "requests_served" in out
        assert "state=ready" in out
        assert "p95<=" in out                 # percentiles in the report

    def test_serve_counts_nan_reply_as_wrong(self, capsys, monkeypatch):
        """A NaN answer must fail verification (``nan > tol`` is False)."""
        from repro.serve import FusionServer

        real_infer = FusionServer.infer

        def nan_infer(self, workload, feeds, timeout=None):
            reply = real_infer(self, workload, feeds, timeout=timeout)
            reply.outputs = {name: np.full_like(arr, np.nan)
                             for name, arr in reply.outputs.items()}
            return reply

        monkeypatch.setattr(FusionServer, "infer", nan_infer)
        assert main(["serve", "mlp", "--requests", "2",
                     "--clients", "1"]) == 1
        assert "2 wrong answer(s)" in capsys.readouterr().out

    def test_serve_metrics_out_writes_prometheus(self, capsys, tmp_path):
        prom = tmp_path / "metrics.prom"
        assert main(["serve", "layernorm", "--requests", "4",
                     "--clients", "2", "--cache-dir", str(tmp_path / "c"),
                     "--metrics-out", str(prom)]) == 0
        text = prom.read_text()
        assert "# TYPE repro_requests_served counter" in text
        assert "# TYPE repro_request_latency histogram" in text
        assert 'repro_request_latency_bucket{le="+Inf"}' in text

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "mlp"])
        assert args.clients == 4 and args.max_batch == 8
        assert args.fn is not None

    def test_serve_rejects_nonpositive_knobs(self, capsys):
        assert main(["serve", "mlp", "--clients", "0"]) == 2
        assert "--clients" in capsys.readouterr().err
        assert main(["serve", "mlp", "--max-batch", "0"]) == 2
        assert "--max-batch" in capsys.readouterr().err
