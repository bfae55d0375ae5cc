"""Tests for the command-line front-end."""

import pytest

from repro.cli import main, make_parser


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_defaults(self):
        args = make_parser().parse_args(["optimize"])
        assert args.model == "sublstm"
        assert args.features == "all"
        assert args.device == "P100"

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["optimize", "--model", "transformer"])


class TestCommands:
    ARGS = ["--model", "sublstm", "--batch", "4", "--seq-len", "2",
            "--features", "F", "--budget", "20"]

    def test_optimize(self, capsys):
        assert main(["optimize", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_optimize_verbose(self, capsys):
        assert main(["optimize", "--verbose", *self.ARGS]) == 0
        assert "chosen configuration" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "--batches", "4,8", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 3

    def test_baselines(self, capsys):
        assert main(["baselines", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "native" in out and "astra" in out
        assert "not applicable" in out  # subLSTM is long-tail

    def test_inspect(self, capsys):
        assert main(["inspect", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "fusion groups" in out

    def test_inspect_with_streams(self, capsys):
        assert main(["inspect", "--features", "FKS", "--model", "sublstm",
                     "--batch", "4", "--seq-len", "2"]) == 0
        assert "stream phase" in capsys.readouterr().out

    def test_no_embedding_flag(self, capsys):
        assert main(["inspect", "--no-embedding", *self.ARGS]) == 0


class TestObservabilityFlags:
    ARGS = ["--model", "sublstm", "--batch", "4", "--seq-len", "2",
            "--features", "F", "--budget", "20"]

    def test_optimize_json(self, capsys):
        import json

        assert main(["optimize", "--json", *self.ARGS]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "sublstm"
        assert doc["convergence_curve"]
        best = [v for _s, v in doc["convergence_curve"]]
        assert best == sorted(best, reverse=True)
        assert all("index_hit_rate" in p for p in doc["phases"])
        assert "profile_index.hit_rate" in doc["metrics"]
        assert doc["speedup_over_native"] > 0

    def test_optimize_metrics_and_report_out(self, capsys, tmp_path):
        import json

        metrics_path = tmp_path / "metrics.json"
        report_path = tmp_path / "run.jsonl"
        assert main(["optimize", "--metrics-out", str(metrics_path),
                     "--report-out", str(report_path), *self.ARGS]) == 0
        assert "speedup" in capsys.readouterr().out  # human output intact
        metrics = json.loads(metrics_path.read_text())
        assert "astra.configs_explored" in metrics["metrics"]
        lines = report_path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert all({"phase", "context", "assignment_delta", "time_us"}
                   <= set(r) for r in records)

    def test_sweep_json(self, capsys):
        import json

        assert main(["sweep", "--json", "--batches", "4,8", *self.ARGS]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["batch"] for row in doc["sweep"]] == [4, 8]
        assert all(row["convergence_curve"] for row in doc["sweep"])

    def test_sweep_runs_the_optimize_search(self, capsys):
        """A sweep row is what ``optimize`` finds on the same arguments,
        in as many mini-batches: both run the fast path (cache and
        pruning).  Without pruning this job explores 302, not 300."""
        import json

        args = ["--model", "milstm", "--seq-len", "1", "--budget", "300"]
        assert main(["optimize", "--json", "--batch", "16", *args]) == 0
        astra = json.loads(capsys.readouterr().out)["astra"]
        assert main(["sweep", "--json", "--batches", "16", *args]) == 0
        (row,) = json.loads(capsys.readouterr().out)["sweep"]
        assert row["configs_explored"] == astra["configs_explored"] == 300
        assert row["astra_time_us"] == astra["best_time_us"]


class TestResilienceFlags:
    ARGS = ["--model", "sublstm", "--batch", "4", "--seq-len", "2",
            "--features", "F", "--budget", "20"]

    def test_optimize_robust(self, capsys):
        assert main(["optimize", "--robust", *self.ARGS]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_optimize_reports_memory(self, capsys):
        assert main(["optimize", *self.ARGS]) == 0
        assert "arena" in capsys.readouterr().out

    def test_preempt_then_resume(self, capsys, tmp_path):
        from repro.faults import FAULT_PREEMPT, FaultPlan

        faults = tmp_path / "faults.json"
        faults.write_text(FaultPlan.single(FAULT_PREEMPT, at=4).dumps())
        ckpt = tmp_path / "ck.json"
        # first run is preempted: exit 3, state saved
        assert main(["optimize", "--faults", str(faults),
                     "--checkpoint", str(ckpt), *self.ARGS]) == 3
        err = capsys.readouterr().err
        assert "preempted at mini-batch 4" in err
        assert ckpt.exists()
        # rerun resumes from the checkpoint and completes
        assert main(["optimize", "--faults", str(faults),
                     "--checkpoint", str(ckpt), *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "faults injected" in out

    def test_faults_flag_injects(self, capsys, tmp_path):
        from repro.faults import FAULT_SLOWDOWN, FaultPlan

        faults = tmp_path / "faults.json"
        faults.write_text(
            FaultPlan.single(FAULT_SLOWDOWN, rate=0.3, factor=4.0).dumps()
        )
        assert main(["optimize", "--robust", "--faults", str(faults),
                     *self.ARGS]) == 0
        assert "slowdown" in capsys.readouterr().out


class TestChaosCommand:
    def test_chaos_sweep_json(self, capsys):
        import json

        assert main(["chaos", "scrnn", "--batch", "4", "--seq-len", "2",
                     "--budget", "30", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        names = [c["name"] for c in doc["cells"]]
        assert names[0] == "clean" and "storm" in names

    def test_chaos_table(self, capsys):
        assert main(["chaos", "scrnn", "--batch", "4", "--seq-len", "2",
                     "--budget", "30"]) == 0
        out = capsys.readouterr().out
        assert "chaos sweep: scrnn" in out
        assert out.strip().endswith("OK")

    def test_chaos_requires_model(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["chaos"])


class TestAnalyzeCommand:
    @pytest.fixture()
    def trace_file(self, tmp_path, capsys):
        out = tmp_path / "sublstm.trace.json"
        assert main(["profile", "sublstm", "--batch", "4", "--seq-len", "2",
                     "--features", "F", "--budget", "20", "-o", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_analyze_defaults(self):
        args = make_parser().parse_args(["analyze", "t.trace.json"])
        assert args.top == 10 and args.device == "P100"
        assert args.scale is None and args.swap is None

    def test_analyze_table(self, trace_file, capsys):
        assert main(["analyze", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "critical" in out

    def test_analyze_json_with_projection(self, trace_file, capsys):
        import json

        assert main(["analyze", str(trace_file), "--json",
                     "--scale", "0:0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_time_us"] > 0
        assert len(doc["projections"]) == 1
        assert doc["projections"][0]["changes"][0]["kind"] == "scale"

    def test_analyze_bad_swap_format_exits(self, trace_file):
        with pytest.raises(SystemExit):
            main(["analyze", str(trace_file), "--swap", "nonsense"])

    def test_analyze_unprojectable_swap_exits(self, trace_file):
        with pytest.raises(SystemExit, match="cannot project"):
            main(["analyze", str(trace_file), "--swap", "0:no_such_library"])


def _run_json(argv: list[str]) -> dict:
    """``main(argv)``'s stdout, parsed as JSON."""
    import contextlib
    import io
    import json

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


class TestProfileCommand:
    ARGS = ["sublstm", "--batch", "4", "--seq-len", "2",
            "--features", "FK", "--budget", "60"]

    @pytest.fixture(scope="class")
    def profiled(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("profile") / "sublstm.trace.json"
        return _run_json(["profile", *self.ARGS, "--json", "-o", str(out)]), out

    def test_profile_trace_document(self, capsys, tmp_path):
        import json

        from repro.obs.trace import PID_GPU, PID_HOST, validate_chrome_trace

        out = tmp_path / "out.trace.json"
        assert main(["profile", "scrnn", "--batch", "8", "--budget", "200",
                     "-o", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        summary = validate_chrome_trace(doc)
        gpu_tracks = {tid for pid, tid in summary["tracks"] if pid == PID_GPU}
        assert len(gpu_tracks) >= 2          # stream adaptation won
        assert (0, 0) in summary["tracks"]   # CPU dispatch track
        gemms = [e for e in doc["traceEvents"]
                 if e["ph"] == "X" and e.get("cat") == "gemm"]
        assert gemms
        assert all({"library", "waves", "unit"} <= set(e["args"]) for e in gemms)
        host = {e["name"] for e in doc["traceEvents"]
                if e["pid"] == PID_HOST and e["ph"] == "X"}
        assert {"explore", "simulate"} <= host

    def test_profile_default_output_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "sublstm", "--batch", "4", "--seq-len", "2",
                     "--features", "F", "--budget", "20", "-o"]) == 0
        assert (tmp_path / "sublstm.trace.json").exists()

    def test_profile_writes_no_trace_without_output(self, capsys, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "sublstm", "--batch", "4", "--seq-len", "2",
                     "--features", "F", "--budget", "20"]) == 0
        assert not list(tmp_path.iterdir())

    def test_profile_table(self, capsys):
        assert main(["profile", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "unattributed" in out         # host time
        assert "critical path" in out        # simulated time
        assert "winner" in out               # why
        assert "ms/mini-batch" in out

    def test_why_is_the_optimize_provenance(self, profiled):
        doc, _out = profiled
        optimized = _run_json([
            "optimize", "--model", *self.ARGS, "--json",
        ])
        why = doc["why"]
        assert why["provenance"] == optimized["astra"]["provenance"]
        assert any(e["event"] == "prune" for e in why["provenance"]["events"])
        assert why["assignment"]
        assert why["best_time_us"] == optimized["astra"]["best_time_us"]

    def test_simulated_is_the_analysis_of_the_trace(self, profiled):
        doc, out = profiled
        analyzed = _run_json(["analyze", str(out), "--json"])
        del analyzed["projections"]
        assert doc["simulated"] == analyzed

    def test_host_phases_are_the_trace_host_slices(self, profiled):
        import json

        from repro.obs.trace import PID_HOST
        from tests.obs.test_observer import _self_times

        doc, out = profiled
        host = doc["host"]
        slices = [
            (e["ts"], e["dur"], e["name"])
            for e in json.loads(out.read_text())["traceEvents"]
            if e["pid"] == PID_HOST and e["ph"] == "X"
        ]
        from_trace = _self_times(slices)
        assert set(from_trace) == set(host["phases"])
        for name, seconds in host["phases"].items():
            assert from_trace[name] == pytest.approx(seconds, rel=1e-6, abs=1e-9)
        assert host["unattributed_s"] == (
            host["wall_s"] - sum(host["phases"].values())
        )

    def test_session_construction_is_the_setup_phase(self, profiled):
        """Building the session (its static analysis under ``enumerate``)
        is timed, so it is not left unattributed."""
        doc, _out = profiled
        phases = doc["host"]["phases"]
        assert phases["setup"] > 0 and phases["enumerate"] > 0
        assert phases["setup"] + phases["enumerate"] < doc["host"]["wall_s"]

    def test_profile_requires_model(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["profile"])

    def test_profile_json_requires_model(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["profile", "--json"])
