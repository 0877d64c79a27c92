"""The command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.harness import EXPERIMENTS


class TestRun:
    def test_default_problem(self, capsys):
        rc = main(["run", "--mesh", "16", "--steps", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "step   1" in out
        assert "trace:" in out
        assert "comm:" not in out

    def test_ranked_run_prints_the_exposed_comm(self, capsys):
        deck = Path(__file__).resolve().parents[1] / "decks" / "tea_bm_short.in"
        rc = main(["run", str(deck), "--ranks", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert (
            "comm: 2.0717 ms modelled wire time over 252 synchronous "
            "exchanges, all exposed"
        ) in lines

    def test_with_model_and_solver(self, capsys):
        rc = main(["run", "--mesh", "16", "--steps", "1", "--model", "cuda",
                   "--solver", "ppcg"])
        assert rc == 0
        assert "model=cuda" in capsys.readouterr().out

    def test_deck_file(self, tmp_path, capsys):
        deck = tmp_path / "tea.in"
        deck.write_text(
            "*tea\nstate 1 density=100.0 energy=0.0001\n"
            "state 2 density=0.1 energy=25.0 geometry=rectangle "
            "xmin=0.0 xmax=4.0 ymin=1.0 ymax=8.0\n"
            "x_cells=16\ny_cells=16\nend_step=1\ntl_eps=1e-8\ntl_use_cg\n*endtea"
        )
        rc = main(["run", str(deck)])
        assert rc == 0
        assert "16x16" in capsys.readouterr().out


class TestModels:
    def test_lists_all(self, capsys):
        rc = main(["models"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("cuda", "kokkos", "raja", "opencl", "openmp4", "openacc"):
            assert name in out


class TestStream:
    def test_prints_bandwidths(self, capsys):
        rc = main(["stream"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "K20X" in out and "triad" in out


class TestExperiments:
    def test_single_experiment(self, capsys):
        rc = main(["experiments", "--id", "table1", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "[PASS]" in out

    def test_write_markdown(self, tmp_path, capsys):
        target = tmp_path / "EXP.md"
        rc = main(["experiments", "--id", "table2", "--quick", "--write", str(target)])
        assert rc == 0
        assert target.exists()
        assert "Table 2" in target.read_text()

    def test_id_help_names_every_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiments", "--help"])
        words = set(re.findall(r"\w+", capsys.readouterr().out))
        assert set(EXPERIMENTS) <= words


class TestPlan:
    def test_unhonoured_fuse_is_printed_and_plans_stay_unfused(self, capsys):
        rc = main(["plan", "--model", "openmp4", "--fuse", "--mesh", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "# fuse requested but port 'openmp4' does not support it "
            "(supports_fusion=False); running unfused kernels\n"
        )
        assert "(fuse=off)" in out and "fuse=on" not in out

    def test_fused_plan_names_the_lowered_launches(self, capsys):
        # A fused group always runs compiled, so --fuse prints the lowered
        # steps, each named by the launches it traces.
        rc = main(["plan", "--model", "cuda", "--fuse", "--mesh", "8"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# model=cuda solver=cg mesh=8 codegen"
        assert (
            "  compiled[1] cg_calc_w  { prefix update_halo(p, depth=1); "
            "pw = cg_calc_w()   # reduction; writes w }"
        ) in lines
        assert any(
            line.startswith("  compiled[2] fused:set_field+tea_leaf_init  { ")
            for line in lines
        )


class TestProject:
    def test_breakdown_output(self, capsys):
        rc = main(["project", "--model", "openacc", "--device", "gpu",
                   "--solver", "chebyshev", "--mesh", "512", "--steps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "K20X" in out
        assert "achieved bandwidth" in out
        assert "offload regions" in out

    def test_invalid_device_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["project", "--device", "tpu"])


class TestRoofline:
    def test_all_devices_reported(self, capsys):
        rc = main(["roofline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("ridge at") == 3
        assert "[memory bound]" in out


class TestValidate:
    def test_all_ports_agree(self, capsys):
        rc = main(["validate", "--mesh", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "cuda" in out and "raja" in out


class TestComplexity:
    def test_table_printed(self, capsys):
        rc = main(["complexity"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "opencl" in out and "manual reductions" in out


class TestCampaign:
    def campaign_spec(self, tmp_path):
        """Two real solves, one of them poisoned via a chaos profile."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-test",
            "kind": "solve",
            "axes": {"fault_seed": [1, 2]},
            "defaults": {"mesh": 8, "steps": 1},
            "overrides": [
                {"match": {"fault_seed": 2}, "set": {"chaos": {"fail": "*"}}},
            ],
            "retries": 5,
            "timeout_seconds": 60.0,
            "backoff_base_seconds": 0.0,
            "backoff_jitter": 0.0,
            "max_workers": 1,
        }))
        return spec_path

    def test_launch_resume_status_report_lifecycle(self, tmp_path, capsys):
        spec_path = self.campaign_spec(tmp_path)
        store = tmp_path / "store"

        # launch: --retries 0 overrides the spec's budget of 5, so the
        # poison run burns exactly one attempt; failures exit with 3.
        rc = main(["campaign", "launch", str(spec_path),
                   "--store", str(store), "--retries", "0"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "1 ok, 0 degraded, 1 failed, 0 pending" in out
        assert "FAILED" in out and "campaign continues" in out
        poison_attempts = [
            p for p in store.glob("runs/*/attempts.jsonl")
            if "CampaignChaosError" in p.read_text()
        ]
        assert len(poison_attempts) == 1
        assert len(poison_attempts[0].read_text().splitlines()) == 1

        # status: read-only, exits 0 even with failures on record.
        rc = main(["campaign", "status", str(store)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[ok" in out and "[failed" in out

        # resume: the ok run is reused, the failed run is terminal, and
        # the exit still reports the recorded failures.
        rc = main(["campaign", "resume", str(store), "--retries", "0"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "2 already complete (reused), 0 to execute" in out

        # report: failure manifest named, exits 3, manifest written.
        rc = main(["campaign", "report", str(store)])
        out = capsys.readouterr().out
        assert rc == 3
        assert "failure manifest:" in out
        assert "CampaignChaosError" in out
        assert (store / "manifest.json").exists()

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["campaign", "launch", str(bad),
                     "--store", str(tmp_path / "s")]) == 2
        assert main(["campaign", "launch", "no-such-campaign",
                     "--store", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert "campaign spec invalid" in err

    def test_status_on_missing_store_exits_2(self, tmp_path, capsys):
        rc = main(["campaign", "status", "--store", str(tmp_path / "void")])
        assert rc == 2
        assert "not a campaign store" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])
