"""Tests for the rebuilt ``tacos-repro`` command-line interface."""

import json

import pytest

from repro import cli


class TestList:
    def test_lists_all_registries(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Topologies:" in out and "ring" in out
        assert "Collectives:" in out and "all_gather" in out
        assert "Algorithms:" in out and "tacos" in out
        assert "Experiments:" in out and "fig10" in out

    def test_lists_a_single_section(self, capsys):
        assert cli.main(["list", "algorithms"]) == 0
        out = capsys.readouterr().out
        assert "Algorithms:" in out
        assert "Topologies:" not in out


class TestSynthesize:
    def test_basic_invocation(self, capsys):
        assert cli.main(["synthesize", "--topology", "ring:4", "--collective", "all_gather"]) == 0
        out = capsys.readouterr().out
        assert "tacos" in out and "AllGather" in out and "GB/s" in out

    def test_json_output_is_parseable(self, capsys):
        assert cli.main(
            ["synthesize", "-t", "ring:4", "-c", "all_gather", "-s", "1MB", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "tacos"
        assert payload["num_npus"] == 4
        assert payload["spec"]["collective"]["collective_size"] == 1e6

    def test_algorithm_params_flow_through(self, capsys):
        assert cli.main(
            ["synthesize", "-t", "ring:4", "-c", "all_gather", "-p", "trials=2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["algorithm"]["params"] == {"trials": 2}
        assert payload["extras"]["trials"] == 2

    def test_save_and_reload_spec(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        assert cli.main(
            ["synthesize", "-t", "mesh:2x2", "-c", "all_reduce", "-a", "ring",
             "--save-spec", str(spec_file)]
        ) == 0
        first = capsys.readouterr().out
        assert cli.main(["synthesize", "--spec", str(spec_file)]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_topology_exits_2_with_message(self, capsys):
        assert cli.main(["synthesize", "--topology", "klein_bottle:4"]) == 2
        err = capsys.readouterr().err
        assert "klein_bottle" in err and "ring" in err

    def test_missing_topology_exits_2(self, capsys):
        assert cli.main(["synthesize"]) == 2
        assert "either --topology or --spec" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["nan", "inf", "infMB"])
    def test_non_finite_size_exits_2(self, capsys, size):
        assert cli.main(["synthesize", "-t", "ring:4", "-c", "all_gather", "-s", size]) == 2
        assert "collective size must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("cost", ["NaN", "Infinity"])
    def test_non_finite_link_cost_in_spec_exits_2(self, tmp_path, capsys, cost):
        spec_file = tmp_path / "spec.json"
        assert cli.main(
            ["synthesize", "-t", "ring:2", "-c", "all_gather", "--save-spec", str(spec_file)]
        ) == 0
        capsys.readouterr()
        spec = json.loads(spec_file.read_text())
        spec["topology"] = {
            "name": "custom",
            "params": {"num_npus": 2, "links": [[0, 1, "ALPHA", 1e-11], [1, 0, 1e-6, 1e-11]]},
        }
        spec_file.write_text(json.dumps(spec).replace('"ALPHA"', cost))
        assert cli.main(["synthesize", "--spec", str(spec_file)]) == 2
        err = capsys.readouterr().err
        assert "alpha cost must be finite" in err
        assert "no path" not in err

    def test_two_npu_ring_synthesizes(self, capsys):
        assert cli.main(["synthesize", "-t", "ring:2", "-c", "all_gather"]) == 0
        assert "Ring(2)" in capsys.readouterr().out


class TestSimulateAndSweep:
    def test_simulate_baseline(self, capsys):
        assert cli.main(["simulate", "-t", "ring:4", "-c", "all_reduce", "-a", "ring"]) == 0
        assert "ring AllReduce" in capsys.readouterr().out

    def test_sweep_cross_product(self, capsys):
        assert cli.main(
            ["sweep", "-t", "ring:4", "uni_ring:4", "-a", "ring", "ideal",
             "-c", "all_reduce", "--sizes", "1MB,2MB", "-w", "2"]
        ) == 0
        out = capsys.readouterr().out
        # 2 topologies x 2 algorithms x 2 sizes = 8 data rows (+ header, rule)
        assert len(out.strip().splitlines()) == 10
        assert "UniRing(4)" in out

    def test_sweep_survives_incompatible_cells(self, capsys):
        # RHD requires a power-of-two NPU count; the ring:6 x rhd cell fails
        # but the ring:6 x ring result must still be produced.
        assert cli.main(
            ["sweep", "-t", "ring:6", "-a", "rhd", "ring", "-c", "all_reduce", "--sizes", "1MB"]
        ) == 0
        captured = capsys.readouterr()
        assert "FAILED" in captured.out and "power-of-two" in captured.out
        assert "Ring(6)" in captured.out  # the valid cell's row
        assert "1 of 2" in captured.err

    def test_sweep_all_cells_failing_exits_nonzero(self, capsys):
        assert cli.main(
            ["sweep", "-t", "ring:6", "-a", "rhd", "-c", "all_reduce", "--sizes", "1MB"]
        ) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_list_param_values_parse_as_dims(self, capsys):
        # blueconnect is advertised as "needs dims"; -p dims=2x2 must become [2, 2].
        assert cli.main(
            ["simulate", "-t", "mesh:2x2", "-a", "blueconnect", "-c", "all_reduce",
             "-p", "dims=2x2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["algorithm"]["params"] == {"dims": [2, 2]}
        assert payload["collective_time"] > 0

    def test_sweep_json_with_cache(self, tmp_path, capsys):
        argv = ["sweep", "-t", "ring:4", "-a", "ideal", "-c", "all_reduce",
                "--sizes", "1MB", "--cache-dir", str(tmp_path), "--json"]
        assert cli.main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli.main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert list(tmp_path.glob("*.json"))  # persisted to disk


class TestBench:
    def test_smoke_grid_writes_report(self, tmp_path, capsys):
        assert cli.main(["bench", "--smoke", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "median speedup" in out
        reports = list(tmp_path.glob("BENCH_smoke_*.json"))
        assert len(reports) == 1
        payload = json.loads(reports[0].read_text())
        assert payload["schema"] == "tacos-repro-bench/v7"
        assert payload["summary"]["all_equivalent"] is True
        assert payload["summary"]["all_simulation_equivalent"] is True

    def test_compare_against_previous_report(self, tmp_path, capsys):
        assert cli.main(["bench", "--smoke", "--out", str(tmp_path)]) == 0
        baseline = sorted(tmp_path.glob("BENCH_smoke_*.json"))[0]
        capsys.readouterr()
        assert (
            cli.main(
                ["bench", "--smoke", "--out", str(tmp_path), "--compare", str(baseline)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "compare vs" in out
        assert "median wall-clock ratio" in out

    def test_compare_auto_without_baseline_errors(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no benchmarks/results here
        assert cli.main(["bench", "--smoke", "--out", str(tmp_path), "--compare"]) == 2
        assert "no previous" in capsys.readouterr().err

    def test_compare_detects_regression(self, tmp_path, capsys):
        assert cli.main(["bench", "--smoke", "--out", str(tmp_path)]) == 0
        baseline = sorted(tmp_path.glob("BENCH_smoke_*.json"))[0]
        # An impossible threshold of -100% makes any run a "regression",
        # exercising the non-zero exit path deterministically.
        capsys.readouterr()
        assert (
            cli.main(
                [
                    "bench",
                    "--smoke",
                    "--out",
                    str(tmp_path),
                    "--compare",
                    str(baseline),
                    "--compare-threshold",
                    "-1.0",
                ]
            )
            == 1
        )
        assert "regressed" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        assert cli.main(["bench", "--smoke", "--out", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["grid"] == "smoke"
        assert len(payload["records"]) >= 1

    def test_min_speedup_gate_fails_when_unreachable(self, tmp_path, capsys):
        assert (
            cli.main(["bench", "--smoke", "--out", str(tmp_path), "--min-speedup", "1000"]) == 1
        )
        assert "below" in capsys.readouterr().err


class TestVersionAndHelp:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert "tacos-repro" in capsys.readouterr().out

    def test_no_arguments_prints_help(self, capsys):
        assert cli.main([]) == 0
        assert "synthesize" in capsys.readouterr().out
