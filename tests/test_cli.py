import json
import os

import pytest

from qemc import baselines, core
from qemc.cli import _build_parser, main
from qemc.graphs import (
    EXHAUSTIVE_NODE_CAP,
    complete_graph,
    generate_regular,
    write_edge_list_file,
)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    write_edge_list_file(complete_graph(4), path)
    return str(path)


@pytest.fixture
def no_training(monkeypatch):
    def fail(*args):
        raise AssertionError("trained although the run cannot go ahead")

    monkeypatch.setattr(core, "train", fail)


def _config(path):
    """The resolved configuration embedded in a CSV's ``# config:`` line."""
    line = next(l for l in path.read_text().splitlines() if l.startswith("# config: "))
    return json.loads(line[len("# config: "):])


class TestGenerate:
    def test_k4_edge_list(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["generate", "--nodes", "4", "--degree", "3",
                     "--seed", "1", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 6
        assert "N=4 M=6" in capsys.readouterr().out

    def test_parity_error_exits_1(self, tmp_path, capsys):
        code = main(["generate", "--nodes", "5", "--degree", "3",
                     "--out", str(tmp_path / "g.txt")])
        assert code == 1
        assert "even" in capsys.readouterr().err

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "--nodes", "16", "--degree", "9", "--seed", "7",
              "--out", str(a)])
        main(["generate", "--nodes", "16", "--degree", "9", "--seed", "7",
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSolve:
    def test_k4_reaches_4(self, k4_file, tmp_path, capsys):
        out = tmp_path / "run.json"
        code = main(["solve", "--graph", k4_file, "--layers", "1",
                     "--step-size", "0.99", "--iters", "300", "--seed", "5",
                     "--target", "3.7", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "final best cut: 4" in stdout
        assert "iterations to target 3.7: 1" in stdout
        payload = json.loads(out.read_text())
        assert payload["config"]["optimizer"]["step_size"] == 0.99
        assert payload["version"]

    def test_record_pins_optimizer_config(self, k4_file, tmp_path):
        out = tmp_path / "run.json"
        code = main(["solve", "--graph", k4_file, "--layers", "1", "--step-size",
                     "0.5", "--iters", "2", "--shots", "16", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["config"]["optimizer"] == {
            "step_size": 0.5, "max_iterations": 2, "shots": 16,
            "gradient_mode": "parameter_shift",
            "beta1": 0.9, "beta2": 0.99, "epsilon": 1e-8}

    def test_shots_token_3n2(self, tmp_path):
        graph_path = tmp_path / "g16.txt"
        main(["generate", "--nodes", "16", "--degree", "3", "--seed", "2",
              "--out", str(graph_path)])
        out = tmp_path / "run.json"
        code = main(["solve", "--graph", str(graph_path), "--layers", "1",
                     "--step-size", "0.5", "--iters", "1", "--shots", "3n2",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["optimizer"]["shots"] == 768

    def test_shots_default_to_parameter_shift(self, k4_file, tmp_path):
        out = tmp_path / "run.json"
        code = main(["solve", "--graph", k4_file, "--layers", "1", "--step-size",
                     "0.5", "--iters", "3", "--shots", "16", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["optimizer"]["gradient_mode"] == "parameter_shift"
        # K4: 2 qubits, 1 layer, so P = 6 angles and 1 + 2P executions per step
        assert payload["counters"]["circuit_executions"] == 3 * (1 + 2 * 6)

    def test_grad_analytic_overrides_shots_default(self, k4_file, tmp_path):
        out = tmp_path / "run.json"
        code = main(["solve", "--graph", k4_file, "--layers", "1", "--step-size",
                     "0.5", "--iters", "3", "--shots", "16", "--grad", "analytic",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["optimizer"]["gradient_mode"] == "analytic"
        assert payload["counters"]["circuit_executions"] == 3

    def test_blue_zero_exits_1(self, k4_file, tmp_path):
        code = main(["solve", "--graph", k4_file, "--layers", "1",
                     "--step-size", "0.5", "--iters", "2", "--blue", "0",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_bad_shots_token_exits_1(self, k4_file, tmp_path):
        code = main(["solve", "--graph", k4_file, "--layers", "1",
                     "--step-size", "0.5", "--iters", "2", "--shots", "lots",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_missing_graph_file_exits_2(self, tmp_path):
        code = main(["solve", "--graph", str(tmp_path / "nope.txt"),
                     "--layers", "1", "--step-size", "0.5", "--iters", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_nan_weight_exits_2(self, tmp_path, capsys):
        graph_path = tmp_path / "nan.txt"
        graph_path.write_text("0 1 nan\n1 2\n")
        out = tmp_path / "x.json"
        code = main(["solve", "--graph", str(graph_path), "--layers", "1",
                     "--step-size", "0.5", "--iters", "2", "--out", str(out)])
        assert code == 2
        assert "qemc: error: line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_record_not_written(self, k4_file, tmp_path, capsys,
                                           monkeypatch):
        real = core._cost_terms
        monkeypatch.setattr(core, "_cost_terms",
                            lambda *args: (float("nan"), real(*args)[1]))
        out = tmp_path / "x.json"
        code = main(["solve", "--graph", k4_file, "--layers", "1",
                     "--step-size", "0.5", "--iters", "2", "--out", str(out)])
        assert code == 2
        assert "qemc: error:" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_step_size_exits_1_before_training(self, k4_file, tmp_path, capsys,
                                                   monkeypatch):
        def no_training(*args):
            raise AssertionError("trained with a non-finite step size")

        monkeypatch.setattr(core, "train", no_training)
        out = tmp_path / "x.json"
        code = main(["solve", "--graph", k4_file, "--layers", "1",
                     "--step-size", "nan", "--iters", "2", "--out", str(out)])
        assert code == 1
        assert "qemc: error: step_size" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_trials_zero_exits_1(self, k4_file, tmp_path, capsys):
        code = main(["solve", "--graph", k4_file, "--layers", "1",
                     "--step-size", "0.5", "--iters", "2", "--scan-blue",
                     "--scan-trials", "0", "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "qemc: error: trials must be >= 1" in capsys.readouterr().err

    def test_scan_trials_zero_exits_1_without_scan(self, k4_file, tmp_path, capsys,
                                                   no_training):
        out = tmp_path / "x.json"
        code = main(["solve", "--graph", k4_file, "--layers", "1", "--step-size",
                     "0.5", "--iters", "2", "--scan-trials", "0", "--out", str(out)])
        assert code == 1
        assert "qemc: error: trials must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_zero_exits_1_without_scan(self, k4_file, tmp_path, capsys,
                                            no_training):
        out = tmp_path / "x.json"
        code = main(["solve", "--graph", k4_file, "--layers", "1", "--step-size",
                     "0.5", "--iters", "2", "--jobs", "0", "--out", str(out)])
        assert code == 1
        assert "qemc: error: jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scan", [[], ["--scan-blue", "--scan-trials", "2"]],
                             ids=["train", "scan-blue"])
    def test_jobs_do_not_change_the_output(self, k4_file, tmp_path, scan):
        args = ["solve", "--graph", k4_file, "--layers", "1", "--step-size", "0.5",
                "--iters", "3", "--seed", "4", *scan]
        outputs = []
        for jobs in ([], ["--jobs", "1"], ["--jobs", "2"]):
            out = tmp_path / f"run{len(outputs)}.json"
            assert main(args + jobs + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_rerun_is_bit_identical(self, k4_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["solve", "--graph", k4_file, "--layers", "1", "--step-size",
                "0.9", "--iters", "40", "--seed", "3"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_scan_blue(self, k4_file, tmp_path, capsys):
        code = main(["solve", "--graph", k4_file, "--layers", "1",
                     "--step-size", "0.99", "--iters", "150", "--scan-blue",
                     "--out", str(tmp_path / "scan.json")])
        assert code == 0
        assert "scan selected blue_count=2" in capsys.readouterr().out

    def test_scan_blue_verbose_prints_every_iteration(self, k4_file, tmp_path, capsys):
        code = main(["solve", "--graph", k4_file, "--layers", "1",
                     "--step-size", "0.5", "--iters", "7", "--scan-blue", "--verbose",
                     "--out", str(tmp_path / "scan.json")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("iter ")] == [
            f"iter {k}" for k in range(1, 8)]

    def test_svg_emission(self, k4_file, tmp_path):
        svg_path = tmp_path / "curve.svg"
        main(["solve", "--graph", k4_file, "--layers", "1", "--step-size",
              "0.9", "--iters", "20", "--svg", str(svg_path),
              "--out", str(tmp_path / "r.json")])
        assert svg_path.read_text().startswith("<svg")

    def test_env_seed_fallback(self, k4_file, tmp_path, monkeypatch):
        monkeypatch.setenv("QEMC_SEED", "17")
        out = tmp_path / "env.json"
        main(["solve", "--graph", k4_file, "--layers", "1", "--step-size",
              "0.9", "--iters", "5", "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 17

    def test_bad_env_seed_exits_1(self, k4_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QEMC_SEED", "abc")
        code = main(["solve", "--graph", k4_file, "--layers", "1", "--step-size",
                     "0.9", "--iters", "5", "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "qemc: error: QEMC_SEED" in capsys.readouterr().err


class TestExhaustive:
    def test_prints_optimum_and_witness(self, k4_file, capsys):
        assert main(["exhaustive", "--graph", k4_file]) == 0
        stdout = capsys.readouterr().out
        assert "optimal cut: 4" in stdout
        assert "blue nodes:" in stdout

    def test_cap_exit(self, k4_file):
        assert main(["exhaustive", "--graph", k4_file, "--cap", "3"]) == 1

    def test_cap_defaults_to_the_library_cap(self):
        args = _build_parser().parse_args(["exhaustive", "--graph", "g.txt"])
        assert args.cap == EXHAUSTIVE_NODE_CAP


class TestGw:
    def test_csv_rows(self, k4_file, tmp_path):
        out = tmp_path / "gw.csv"
        assert main(["gw", "--graph", k4_file, "--trials", "10", "--seed", "1",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any("version" in c for c in comments)
        assert data[0] == "trial,cut"
        assert len(data) == 11

    @pytest.mark.parametrize("option", ["--trials", "--hyperplanes"])
    def test_zero_count_exits_1(self, k4_file, tmp_path, capsys, option):
        out = tmp_path / "gw.csv"
        code = main(["gw", "--graph", k4_file, option, "0", "--out", str(out)])
        assert code == 1
        assert "qemc: error:" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.filterwarnings("error")
class TestOverflowingWeights:
    @pytest.fixture
    def big_triangle(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("0 1 1e308\n1 2 1e308\n0 2 1e308\n")
        return str(path)

    def test_gw_exits_2_without_output(self, big_triangle, tmp_path, capsys):
        out = tmp_path / "gw.csv"
        assert main(["gw", "--graph", big_triangle, "--out", str(out)]) == 2
        assert "objective is not finite at iteration 0" in capsys.readouterr().err
        assert not out.exists()

    def test_exhaustive_exits_2(self, big_triangle, capsys):
        assert main(["exhaustive", "--graph", big_triangle]) == 2
        captured = capsys.readouterr()
        assert "best cut is not finite" in captured.err
        assert "optimal cut" not in captured.out

    @pytest.mark.parametrize("command, trial", [("solve", None),
                                                ("grid", "grid/1/0.5/0"),
                                                ("scaling", "scaling/layers/0/1/0")])
    def test_training_exits_2_without_output(self, big_triangle, tmp_path, capsys,
                                             command, trial):
        out = tmp_path / "r.out"
        assert main(_command(command, big_triangle, str(out))) == 2
        err = capsys.readouterr().err
        assert "not finite at iteration 1" in err
        assert trial is None or f"trial {trial} (seed " in err
        assert not out.exists()

    def test_overflowing_step_exits_2_without_output(self, k4_file, tmp_path, capsys):
        out = tmp_path / "over.csv"
        code = main(["grid", "--graph", k4_file, "--layers", "1", "--steps", "1e308",
                     "--trials", "1", "--iters", "3", "--jobs", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "trial grid/1/1e+308/0 (seed " in err
        assert "not finite at iteration 2" in err
        assert not out.exists()


class TestUnusedBadEnvSeed:
    """QEMC_SEED is read only when a seeded subcommand runs without --seed."""

    @pytest.fixture(autouse=True)
    def bad_env_seed(self, monkeypatch):
        monkeypatch.setenv("QEMC_SEED", "abc")

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("qemc ")

    def test_unseeded_subcommand(self, k4_file, capsys):
        assert main(["exhaustive", "--graph", k4_file]) == 0
        assert "optimal cut: 4" in capsys.readouterr().out

    def test_explicit_seed(self, k4_file, tmp_path):
        out = tmp_path / "gw.csv"
        assert main(["gw", "--graph", k4_file, "--trials", "1", "--seed", "3",
                     "--out", str(out)]) == 0
        assert _config(out)["seed"] == 3


class TestGrid:
    def test_nine_cells(self, k4_file, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(["grid", "--graph", k4_file, "--layers", "1,2,3",
                     "--steps", "0.5,0.7,0.9", "--trials", "1", "--iters", "2",
                     "--jobs", "1", "--out", str(out)])
        assert code == 0
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert data[0] == "layers,step_size,trial,final_best_cut"
        assert len(data) == 1 + 9

    @pytest.mark.parametrize("option,value", [("--layers", ""), ("--layers", "1,x"),
                                              ("--steps", ","), ("--steps", "0.5,fast")])
    def test_bad_list_exits_1(self, k4_file, tmp_path, capsys, option, value):
        args = {"--layers": "1", "--steps": "0.5", option: value}
        code = main(["grid", "--graph", k4_file, "--layers", args["--layers"],
                     "--steps", args["--steps"], "--trials", "1", "--iters", "2",
                     "--jobs", "1", "--out", str(tmp_path / "grid.csv")])
        assert code == 1
        assert f"qemc: error: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value,name", [("--layers", "1,1", "layer_values"),
                                                   ("--steps", "0.5,0.9,0.5", "step_values")])
    def test_repeated_value_exits_1_before_training(self, k4_file, tmp_path, capsys,
                                                    no_training, option, value, name):
        args = {"--layers": "1", "--steps": "0.5", option: value}
        out = tmp_path / "grid.csv"
        code = main(["grid", "--graph", k4_file, "--layers", args["--layers"],
                     "--steps", args["--steps"], "--trials", "1", "--iters", "2",
                     "--jobs", "1", "--out", str(out)])
        assert code == 1
        assert f"qemc: error: {name} must not repeat a value" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_trials_exits_1(self, k4_file, tmp_path, capsys):
        code = main(["grid", "--graph", k4_file, "--layers", "1", "--steps", "0.5",
                     "--trials", "0", "--iters", "2", "--jobs", "1",
                     "--out", str(tmp_path / "grid.csv")])
        assert code == 1
        assert "qemc: error: trials_per_cell" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_exits_1_before_training(self, k4_file, tmp_path, capsys,
                                                       no_training, jobs):
        out = tmp_path / "grid.csv"
        code = main(["grid", "--graph", k4_file, "--layers", "1", "--steps", "0.5",
                     "--trials", "1", "--iters", "2", "--jobs", jobs, "--out", str(out)])
        assert code == 1
        assert f"qemc: error: jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()


class TestScaling:
    def test_layers_axis(self, k4_file, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        code = main(["scaling", "--graph", k4_file, "--target", "3.7",
                     "--axis", "layers", "--values", "1,2", "--step-size",
                     "0.99", "--iters", "150", "--trials", "2", "--jobs", "1",
                     "--out", str(out)])
        assert code == 0
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert data[0] == "num_nodes,axis,minimal_value,reached"
        assert data[1].startswith("4,layers,1")

    def test_repeated_value_exits_1_before_training(self, k4_file, tmp_path, capsys,
                                                    no_training):
        out = tmp_path / "scaling.csv"
        code = main(["scaling", "--graph", k4_file, "--target", "3",
                     "--axis", "layers", "--values", "2,2", "--jobs", "1",
                     "--out", str(out)])
        assert code == 1
        assert "qemc: error: axis_values must not repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_trials_exits_1(self, k4_file, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        code = main(["scaling", "--graph", k4_file, "--target", "3",
                     "--axis", "layers", "--values", "1", "--trials", "0",
                     "--jobs", "1", "--out", str(out)])
        assert code == 1
        assert "qemc: error: trials" in capsys.readouterr().err
        assert not out.exists()

    def test_3n2_shots_over_mixed_sizes_exits_1(self, k4_file, tmp_path, capsys,
                                                 no_training):
        g8 = tmp_path / "g8.txt"
        write_edge_list_file(generate_regular(8, 3, seed=1), g8)
        out = tmp_path / "scaling.csv"
        code = main(["scaling", "--graph", k4_file, "--graph", str(g8),
                     "--target", "3", "--target", "8", "--axis", "layers",
                     "--values", "1", "--shots", "3n2", "--trials", "1",
                     "--jobs", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "qemc: error: --shots 3n2" in err
        assert "[4, 8]" in err
        assert not out.exists()

    def test_target_count_mismatch_exits_1(self, k4_file, tmp_path, capsys,
                                           no_training):
        out = tmp_path / "scaling.csv"
        code = main(["scaling", "--graph", k4_file, "--graph", k4_file,
                     "--target", "3", "--axis", "layers", "--values", "1",
                     "--trials", "1", "--jobs", "1", "--out", str(out)])
        assert code == 1
        assert "qemc: error: need exactly one target per graph" in capsys.readouterr().err
        assert not out.exists()

    def test_config_records_resolved_shots(self, k4_file, tmp_path):
        out = tmp_path / "scaling.csv"
        code = main(["scaling", "--graph", k4_file, "--target", "3",
                     "--axis", "layers", "--values", "1", "--shots", "3n2",
                     "--iters", "2", "--trials", "1", "--jobs", "1",
                     "--out", str(out)])
        assert code == 0
        assert _config(out)["shots"] == 48

    def test_iterations_axis_rejects_values(self, k4_file, tmp_path, capsys,
                                            no_training):
        out = tmp_path / "scaling.csv"
        code = main(["scaling", "--graph", k4_file, "--target", "3",
                     "--axis", "iterations", "--values", "0", "--jobs", "1",
                     "--out", str(out)])
        assert code == 1
        assert "qemc: error: the iterations axis" in capsys.readouterr().err
        assert not out.exists()


class TestStudy:
    def test_tiny_study(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        svg_path = tmp_path / "study.svg"
        code = main(["study", "--instances", "1", "--nodes", "8", "--degree",
                     "3", "--layers", "1", "--step-size", "0.9", "--iters", "5",
                     "--qemc-trials", "1", "--gw-trials", "1", "--jobs", "1",
                     "--svg", str(svg_path), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "avg QEMC" in stdout
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(data) == 1 + 4 * 5
        assert svg_path.read_text().startswith("<svg")


    def test_zero_iterations_exits_1(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        code = main(["study", "--instances", "1", "--nodes", "8", "--degree", "3",
                     "--layers", "1", "--step-size", "0.9", "--iters", "0",
                     "--qemc-trials", "1", "--gw-trials", "1", "--jobs", "1",
                     "--out", str(out)])
        assert code == 1
        assert "qemc: error: iterations" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_instances_exits_1(self, tmp_path, capsys):
        code = main(["study", "--instances", "0", "--nodes", "8", "--degree", "3",
                     "--layers", "1", "--step-size", "0.9", "--iters", "5",
                     "--jobs", "1", "--out", str(tmp_path / "study.csv")])
        assert code == 1
        assert "qemc: error: num_instances" in capsys.readouterr().err

    def test_zero_gw_hyperplanes_exits_1_before_training(self, tmp_path, capsys,
                                                         no_training):
        out = tmp_path / "study.csv"
        args = _command("study", "unused", str(out))
        code = main(args + ["--gw-hyperplanes", "0"])
        assert code == 1
        assert "gw_hyperplanes must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def _command(name, graph, out):
    """Argument list for a short run of command ``name`` writing to ``out``."""
    return {
        "solve": ["solve", "--graph", graph, "--layers", "1", "--step-size", "0.5",
                  "--iters", "2", "--out", out],
        "grid": ["grid", "--graph", graph, "--layers", "1", "--steps", "0.5",
                 "--trials", "1", "--iters", "2", "--jobs", "1", "--out", out],
        "scaling": ["scaling", "--graph", graph, "--target", "3", "--axis", "layers",
                    "--values", "1", "--iters", "2", "--trials", "1", "--jobs", "1",
                    "--out", out],
        "study": ["study", "--instances", "1", "--nodes", "8", "--degree", "3",
                  "--layers", "1", "--step-size", "0.9", "--iters", "2",
                  "--qemc-trials", "1", "--gw-trials", "1", "--jobs", "1",
                  "--out", out],
    }[name]


class TestFailingTrial:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_grid_exits_2_naming_the_trial(self, k4_file, tmp_path, capsys, monkeypatch,
                                           jobs):
        def overflow(*args):
            raise FloatingPointError("overflow")

        monkeypatch.setattr(core, "train", overflow)
        out = tmp_path / "grid.csv"
        code = main(["grid", "--graph", k4_file, "--layers", "1", "--steps", "0.5",
                     "--trials", "2", "--iters", "2", "--jobs", jobs, "--out", str(out)])
        assert code == 2
        assert "qemc: error: trial grid/1/0.5/0 (seed " in capsys.readouterr().err
        assert not out.exists()


class TestNotUtf8:
    @pytest.mark.parametrize("command", ["exhaustive", "solve", "grid"])
    def test_exits_2(self, tmp_path, capsys, no_training, command):
        graph = tmp_path / "bad.txt"
        graph.write_bytes(b"0 1\n1 2 \xff\n")
        args = (["exhaustive", "--graph", str(graph)] if command == "exhaustive"
                else _command(command, str(graph), str(tmp_path / "r.out")))
        assert main(args) == 2
        assert "is not UTF-8 text" in capsys.readouterr().err


class TestNonFiniteTarget:
    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["solve", "grid", "scaling"])
    def test_exits_1_before_training(self, k4_file, tmp_path, capsys, no_training,
                                     command, target):
        out = tmp_path / "r.out"
        args = _command(command, k4_file, str(out))
        if "--target" in args:
            del args[args.index("--target"):args.index("--target") + 2]
        assert main(args + [f"--target={target}"]) == 1
        assert "target must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestZeroIterations:
    @pytest.mark.parametrize("command", ["solve", "grid", "scaling"])
    def test_exits_1_before_training(self, k4_file, tmp_path, capsys, no_training,
                                     command):
        out = tmp_path / "r.out"
        args = _command(command, k4_file, str(out))
        args[args.index("--iters") + 1] = "0"
        assert main(args) == 1
        assert "qemc: error: iterations" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_with_svg_exits_1_before_training(self, k4_file, tmp_path, capsys,
                                                    no_training):
        out, chart = tmp_path / "r.json", tmp_path / "r.svg"
        args = _command("solve", k4_file, str(out)) + ["--svg", str(chart)]
        args[args.index("--iters") + 1] = "0"
        assert main(args) == 1
        assert "qemc: error: iterations" in capsys.readouterr().err
        assert not out.exists()
        assert not chart.exists()


class TestOneNodeGraph:
    @pytest.mark.parametrize("command", ["solve", "scaling"])
    def test_exits_1_before_training(self, tmp_path, capsys, no_training, command):
        graph = tmp_path / "one.txt"
        graph.write_text("N 1\n")
        out = tmp_path / "r.out"
        assert main(_command(command, str(graph), str(out))) == 1
        assert "qemc: error: need at least 2 nodes" in capsys.readouterr().err
        assert not out.exists()


class TestOutputPath:
    @pytest.mark.parametrize("command", ["solve", "grid", "study"])
    def test_missing_directory_exits_1_before_training(self, k4_file, tmp_path, capsys,
                                                       no_training, command):
        out = tmp_path / "missing" / "r.out"
        assert main(_command(command, k4_file, str(out))) == 1
        assert "qemc: error: output directory" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["solve", "grid", "study"])
    def test_directory_as_output_exits_1_before_training(self, k4_file, tmp_path, capsys,
                                                         no_training, command):
        assert main(_command(command, k4_file, str(tmp_path))) == 1
        assert "is a directory" in capsys.readouterr().err

    def test_svg_path_checked_before_training(self, k4_file, tmp_path, capsys,
                                              no_training):
        out = tmp_path / "r.json"
        code = main(_command("solve", k4_file, str(out))
                    + ["--svg", str(tmp_path / "missing" / "c.svg")])
        assert code == 1
        assert "qemc: error: output directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "study"])
    def test_svg_naming_the_out_file_exits_1_before_training(self, k4_file, tmp_path,
                                                             capsys, no_training,
                                                             command):
        out = tmp_path / "r.out"
        same = os.path.join(str(tmp_path), ".", "r.out")
        assert main(_command(command, k4_file, str(out)) + ["--svg", same]) == 1
        err = capsys.readouterr().err
        assert "qemc: error: --svg and --out name the same file" in err
        assert not out.exists()

    def test_existing_output_untouched_on_failure(self, tmp_path):
        out = tmp_path / "g.txt"
        out.write_text("keep")
        code = main(["generate", "--nodes", "5", "--degree", "3", "--out", str(out)])
        assert code == 1
        assert out.read_text() == "keep"


class TestUsage:
    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_missing_required_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--nodes", "4"])
        assert info.value.code == 1


class TestOutOfMemory:
    def test_exits_2_without_output(self, k4_file, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr(baselines, "gw", exhausted)
        out = tmp_path / "gw.csv"
        assert main(["gw", "--graph", k4_file, "--out", str(out)]) == 2
        assert "qemc: error: out of memory: Unable to allocate" in capsys.readouterr().err
        assert not out.exists()


# Config keys whose option string is not the key with "_" spelled "-".
_CONFIG_FLAGS = {"graphs": "--graph", "targets": "--target",
                 "num_hyperplanes": "--hyperplanes"}
_REPEATED = {"graphs", "targets"}
_GRID_KEYS = {"graph", "layers", "steps", "trials", "iters", "seed", "blue", "shots",
              "target"}
_SCALING_KEYS = {"graphs", "targets", "axis", "values", "layers", "step_size", "iters",
                 "trials", "seed", "shots"}


def _replay_argv(command, config):
    """The argument list a ``# config:`` line stands for."""
    argv = [command]
    for key, value in config.items():
        flag = _CONFIG_FLAGS.get(key, "--" + key.replace("_", "-"))
        if value is None:
            continue
        if key in _REPEATED:
            argv += [a for v in value for a in (flag, str(v))]
        elif isinstance(value, list):
            argv += [flag, ",".join(map(str, value))]
        else:
            argv += [flag, str(value)]
    return argv


class TestConfigLineReproduces:
    """Re-running a CSV's ``# config:`` line writes the same bytes."""

    @pytest.fixture
    def g8_file(self, tmp_path):
        path = tmp_path / "g8.txt"
        write_edge_list_file(generate_regular(8, 3, seed=1), path)
        return str(path)

    @pytest.mark.parametrize("argv, keys", [
        (["gw", "--graph", "G8", "--trials", "3", "--hyperplanes", "2", "--seed", "4"],
         {"graph", "trials", "num_hyperplanes", "seed"}),
        (["grid", "--graph", "G8", "--layers", "1,2", "--steps", "0.5,0.9",
          "--trials", "2", "--iters", "3", "--shots", "3n2", "--target", "9",
          "--seed", "2"],
         _GRID_KEYS),
        (["grid", "--graph", "G8", "--layers", "2", "--steps", "0.7", "--trials", "1",
          "--iters", "3", "--blue", "3"],
         _GRID_KEYS),
        (["scaling", "--graph", "K4", "--graph", "G8", "--target", "4", "--target", "9",
          "--axis", "layers", "--values", "1,2", "--step-size", "0.9", "--iters", "3",
          "--trials", "2"],
         _SCALING_KEYS),
        (["scaling", "--graph", "G8", "--target", "9", "--axis", "shots",
          "--values", "8,64", "--layers", "1", "--iters", "3", "--trials", "1"],
         _SCALING_KEYS),
        (["scaling", "--graph", "G8", "--target", "9", "--axis", "iterations",
          "--layers", "1", "--iters", "3", "--trials", "2", "--shots", "3n2"],
         _SCALING_KEYS),
        (["study", "--instances", "1", "--nodes", "8", "--degree", "3", "--layers", "1",
          "--step-size", "0.9", "--iters", "3", "--qemc-trials", "2", "--gw-trials", "1",
          "--gw-hyperplanes", "2", "--seed", "5"],
         {"instances", "nodes", "degree", "layers", "step_size", "iters", "qemc_trials",
          "gw_trials", "gw_hyperplanes", "seed"}),
    ], ids=["gw", "grid-3n2", "grid-blue", "scaling-layers", "scaling-shots",
            "scaling-iterations", "study"])
    def test_rerun_is_byte_identical(self, k4_file, g8_file, tmp_path, argv, keys):
        argv = [{"K4": k4_file, "G8": g8_file}.get(a, a) for a in argv]
        command = argv[0]
        jobs = [] if command == "gw" else ["--jobs", "1"]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(argv + jobs + ["--out", str(first)]) == 0
        config = _config(first)
        assert set(config) == keys
        assert main(_replay_argv(command, config) + jobs + ["--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()
