"""Command-line interface: subcommands, machine output, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from protofilter import load_csv
from protofilter.cli import main

SMALL_SYNTH = {
    "class_count": 4,
    "dim": 3,
    "per_class_count": 10,
    "mean_scale": 5.0,
    "anisotropy": [1.0, 1.0, 1.0],
    "rotation_seed": 1,
    "sample_seed": 2,
}


@pytest.fixture
def synth_json(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(SMALL_SYNTH))
    return str(path)


def run(args):
    return main(args)


class TestEval:
    def test_eval_on_preset(self, capsys):
        code = run(["eval", "--synth", "separable", "--way", "3", "--shot", "2",
                    "--query", "2", "--episodes", "4", "--filter", "zero"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("name")
        assert "1.0000" in out

    def test_json_record_keys(self, tmp_path, synth_json, capsys):
        out_path = tmp_path / "report.json"
        code = run(["eval", "--synth", synth_json, "--way", "3", "--shot", "2",
                    "--query", "2", "--episodes", "3", "--filter", "tikhonov",
                    "--rho", "0.1", "--json", str(out_path)])
        assert code == 0
        records = json.loads(out_path.read_text())
        assert isinstance(records, list) and len(records) == 1
        assert list(records[0]) == [
            "name", "way", "shot", "episodes", "kernel", "filter",
            "lambda_policy", "accuracy_mean", "ci95", "mean_loss", "seed",
        ]
        assert records[0]["lambda_policy"] == "relative=0.1"
        capsys.readouterr()

    def test_rbf_kernel_flag(self, synth_json, capsys):
        code = run(["eval", "--synth", synth_json, "--way", "3", "--shot", "2",
                    "--query", "2", "--episodes", "2", "--kernel", "rbf",
                    "--filter", "tikhonov", "--lambda", "1"])
        assert code == 0
        assert "rbf" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["tikhonov", "tsvd"])
    def test_one_shot_relative_shrinkage(self, synth_json, kind, capsys):
        # a 1-shot class resolves lambda = 0 and has only a zero eigenvalue
        code = run(["eval", "--synth", synth_json, "--way", "3", "--shot", "1",
                    "--query", "2", "--episodes", "3", "--filter", kind, "--rho", "0.1"])
        assert code == 0
        assert kind in capsys.readouterr().out


class TestCompare:
    def test_two_methods(self, synth_json, tmp_path, capsys):
        out_path = tmp_path / "cmp.json"
        code = run(["compare", "--synth", synth_json, "--way", "3", "--shot", "2",
                    "--query", "2", "--episodes", "3",
                    "--method", "proto:identity:zero:none",
                    "--method", "shrunk:identity:tikhonov:relative=0.1",
                    "--json", str(out_path)])
        assert code == 0
        records = json.loads(out_path.read_text())
        assert [r["name"] for r in records] == ["proto", "shrunk"]
        capsys.readouterr()

    def test_missing_method_is_config_error(self, synth_json, capsys):
        code = run(["compare", "--synth", synth_json, "--episodes", "2"])
        assert code == 2
        capsys.readouterr()

    def test_bad_method_spec_is_config_error(self, synth_json, capsys):
        code = run(["compare", "--synth", synth_json, "--episodes", "2",
                    "--method", "broken"])
        assert code == 2
        capsys.readouterr()


class TestSweep:
    def test_default_grid(self, synth_json, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        code = run(["sweep", "--synth", synth_json, "--way", "3", "--shot", "2",
                    "--query", "2", "--episodes", "2", "--filter", "tikhonov",
                    "--json", str(out_path)])
        assert code == 0
        records = json.loads(out_path.read_text())
        assert [r["name"] for r in records] == [
            "lambda=0.01", "lambda=0.1", "lambda=1", "lambda=10", "lambda=100",
        ]
        capsys.readouterr()

    def test_custom_grid(self, synth_json, capsys):
        code = run(["sweep", "--synth", synth_json, "--way", "3", "--shot", "2",
                    "--query", "2", "--episodes", "2", "--filter", "tikhonov",
                    "--lambdas", "0.5,2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda=0.5" in out and "lambda=2" in out


class TestSynthDump:
    def test_round_trip(self, tmp_path, synth_json, capsys):
        out_path = tmp_path / "dump.csv"
        code = run(["synth-dump", "--synth", synth_json, "--out", str(out_path)])
        assert code == 0
        ds = load_csv(out_path)
        assert len(ds) == 40
        assert ds.dim == 3
        capsys.readouterr()


class TestTrain:
    def test_writes_embedding_file(self, tmp_path, synth_json, capsys):
        out_path = tmp_path / "weights.csv"
        code = run(["train", "--synth", synth_json, "--steps", "2",
                    "--batch-episodes", "2", "--filter", "tikhonov", "--lambda", "1",
                    "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("zeta,")
        assert len(lines) == 4  # zeta + 3 weight rows
        assert "initial_loss" in capsys.readouterr().out


class TestExitCodes:
    def test_missing_dataset_file_is_data_error(self, capsys):
        code = run(["eval", "--data", "/nonexistent/file.csv", "--episodes", "2",
                    "--filter", "zero"])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_invalid_zeta_is_config_error(self, synth_json, capsys):
        code = run(["eval", "--synth", synth_json, "--way", "3", "--shot", "2",
                    "--query", "2", "--episodes", "2", "--filter", "zero",
                    "--zeta", "-1"])
        assert code == 2
        capsys.readouterr()

    def test_unknown_preset_is_config_error(self, capsys):
        code = run(["eval", "--synth", "bogus-preset", "--episodes", "2",
                    "--filter", "zero"])
        assert code == 2
        capsys.readouterr()

    def test_tikhonov_lambda_zero_is_numerical_error(self, synth_json, capsys):
        # the centered Gram always has a zero eigenvalue, so gamma + lambda = 0
        code = run(["eval", "--synth", synth_json, "--way", "3", "--shot", "2",
                    "--query", "2", "--episodes", "2", "--filter", "tikhonov",
                    "--lambda", "0"])
        assert code == 4
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("shot", ["1", "2"])
    def test_tsvd_lambda_zero_is_config_error(self, synth_json, shot, capsys):
        code = run(["eval", "--synth", synth_json, "--way", "3", "--shot", shot,
                    "--query", "2", "--episodes", "2", "--filter", "tsvd", "--lambda", "0"])
        assert code == 2
        assert "method 'eval': truncated-SVD" in capsys.readouterr().err

    @pytest.mark.parametrize("shot", ["1", "2"])
    def test_train_tsvd_lambda_zero_is_config_error(self, shot, capsys):
        code = run(["train", "--synth", "reference", "--shot", shot, "--steps", "1",
                    "--batch-episodes", "1", "--filter", "tsvd", "--lambda", "0", "--dout", "2"])
        assert code == 2
        assert "method 'train': truncated-SVD" in capsys.readouterr().err

    @pytest.mark.parametrize("command, code, message", [
        # the first failing method in list order decides the exit code
        (["compare", "--method", "proto:identity:zero:none",
          "--method", "tik0:identity:tikhonov:none",
          "--method", "tsvd0:identity:tsvd:none"], 4, "episode 0: class 0"),
        (["compare", "--method", "proto:identity:zero:none",
          "--method", "tsvd0:identity:tsvd:relative=0",
          "--method", "tik0:identity:tikhonov:none"], 2, "method 'tsvd0'"),
        (["compare", "--way", "5", "--method", "proto:identity:zero:none",
          "--method", "tsvd0:identity:tsvd:none"], 3, "episode 0: dataset has 4 classes"),
        (["sweep", "--filter", "tikhonov", "--lambdas", "1,0"], 4, "episode 0: class 0"),
        (["sweep", "--filter", "tsvd", "--lambdas", "0.5,0"], 2, "method 'lambda=0'"),
    ])
    def test_failing_method_lists(self, synth_json, command, code, message, capsys):
        shape = ["--synth", synth_json, "--shot", "2", "--query", "2", "--episodes", "2"]
        if "--way" not in command:
            shape += ["--way", "3"]
        assert run(command + shape) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("anisotropy", ["x", 1], "anisotropy entries must be numbers"),
        ("class_count", 3.5, "class_count must be an integer"),
    ])
    def test_bad_synth_json_is_config_error(self, tmp_path, field, value, message, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL_SYNTH, field: value}))
        code = run(["eval", "--synth", str(path), "--way", "2", "--shot", "2",
                    "--query", "1", "--episodes", "2", "--filter", "zero"])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_non_finite_zeta_is_config_error(self, synth_json, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = run(["eval", "--synth", synth_json, "--way", "3", "--shot", "2",
                    "--query", "2", "--episodes", "2", "--filter", "zero",
                    "--zeta", "inf", "--json", str(out_path)])
        assert code == 2
        assert "zeta must be finite" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--zeta0", "initial zeta must be finite"),
        ("--lr", "learning_rate must be finite"),
    ])
    def test_train_non_finite_scaling_is_config_error(self, synth_json, flag, message, capsys):
        code = run(["train", "--synth", synth_json, "--steps", "1", "--batch-episodes", "1",
                    "--filter", "tikhonov", "--lambda", "1", flag, "inf"])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_train_has_no_zeta_flag(self, synth_json, capsys):
        # train scales by --zeta0; --zeta is an evaluation flag, not an abbreviation
        with pytest.raises(SystemExit) as exc:
            run(["train", "--synth", synth_json, "--steps", "1", "--filter", "tikhonov",
                 "--lambda", "1", "--zeta", "50"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --zeta" in capsys.readouterr().err

    def test_missing_policy_is_config_error(self, synth_json, capsys):
        code = run(["eval", "--synth", synth_json, "--episodes", "2",
                    "--filter", "tikhonov"])
        assert code == 2
        capsys.readouterr()

    def test_argparse_rejects_unknown_flag(self, synth_json):
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--synth", synth_json, "--bogus"])
        assert exc.value.code == 2


class TestModuleEntryPoint:
    def test_python_dash_m(self, synth_json):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "protofilter", "eval", "--synth", synth_json,
             "--way", "3", "--shot", "2", "--query", "2", "--episodes", "2",
             "--filter", "zero"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("name")
