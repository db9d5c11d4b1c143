import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdkit import cli, objectives, trainkit
from scdkit.cli import main
from scdkit.corpus import dataset_stats, load_responses
from scdkit.scdmodel import load_checkpoint
from scdkit.synth import make_synthetic, write_synthetic
from conftest import corrupt_member, rewrite_entries, rewrite_meta


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clidata")
    write_synthetic(root, make_synthetic(30, 15, 5, seed=3))
    return root


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "stats", "--responses", "x.csv")
        assert code == 2

    def test_runtime_failure_is_one_with_stderr(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "eval", "--checkpoint", str(tmp_path / "no.npz"),
            "--test", str(tmp_path / "no.csv"),
        )
        assert code == 1
        assert "error:" in err
        assert out == ""


class TestStats:
    def test_matches_dataset(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "stats",
            "--responses", str(data_dir / "responses.csv"),
            "--qmatrix", str(data_dir / "qmatrix.csv"),
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["n_students"] == 30
        assert blob["n_exercises"] == 15
        assert blob["n_concepts"] == 5
        assert blob["n_interactions"] > 0
        assert 0 < blob["density"] <= 1

    def test_a_non_finite_statistic_is_an_error_not_json(self, capsys, data_dir, monkeypatch):
        def nan_density(rs, q):
            return dataclasses.replace(dataset_stats(rs, q), density=float("nan"))

        monkeypatch.setattr(cli, "dataset_stats", nan_density)
        code, out, err = run(
            capsys, "stats",
            "--responses", str(data_dir / "responses.csv"),
            "--qmatrix", str(data_dir / "qmatrix.csv"),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: Out of range float values are not JSON compliant")
        assert err.count("\n") == 1

    def test_min_interactions_filter_shrinks(self, capsys, data_dir):
        _, raw, _ = run(
            capsys, "stats",
            "--responses", str(data_dir / "responses.csv"),
            "--qmatrix", str(data_dir / "qmatrix.csv"),
        )
        code, filtered, _ = run(
            capsys, "stats",
            "--responses", str(data_dir / "responses.csv"),
            "--qmatrix", str(data_dir / "qmatrix.csv"),
            "--min-interactions", "4",
        )
        assert code == 0
        assert json.loads(filtered)["n_students"] < json.loads(raw)["n_students"]

    def test_negative_min_interactions_is_usage_error(self, capsys, data_dir):
        code, out, err = run(
            capsys, "stats",
            "--responses", str(data_dir / "responses.csv"),
            "--qmatrix", str(data_dir / "qmatrix.csv"),
            "--min-interactions", "-1",
        )
        assert code == 2
        assert "--min-interactions" in err and out == ""


def train_args(data_dir, out_dir, *extra):
    return (
        "train",
        "--responses", str(data_dir / "responses.csv"),
        "--qmatrix", str(data_dir / "qmatrix.csv"),
        "--output-dir", str(out_dir),
        "--override", "epochs=3",
        "--override", "min_interactions=1",
        "--override", "train_ratio=0.5",
        *extra,
    )


class TestTrain:
    def test_artifacts_and_stdout(self, capsys, data_dir, tmp_path):
        code, out, _ = run(capsys, *train_args(data_dir, tmp_path))
        assert code == 0
        assert (tmp_path / "checkpoint.npz").exists()
        assert (tmp_path / "train_log.csv").exists()
        assert "checkpoint:" in out and "log:" in out
        log = (tmp_path / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,main,ssl_s,ssl_e,reg,total"
        assert len(log) == 4

    def test_supervised_only_logs_zero_ssl(self, capsys, data_dir, tmp_path):
        code, _, _ = run(
            capsys, *train_args(data_dir, tmp_path, "--override", "mode=supervised-only")
        )
        assert code == 0
        for line in (tmp_path / "train_log.csv").read_text().splitlines()[1:]:
            parts = line.split(",")
            assert float(parts[2]) == 0.0 and float(parts[3]) == 0.0

    def test_config_file_with_flag_overrides(self, capsys, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "epochs": 5, "min_interactions": 1, "train_ratio": 0.5,
            "responses": str(data_dir / "responses.csv"),
            "qmatrix": str(data_dir / "qmatrix.csv"),
            "output_dir": str(tmp_path / "from_cfg"),
        }))
        # --override beats the file: 2 epochs, not 5
        code, _, _ = run(
            capsys, "train", "--config", str(cfg), "--override", "epochs=2"
        )
        assert code == 0
        log = (tmp_path / "from_cfg" / "train_log.csv").read_text().splitlines()
        assert len(log) == 3

    def test_seed_flag_controls_master_seed(self, capsys, data_dir, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for d, seed in ((a, "1"), (b, "1"), (c, "2")):
            code, _, _ = run(capsys, *train_args(data_dir, d, "--seed", seed))
            assert code == 0
        log_a = (a / "train_log.csv").read_bytes()
        assert log_a == (b / "train_log.csv").read_bytes()
        assert log_a != (c / "train_log.csv").read_bytes()

    def test_bad_override_is_usage_error(self, capsys, data_dir, tmp_path):
        code, _, err = run(capsys, *train_args(data_dir, tmp_path, "--override", "nonsense"))
        assert code == 2

    def test_unknown_config_key_is_usage_error(self, capsys, data_dir, tmp_path):
        code, _, err = run(
            capsys, *train_args(data_dir, tmp_path, "--override", "warp_speed=9")
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "pair",
        [
            "tau=0", "checkpoint_every=-1", "dim=0", "learning_rate=-1", "lambda1=-1",
            "lambda2=-1", "train_ratio=1.0", "train_ratio=0", "n_layers=0",
            "min_interactions=-1", "master_seed=-1", "batch_size=1.5", "epochs=2.5",
            "epochs=true", "dim=2.0", "k=NaN", "theta=NaN",
            "tau=Infinity", "k=Infinity", "theta=Infinity",
            "learning_rate=Infinity", "lambda1=Infinity", "lambda2=Infinity",
            "tau=true", "k=true", "p_min=true", "lambda2=false", "tau=1e-3",
        ],
    )
    def test_out_of_range_value_is_refused_before_any_output(
        self, capsys, data_dir, tmp_path, pair
    ):
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, *train_args(data_dir, out_dir, "--override", pair))
        assert code == 2
        assert "error:" in err and out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flag, pair",
        [
            ("--override", "beta1=0.9"), ("--override", "beta2=0.999"),
            ("--override", "adam_eps=1e-8"),
            ("--override", "include_positive=false"), ("--override", "include_positive=true"),
            ("--config", "include_positive=false"), ("--config", "include_positive=true"),
            # values once out of range: refused as unknown keys, whatever the value
            ("--override", "beta1=1.0"), ("--override", "beta2=1.5"),
            ("--override", "beta1=-0.1"), ("--override", "adam_eps=0"),
            ("--override", "adam_eps=Infinity"), ("--override", "include_positive=no"),
            ("--override", "include_positive=0.5"), ("--override", "include_positive=2"),
            ("--override", "include_positive=null"),
        ],
    )
    def test_retired_keys_are_unknown_keys_refused_before_any_output(
        self, capsys, data_dir, tmp_path, flag, pair
    ):
        key, _, value = pair.partition("=")
        if flag == "--config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: json.loads(value)}), encoding="utf-8")
            pair = str(config)
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, *train_args(data_dir, out_dir, flag, pair))
        assert code == 2 and out == ""
        assert f"error: unknown config keys: ['{key}']" in err
        assert not out_dir.exists()

    def test_oversized_field_names_its_line(self, capsys, data_dir, tmp_path):
        huge = "0" * (csv.field_size_limit() + 1)
        text = (data_dir / "responses.csv").read_text(encoding="utf-8")
        (tmp_path / "responses.csv").write_text(f"{text}s1,e1,{huge}\n", encoding="utf-8")
        (tmp_path / "qmatrix.csv").write_bytes((data_dir / "qmatrix.csv").read_bytes())
        n_lines = text.count("\n") + 1
        code, out, err = run(capsys, *train_args(tmp_path, tmp_path / "run"))
        assert code == 1 and out == ""
        assert f"error: line {n_lines}: field larger than field limit" in err

    def test_resume_of_a_finished_run_is_refused_before_any_output(
        self, capsys, data_dir, trained, tmp_path
    ):
        out_dir = tmp_path / "run"
        code, out, err = run(
            capsys,
            *train_args(data_dir, out_dir, "--resume", str(trained / "checkpoint.npz")),
        )
        assert code == 2 and out == ""
        assert "checkpoint already at epoch 3 >= epochs 3" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("config", [1], "meta config must be a JSON object"),
            ("epoch", "x", "meta epoch must be a non-negative integer"),
            ("step", -5, "meta step must be a non-negative integer"),
        ],
    )
    def test_resume_from_a_garbled_meta_field_names_the_file(
        self, capsys, data_dir, trained, tmp_path, field, value, message
    ):
        path = tmp_path / "checkpoint.npz"
        rewrite_meta(trained / "checkpoint.npz", path, lambda meta: meta.update({field: value}))
        out_dir = tmp_path / "run"
        code, out, err = run(
            capsys,
            *train_args(data_dir, out_dir, "--override", "epochs=6", "--resume", str(path)),
        )
        assert code == 1 and out == ""
        assert err == f"error: {path}: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, index, value",
        [
            ("p__student_emb", (3, 1), np.inf),
            ("p__b_predict", 0, np.nan),
            ("v__attn0_e2s", 0, -np.inf),
        ],
    )
    def test_resume_from_a_non_finite_array_names_the_file(
        self, capsys, data_dir, trained, tmp_path, key, index, value
    ):
        path = tmp_path / "checkpoint.npz"
        rewrite_entries(trained / "checkpoint.npz", path, key, value, index)
        out_dir = tmp_path / "run"
        code, out, err = run(
            capsys,
            *train_args(data_dir, out_dir, "--override", "epochs=6", "--resume", str(path)),
        )
        assert code == 1 and out == ""
        assert err == f"error: {path}: array {key} holds a non-finite value\n"
        assert not out_dir.exists()

    def test_resume_mismatch_is_usage_error(self, capsys, data_dir, trained, tmp_path):
        out_dir = tmp_path / "run"
        code, _, err = run(
            capsys,
            *train_args(
                data_dir, out_dir, "--override", "epochs=6", "--override", "n_layers=3",
                "--resume", str(trained / "checkpoint.npz"),
            ),
        )
        assert code == 2
        assert "n_layers" in err
        assert not out_dir.exists()

    def test_oversized_batch_is_refused_before_any_output(
        self, capsys, data_dir, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(objectives, "INFONCE_MAX_ROWS", 2)
        monkeypatch.setattr(trainkit, "INFONCE_MAX_ROWS", 2)
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, *train_args(data_dir, out_dir))
        assert code == 2 and out == ""
        assert "the contrastive loss takes at most 2" in err
        assert not out_dir.exists()


def config_args(command, data_dir, out_dir, config):
    if command == "train":
        return (*train_args(data_dir, out_dir), "--config", str(config))
    return (
        "viewgen-audit", "--config", str(config),
        "--responses", str(data_dir / "responses.csv"),
        "--qmatrix", str(data_dir / "qmatrix.csv"), "--draws", "5",
    )


@pytest.mark.parametrize("command", ["train", "viewgen-audit"])
class TestConfigFile:
    def test_malformed_json_is_a_usage_error_naming_file_line_and_column(
        self, capsys, data_dir, tmp_path, command
    ):
        config = tmp_path / "cfg.json"
        config.write_text('{"epochs": 2,\n "tau" 0.5}\n', encoding="utf-8")
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, *config_args(command, data_dir, out_dir, config))
        assert code == 2 and out == ""
        assert err == f"error: {config}: line 2 column 8: Expecting ':' delimiter\n"
        assert not out_dir.exists()

    def test_a_json_list_is_a_usage_error_naming_the_file(
        self, capsys, data_dir, tmp_path, command
    ):
        config = tmp_path / "cfg.json"
        config.write_text("[1, 2]", encoding="utf-8")
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, *config_args(command, data_dir, out_dir, config))
        assert code == 2 and out == ""
        assert f"error: {config}: a config file must hold a JSON object" in err
        assert not out_dir.exists()

    def test_a_config_that_is_not_utf8_is_a_usage_error_naming_the_file(
        self, capsys, data_dir, tmp_path, command
    ):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'\xff{"epochs": 2}')
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, *config_args(command, data_dir, out_dir, config))
        assert code == 2 and out == ""
        assert err == f"error: {config}: not UTF-8 text at byte 0\n"
        assert not out_dir.exists()

    def test_a_missing_config_file_is_a_runtime_failure(
        self, capsys, data_dir, tmp_path, command
    ):
        out_dir = tmp_path / "run"
        config = tmp_path / "absent.json"
        code, out, err = run(capsys, *config_args(command, data_dir, out_dir, config))
        assert code == 1 and out == ""
        assert "absent.json" in err
        assert not out_dir.exists()


@pytest.fixture(scope="module")
def trained(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = main(list(train_args(data_dir, out)))
    assert code == 0
    return out


class TestEvalAndDiagnose:
    def test_eval_prints_report_and_writes_files(self, capsys, trained, tmp_path):
        code, out, _ = run(
            capsys, "eval",
            "--checkpoint", str(trained / "checkpoint.npz"),
            "--test", str(trained / "test.csv"),
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        blob = json.loads(out)
        assert set(blob) >= {"acc", "rmse", "acc50", "rmse50", "per_group"}
        assert json.loads((tmp_path / "report.json").read_text()) == blob
        with open(tmp_path / "per_student.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        with open(trained / "test.csv", newline="") as fh:
            test_ids = {row[0] for row in list(csv.reader(fh))[1:]}
        assert header == ["student", "train_interactions", "acc", "rmse"]
        assert sorted(row[0] for row in rows) == sorted(test_ids)
        assert (tmp_path / "per_group.csv").read_text().startswith("bucket,")

    def test_diagnose_emits_csv(self, capsys, trained, data_dir):
        ckpt = load_checkpoint(trained / "checkpoint.npz")
        s = ckpt.student_keys[0]
        e = ckpt.exercise_keys[0]
        code, out, _ = run(
            capsys, "diagnose",
            "--checkpoint", str(trained / "checkpoint.npz"),
            "--students", s, "--exercises", e,
            "--test", str(trained / "test.csv"),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"concept,mastery:{s},difficulty:{e}"

    def test_diagnose_id_lists_strip_spaces(self, capsys, trained):
        ckpt = load_checkpoint(trained / "checkpoint.npz")
        s0, s1 = ckpt.student_keys[:2]
        e0, e1 = ckpt.exercise_keys[:2]
        code, out, err = run(
            capsys, "diagnose",
            "--checkpoint", str(trained / "checkpoint.npz"),
            "--students", f"{s0}, {s1}", "--exercises", f" {e0} ,{e1},",
        )
        assert code == 0, err
        header = f"concept,mastery:{s0},mastery:{s1},difficulty:{e0},difficulty:{e1}"
        assert out.splitlines()[0] == header

    def test_diagnose_names_an_id_that_holds_a_comma(self, capsys, data_dir, tmp_path):
        with open(data_dir / "responses.csv", newline="") as src:
            rows = [["a,b" if row[0] == "s1" else row[0], *row[1:]] for row in csv.reader(src)]
        with open(tmp_path / "responses.csv", "w", newline="") as dst:
            csv.writer(dst).writerows(rows)
        (tmp_path / "qmatrix.csv").write_text((data_dir / "qmatrix.csv").read_text())
        assert run(capsys, *train_args(tmp_path, tmp_path / "run"))[0] == 0
        code, out, err = run(
            capsys, "diagnose",
            "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
            "--students", 's0,"a,b"', "--exercises", "e0",
        )
        assert code == 0, err
        header = next(csv.reader(out.splitlines()))
        assert header == ["concept", "mastery:s0", "mastery:a,b", "difficulty:e0"]

    def test_diagnose_unknown_id_fails(self, capsys, trained):
        code, _, err = run(
            capsys, "diagnose",
            "--checkpoint", str(trained / "checkpoint.npz"),
            "--students", "ghost", "--exercises", "e0",
        )
        assert code == 1
        assert "unknown student" in err

    def test_diagnose_ids_that_are_not_utf8_are_a_usage_error(self, capsys, trained):
        code, out, err = run(
            capsys, "diagnose",
            "--checkpoint", str(trained / "checkpoint.npz"),
            "--students", os.fsdecode(b"s\xff"), "--exercises", "e0",
        )
        assert code == 2 and out == ""
        assert "--students must be UTF-8 text" in err


# what each file makes `eval` and `diagnose` print after "error: <path>: "
NOT_A_CHECKPOINT = {
    "csv": "not an scdkit checkpoint",
    "npz without meta": "not an scdkit checkpoint",
    "meta without counts": "damaged checkpoint (KeyError: 'counts')",
    "bad CRC-32": "damaged checkpoint (BadZipFile: Bad CRC-32",
    "student id too large": "se_edges names id 999 in its first column, outside [0, ",
    "negative concept id": "ec_edges names id -1 in its second column, outside [0, ",
    "extra student key": "meta student_keys must be 30 distinct strings",
    "repeated student key": "meta student_keys must be 30 distinct strings",
    "all-NaN w_predict": "array p__w_predict holds a non-finite value",
    "float pair list": "array se_edges has dtype float64, expected integers",
    "wrong-shape pair list": "array se_edges has shape (10, 3), expected (n, 2)",
}


@pytest.mark.parametrize("kind", list(NOT_A_CHECKPOINT))
class TestNotACheckpoint:
    """A file that is not a checkpoint, or a damaged one, is named in one line."""

    @pytest.fixture
    def path(self, trained, tmp_path, kind):
        if kind == "csv":
            return trained / "test.csv"
        path = tmp_path / "arrays.npz"
        if kind == "npz without meta":
            np.savez(path, p__student_emb=np.zeros((2, 2)))
        elif kind == "bad CRC-32":
            path.write_bytes((trained / "checkpoint.npz").read_bytes())
            corrupt_member(path, "p__student_emb.npy")
        elif kind == "extra student key":
            rewrite_meta(trained / "checkpoint.npz", path, lambda m: m["student_keys"].append("x"))
        elif kind == "repeated student key":

            def repeat(meta):
                meta["student_keys"][1] = meta["student_keys"][0]

            rewrite_meta(trained / "checkpoint.npz", path, repeat)
        elif kind == "all-NaN w_predict":
            rewrite_entries(trained / "checkpoint.npz", path, "p__w_predict", np.nan)
        else:
            with np.load(trained / "checkpoint.npz") as data:
                arrays = {k: data[k] for k in data.files}
            meta = json.loads(str(arrays["meta"]))
            if kind == "student id too large":  # the last pair: still sorted
                arrays["se_edges"][-1, 0] = 999
            elif kind == "float pair list":  # the ids truncate back to the stored ones
                arrays["se_edges"] = arrays["se_edges"] + 0.4
            elif kind == "negative concept id":  # the first pair: still sorted
                arrays["ec_edges"][0, 1] = -1
            elif kind == "wrong-shape pair list":
                arrays["se_edges"] = np.zeros((10, 3), dtype=np.intp)
            else:
                del meta["counts"]
            np.savez(path, **{**arrays, "meta": np.array(json.dumps(meta))})
        return path

    def assert_named(self, err, path, kind):
        assert err.startswith(f"error: {path}: {NOT_A_CHECKPOINT[kind]}")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "pickle" not in err

    def test_eval(self, capsys, trained, tmp_path, path, kind):
        out_dir = tmp_path / "report"
        code, out, err = run(
            capsys, "eval", "--checkpoint", str(path), "--test", str(trained / "test.csv"),
            "--output-dir", str(out_dir),
        )
        assert code == 1 and out == ""
        self.assert_named(err, path, kind)
        assert not out_dir.exists()

    def test_diagnose(self, capsys, trained, path, kind):
        ckpt = load_checkpoint(trained / "checkpoint.npz")
        code, out, err = run(
            capsys, "diagnose", "--checkpoint", str(path),
            "--students", ckpt.student_keys[0], "--exercises", ckpt.exercise_keys[0],
        )
        assert code == 1 and out == ""
        self.assert_named(err, path, kind)


class TestScoringReadsNoOptimizerState:
    @pytest.fixture(scope="class")
    def bare(self, trained, tmp_path_factory):
        """The trained checkpoint with every Adam moment array deleted."""
        with np.load(trained / "checkpoint.npz") as data:
            assert any(k.startswith(("m__", "v__")) for k in data.files)
            arrays = {k: data[k] for k in data.files if not k.startswith(("m__", "v__"))}
        path = tmp_path_factory.mktemp("bare") / "checkpoint.npz"
        np.savez(path, **arrays)
        return path

    def test_eval_report_is_unchanged(self, capsys, trained, bare, tmp_path):
        outputs = []
        for ckpt in (trained / "checkpoint.npz", bare):
            out_dir = tmp_path / ckpt.parent.name
            code, out, err = run(
                capsys, "eval", "--checkpoint", str(ckpt),
                "--test", str(trained / "test.csv"), "--output-dir", str(out_dir),
            )
            assert code == 0, err
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            outputs.append((out, files))
        assert outputs[0] == outputs[1]
        assert set(outputs[0][1]) == {"report.json", "per_student.csv", "per_group.csv"}

    def test_diagnose_output_is_unchanged(self, capsys, trained, bare):
        keys = load_checkpoint(trained / "checkpoint.npz")
        outputs = []
        for ckpt in (trained / "checkpoint.npz", bare):
            code, out, err = run(
                capsys, "diagnose", "--checkpoint", str(ckpt),
                "--students", ",".join(keys.student_keys[:3]),
                "--exercises", ",".join(keys.exercise_keys[:2]),
                "--test", str(trained / "test.csv"),
            )
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1] and "\n\n" in outputs[0]


def ascii_locale_env() -> dict:
    """The environment of a subprocess whose locale, argv and stdio are ASCII."""
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return env


class TestEncodings:
    def test_config_with_a_byte_order_mark(self, capsys, data_dir, tmp_path):
        outputs = []
        for name, mark in (("plain.json", ""), ("marked.json", "\ufeff")):
            config = tmp_path / name
            config.write_text(mark + json.dumps({"k": 2.0, "min_interactions": 1}), "utf-8")
            code, out, err = run(
                capsys, "viewgen-audit", "--config", str(config),
                "--responses", str(data_dir / "responses.csv"),
                "--qmatrix", str(data_dir / "qmatrix.csv"), "--draws", "5",
            )
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_eval_of_a_test_file_with_a_byte_order_mark(self, capsys, trained, tmp_path):
        marked = tmp_path / "test.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (trained / "test.csv").read_bytes())
        reports = []
        for test in (trained / "test.csv", marked):
            code, out, err = run(
                capsys, "eval", "--checkpoint", str(trained / "checkpoint.npz"),
                "--test", str(test),
            )
            assert code == 0, err
            reports.append(out)
        assert reports[0] == reports[1]

    def test_non_ascii_ids_under_an_ascii_locale(self, data_dir, tmp_path):
        # inputs are read and outputs written as UTF-8 whatever the locale says
        text = (data_dir / "responses.csv").read_text().replace("s1,", "s\u00e91,")
        (tmp_path / "responses.csv").write_text(text, encoding="utf-8")
        (tmp_path / "qmatrix.csv").write_text((data_dir / "qmatrix.csv").read_text())
        env = ascii_locale_env()
        argvs = [
            train_args(tmp_path, tmp_path / "run", "--override", "epochs=1"),
            (
                "eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                "--test", str(tmp_path / "run" / "test.csv"),
                "--output-dir", str(tmp_path / "eval"),
            ),
        ]
        for argv in argvs:
            proc = subprocess.run(
                [sys.executable, "-m", "scdkit.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        run_dir = tmp_path / "run"
        written = (run_dir / "train.csv").read_bytes() + (run_dir / "test.csv").read_bytes()
        assert "s\u00e91,".encode("utf-8") in written
        assert "s\u00e91" in load_checkpoint(run_dir / "checkpoint.npz").student_keys
        per_student = (tmp_path / "eval" / "per_student.csv").read_bytes()
        assert "s\u00e91,".encode("utf-8") in per_student

    def test_diagnose_finds_a_non_ascii_id_under_an_ascii_locale(
        self, capsys, data_dir, tmp_path
    ):
        # argv is decoded with the locale's codec; the ids are matched as UTF-8
        text = (data_dir / "responses.csv").read_text().replace("s1,", "s\u00e91,")
        (tmp_path / "responses.csv").write_text(text, encoding="utf-8")
        (tmp_path / "qmatrix.csv").write_text((data_dir / "qmatrix.csv").read_text())
        code, _, err = run(capsys, *train_args(tmp_path, tmp_path / "run"))
        assert code == 0, err
        proc = subprocess.run(
            [
                sys.executable, "-m", "scdkit.cli", "diagnose",
                "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                "--students", "s\u00e91", "--exercises", "e1",
            ],
            env=ascii_locale_env(), capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        header = "concept,mastery:s\u00e91,difficulty:e1\n".encode("utf-8")
        assert proc.stdout.startswith(header)


class TestViewgenAudit:
    def test_table_shape_and_monotonicity(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "viewgen-audit",
            "--responses", str(data_dir / "responses.csv"),
            "--qmatrix", str(data_dir / "qmatrix.csv"),
            "--draws", "50", "--seed", "0",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "degree,importance,retention_p,empirical"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) >= 2
        degrees = [int(r[0]) for r in rows]
        assert degrees == sorted(degrees)
        ps = [float(r[2]) for r in rows]
        for earlier, later in zip(ps, ps[1:]):
            assert later <= earlier + 1e-12
        for r in rows:
            assert 0.0 <= float(r[3]) <= 1.0

    def test_seed_reproducibility(self, capsys, data_dir):
        argv = (
            "viewgen-audit",
            "--responses", str(data_dir / "responses.csv"),
            "--qmatrix", str(data_dir / "qmatrix.csv"),
            "--draws", "20", "--seed", "7",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize(
        "pair",
        [
            "k=0", "theta=-1", "p_min=x", "min_interactions=x", "k=NaN", "theta=NaN",
            "min_interactions=true", "min_interactions=2.7", "thetaa=5",
            "k=Infinity", "theta=Infinity", "k=true", "tau=1e-3",
        ],
    )
    def test_bad_config_value_is_usage_error(self, capsys, data_dir, pair):
        code, out, err = run(
            capsys, "viewgen-audit",
            "--responses", str(data_dir / "responses.csv"),
            "--qmatrix", str(data_dir / "qmatrix.csv"),
            "--override", pair, "--draws", "5",
        )
        assert code == 2
        assert "error:" in err and out == ""

    @pytest.mark.parametrize(
        "flag, pair",
        [("--override", "master_seed=-1"), ("--override", "master_seed=true"),
         ("--config", "master_seed=-1")],
    )
    def test_a_master_seed_train_refuses_is_refused(
        self, capsys, data_dir, tmp_path, flag, pair
    ):
        # --seed (default 0) seeds the audit's draws; it does not replace master_seed
        if flag == "--config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"master_seed": -1}), encoding="utf-8")
            pair = str(config)
        code, out, err = run(
            capsys, "viewgen-audit",
            "--responses", str(data_dir / "responses.csv"),
            "--qmatrix", str(data_dir / "qmatrix.csv"),
            flag, pair, "--draws", "5",
        )
        assert code == 2 and out == ""
        assert "error:" in err and "master_seed" in err

    def test_negative_draws_is_usage_error(self, capsys, data_dir):
        code, out, err = run(
            capsys, "viewgen-audit",
            "--responses", str(data_dir / "responses.csv"),
            "--qmatrix", str(data_dir / "qmatrix.csv"),
            "--draws", "-3",
        )
        assert code == 2
        assert "--draws" in err and out == ""


# ids as the loaders leave them: stripped and non-empty; commas, quotes,
# spaces and any printable unicode inside
ID = (
    st.text(
        st.one_of(st.sampled_from(',"\' '), st.characters(blacklist_categories=("Cc", "Cs"))),
        min_size=1,
        max_size=6,
    )
    .map(str.strip)
    .filter(bool)
)


def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def csv_line(ids):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(ids)
    return buf.getvalue()


class TestIdsRoundTrip:
    @settings(max_examples=8, deadline=None)
    @given(
        students=st.lists(ID, min_size=3, max_size=3, unique=True),
        exercises=st.lists(ID, min_size=3, max_size=3, unique=True),
        concepts=st.lists(ID, min_size=2, max_size=2, unique=True),
    )
    def test_ids_survive_train_eval_and_diagnose(self, students, exercises, concepts):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            with open(root / "responses.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("student", "exercise", "score"))
                for i, s in enumerate(students):
                    writer.writerows((s, e, (i + j) % 2) for j, e in enumerate(exercises))
            with open(root / "qmatrix.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("exercise", "concept"))
                writer.writerows((e, concepts[j % 2]) for j, e in enumerate(exercises))
            code, _, err = call(
                "train",
                "--responses", str(root / "responses.csv"),
                "--qmatrix", str(root / "qmatrix.csv"),
                "--output-dir", str(root / "run"),
                "--override", "epochs=1",
                "--override", "min_interactions=1",
                "--override", "train_ratio=0.5",
            )
            assert code == 0, err
            run = root / "run"
            ckpt = load_checkpoint(run / "checkpoint.npz")
            keys = ckpt.student_keys, ckpt.exercise_keys, ckpt.concept_keys
            assert keys == (tuple(students), tuple(exercises), tuple(concepts))
            split_rows = [
                row for name in ("train.csv", "test.csv")
                for row in csv_rows((run / name).read_text())[1:]
            ]
            assert {row[0] for row in split_rows} == set(students)
            assert {row[1] for row in split_rows} == set(exercises)

            code, _, err = call(
                "eval",
                "--checkpoint", str(run / "checkpoint.npz"),
                "--test", str(run / "test.csv"),
                "--output-dir", str(root / "eval"),
            )
            assert code == 0, err
            test_students = {row[0] for row in csv_rows((run / "test.csv").read_text())[1:]}
            per_student = csv_rows((root / "eval" / "per_student.csv").read_text())[1:]
            assert {row[0] for row in per_student} == test_students

            code, out, err = call(
                "diagnose",
                "--checkpoint", str(run / "checkpoint.npz"),
                f"--students={csv_line(students)}",
                f"--exercises={csv_line(exercises)}",
                "--test", str(run / "test.csv"),
            )
            assert code == 0, err
            concept_table, outcomes = out.split("\n\n")
            header, *rows = csv_rows(concept_table)
            assert header == [
                "concept",
                *(f"mastery:{s}" for s in students),
                *(f"difficulty:{e}" for e in exercises),
            ]
            assert [row[0] for row in rows] == concepts
            outcome_rows = csv_rows(outcomes)[1:]
            assert {row[0] for row in outcome_rows} == test_students
            assert {row[1] for row in outcome_rows} <= set(exercises)

    def test_an_id_holding_a_lone_cr_survives_train_eval_and_diagnose(self, data_dir, tmp_path):
        # the loaders read with newline="", where an unquoted CR ends a row
        cr_id = "a\rb"
        with open(data_dir / "responses.csv", newline="") as src:
            rows = [[cr_id if row[0] == "s1" else row[0], *row[1:]] for row in csv.reader(src)]
        with open(tmp_path / "responses.csv", "w", newline="") as dst:
            csv.writer(dst).writerows(rows)  # CRLF lines quote the id
        (tmp_path / "qmatrix.csv").write_text((data_dir / "qmatrix.csv").read_text())
        run_dir = tmp_path / "run"
        code, _, err = call(*train_args(tmp_path, run_dir))
        assert code == 0, err
        train, test = (load_responses(run_dir / name) for name in ("train.csv", "test.csv"))
        assert cr_id in train.student_keys and cr_id in test.student_keys
        assert len(train) + len(test) == len(load_responses(tmp_path / "responses.csv"))

        code, _, err = call(
            "eval",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--test", str(run_dir / "test.csv"),
            "--output-dir", str(tmp_path / "eval"),
        )
        assert code == 0, err
        with open(tmp_path / "eval" / "per_student.csv", newline="", encoding="utf-8") as fh:
            header, *per_student = csv.reader(fh)
        assert {len(row) for row in per_student} == {len(header)}
        assert {row[0] for row in per_student} == set(test.student_keys)

        answered = test.exercises[test.students == test.student_keys.index(cr_id)]
        exercises = [test.exercise_keys[e] for e in answered]
        code, out, err = call(
            "diagnose",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--students", f'"{cr_id}",s0', "--exercises", ",".join(exercises),
            "--test", str(run_dir / "test.csv"),
        )
        assert code == 0, err
        concept_table, outcomes = (io.StringIO(t, newline="") for t in out.split("\n\n"))
        assert next(csv.reader(concept_table))[:3] == ["concept", f"mastery:{cr_id}", "mastery:s0"]
        header, *outcome_rows = csv.reader(outcomes)
        assert {row[0] for row in outcome_rows} >= {cr_id}
        assert {len(row) for row in outcome_rows} == {len(header)}
