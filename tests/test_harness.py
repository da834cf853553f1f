import csv
import hashlib
import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from tawt_lab import harness
from tawt_lab.harness import (
    EXIT_CONFIG,
    EXIT_IO,
    ConfigError,
    cmd_generate,
    cmd_report,
    cmd_run,
    example_config,
    load_config,
    main,
    parse_config,
)
from tawt_lab.taskgen import load_dataset, save_dataset_csv


def tiny_config(out_dir, **kw):
    raw = {
        "schema_version": 1,
        "master_seed": 11,
        "seeds": [0, 1],
        "out_dir": str(out_dir),
        "family": {
            "base_n": 60, "input_dim": 10, "n_classes": 4,
            "teacher_hidden": 96, "teacher_epochs": 400, "teacher_lr": 3e-3,
            "teacher_batch": 30,
            "flip_grid": [0.0, 1.0], "source_n": 200, "target_sizes": [40],
            "eval_n": 200,
        },
        "train": {
            "hidden": 32, "epochs": 4, "batch_size": 20, "lr": 1e-3,
            "finetune_epochs": 3, "metrics_every": 0,
        },
        "arms": [
            {"name": "single", "overrides": {"paradigm": "single"}},
            {
                "name": "adaptive",
                "source_flips": [0.0, 1.0],
                "overrides": {"paradigm": "joint", "weighted": True, "subset_size": 16},
            },
            {
                "name": "fixed",
                "source_flips": [0.0, 1.0],
                "overrides": {"paradigm": "joint"},
            },
        ],
    }
    raw.update(kw)
    return raw


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestConfigParsing:
    def test_example_config_parses(self):
        parse_config(example_config())

    def test_malformed_json_has_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1,,}')
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_unknown_train_field_named(self, tmp_path):
        raw = tiny_config(tmp_path / "out")
        raw["train"]["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config(raw)

    def test_bad_paradigm_reported_with_arm(self, tmp_path):
        raw = tiny_config(tmp_path / "out")
        raw["arms"][0]["overrides"]["paradigm"] = "osmosis"
        with pytest.raises(ConfigError, match=r"arms\[0\]"):
            parse_config(raw)

    def test_empty_arms_rejected(self, tmp_path):
        raw = tiny_config(tmp_path / "out")
        raw["arms"] = []
        with pytest.raises(ConfigError, match="arms"):
            parse_config(raw)

    def test_source_flip_must_be_in_grid(self, tmp_path):
        raw = tiny_config(tmp_path / "out")
        raw["arms"][1]["source_flips"] = [0.5]
        with pytest.raises(ConfigError, match="flip"):
            parse_config(raw)

    def test_duplicate_arm_names_rejected(self, tmp_path):
        raw = tiny_config(tmp_path / "out")
        raw["arms"][1]["name"] = "single"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(raw)

    def test_cli_reports_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "run", "distance"])
    def test_cli_reports_teacher_fit_failure(self, tmp_path, capsys, command):
        raw = tiny_config(tmp_path / "out")
        raw["family"]["teacher_epochs"] = 1
        path = write_config(tmp_path, raw)
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "accuracy after 1 epochs" in err


class TestGenerate:
    def test_generate_then_cache_hit(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "out"))
        out = Path(cfg.out_dir)
        first = cmd_generate(cfg, out)
        assert not first["cache_hit"]
        manifest_bytes = (out / "family" / "manifest.json").read_bytes()
        second = cmd_generate(cfg, out)
        assert second["cache_hit"]
        assert (out / "family" / "manifest.json").read_bytes() == manifest_bytes

    def test_creates_missing_directories(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "deep" / "nested" / "out"))
        cmd_generate(cfg, Path(cfg.out_dir))
        assert (Path(cfg.out_dir) / "family" / "seed0" / "target_train.npz").exists()

    def test_manifest_lists_all_files_with_hashes(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "out"))
        result = cmd_generate(cfg, Path(cfg.out_dir))
        files = result["manifest"]["files"]
        assert len(files) == 2 * (2 + 2)  # 2 seeds x (2 target files + 2 sources)
        assert all(len(digest) == 64 for digest in files.values())

    def test_family_bytes_are_reproducible(self, tmp_path, monkeypatch):
        def family_bytes(out):
            family = out / "family"
            return {
                p.relative_to(family): p.read_bytes() for p in family.rglob("*") if p.is_file()
            }

        first = parse_config(tiny_config(tmp_path / "a"))
        cmd_generate(first, Path(first.out_dir))
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 86400.0)  # another day
        second = parse_config(tiny_config(tmp_path / "b"))
        cmd_generate(second, Path(second.out_dir))
        a, b = family_bytes(tmp_path / "a"), family_bytes(tmp_path / "b")
        assert len(a) == 1 + 2 * 4 and a == b

    def test_family_in_csv_layout_is_regenerated(self, tmp_path):
        """A family cached as CSVs, under a manifest with the same config key,
        is regenerated to the same datasets instead of failing every job."""
        cfg = parse_config(tiny_config(tmp_path / "out"))
        out = Path(cfg.out_dir)
        family = out / "family"
        manifest = cmd_generate(cfg, out)["manifest"]
        binary = {relpath: (family / relpath).read_bytes() for relpath in manifest["files"]}
        csv_files = {}
        for relpath in binary:
            csv_path = (family / relpath).with_suffix(".csv")
            save_dataset_csv(load_dataset(family / relpath), csv_path)
            (family / relpath).unlink()
            digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            csv_files[str(csv_path.relative_to(family))] = digest
        manifest["files"] = csv_files
        (family / "manifest.json").write_text(json.dumps(manifest))

        result = cmd_run(cfg, out)
        assert result["n_jobs"] == 6 and result["n_failed"] == 0
        regenerated = json.loads((family / "manifest.json").read_text())["files"]
        assert sorted(regenerated) == sorted(binary)
        assert all((family / relpath).read_bytes() == data for relpath, data in binary.items())


class TestRun:
    def test_row_count_and_schema(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "out"))
        result = cmd_run(cfg, Path(cfg.out_dir))
        assert result["n_failed"] == 0
        rows = list(csv.DictReader(open(result["summary"])))
        assert len(rows) == 3 * 2  # arms x seeds (one target size)
        assert list(rows[0]) == [
            "arm", "seed", "target_size", "ratio", "flip_rate",
            "final_target_acc", "final_target_loss", "error", "timestamp",
        ]

    def test_adaptive_eta_zero_matches_fixed_arm(self, tmp_path):
        raw = tiny_config(tmp_path / "out")
        raw["arms"] = [
            {
                "name": "adaptive-eta0",
                "source_flips": [0.0, 1.0],
                "overrides": {
                    "paradigm": "joint", "weighted": True, "eta": 0.0, "subset_size": 16
                },
            },
            {
                "name": "fixed",
                "source_flips": [0.0, 1.0],
                "overrides": {"paradigm": "joint"},
            },
        ]
        cfg = parse_config(raw)
        result = cmd_run(cfg, Path(cfg.out_dir))
        rows = list(csv.DictReader(open(result["summary"])))
        by_arm = {}
        for row in rows:
            by_arm.setdefault(row["arm"], {})[row["seed"]] = row["final_target_acc"]
        assert by_arm["adaptive-eta0"] == by_arm["fixed"]

    def test_resume_skips_completed_jobs(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "out"))
        first = cmd_run(cfg, Path(cfg.out_dir))
        assert first["n_skipped"] == 0
        second = cmd_run(cfg, Path(cfg.out_dir))
        assert second["n_skipped"] == second["n_jobs"]
        assert (
            list(csv.DictReader(open(first["summary"])))
            == list(csv.DictReader(open(second["summary"])))
        )

    def test_resume_reruns_job_after_override_change(self, tmp_path):
        raw = tiny_config(tmp_path / "out", seeds=[0])
        raw["arms"] = raw["arms"][:1]
        cmd_run(parse_config(raw), Path(raw["out_dir"]))
        raw["arms"][0]["overrides"]["epochs"] = 2
        again = cmd_run(parse_config(raw), Path(raw["out_dir"]))
        assert again["n_skipped"] == 0
        job_dir = Path(raw["out_dir"]) / "runs" / "single" / "seed0" / "n40"
        assert json.loads((job_dir / "record.json").read_text())["config"]["epochs"] == 2

    def test_tampered_cache_refuses_to_run(self, tmp_path, capsys):
        raw = tiny_config(tmp_path / "out")
        path = write_config(tmp_path, raw)
        assert main(["generate", "--config", str(path)]) == 0
        victim = tmp_path / "out" / "family" / "seed0" / "target_train.npz"
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
        assert main(["run", "--config", str(path)]) == EXIT_IO
        assert "manifest" in capsys.readouterr().err

    def test_arm_filter(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "out"))
        result = cmd_run(cfg, Path(cfg.out_dir), arm_filter="single")
        rows = list(csv.DictReader(open(result["summary"])))
        assert {row["arm"] for row in rows} == {"single"}

    def test_unknown_arm_filter(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "out"))
        with pytest.raises(ConfigError):
            cmd_run(cfg, Path(cfg.out_dir), arm_filter="ghost")

    def test_end_to_end_determinism(self, tmp_path):
        """Two fresh runs of the same config produce byte-identical summaries
        once the isolated timestamp column is dropped."""
        raw_a = tiny_config(tmp_path / "out_a")
        raw_b = tiny_config(tmp_path / "out_b")
        run_a = cmd_run(parse_config(raw_a), Path(raw_a["out_dir"]))
        run_b = cmd_run(parse_config(raw_b), Path(raw_b["out_dir"]))

        def strip_timestamp(path):
            lines = Path(path).read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        assert strip_timestamp(run_a["summary"]) == strip_timestamp(run_b["summary"])

    def test_parallel_jobs_match_serial(self, tmp_path):
        raw_serial = tiny_config(tmp_path / "out_serial")
        raw_pool = tiny_config(tmp_path / "out_pool")
        run_serial = cmd_run(parse_config(raw_serial), Path(raw_serial["out_dir"]), jobs=1)
        run_pool = cmd_run(parse_config(raw_pool), Path(raw_pool["out_dir"]), jobs=3)

        def strip_timestamp(path):
            return [
                line.rsplit(",", 1)[0] for line in Path(path).read_text().splitlines()
            ]

        assert strip_timestamp(run_serial["summary"]) == strip_timestamp(run_pool["summary"])

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the crashing stand-in reaches the workers only through fork",
    )
    def test_crashed_worker_loses_only_its_own_row(self, tmp_path, monkeypatch):
        run_job = harness._execute_job

        def crash_one(payload):
            if payload["arm"]["name"] == "adaptive" and payload["seed"] == 0:
                os._exit(1)
            return run_job(payload)

        monkeypatch.setattr(harness, "_execute_job", crash_one)
        raw = tiny_config(tmp_path / "out")
        result = cmd_run(parse_config(raw), Path(raw["out_dir"]), jobs=2)
        rows = list(csv.DictReader(open(result["summary"])))
        assert len(rows) == 6 and result["n_failed"] == 1
        for row in rows:
            crashed = row["arm"] == "adaptive" and row["seed"] == "0"
            assert bool(row["error"]) == crashed
            assert bool(row["final_target_acc"]) != crashed
        assert "BrokenProcessPool" in next(r["error"] for r in rows if r["error"])

    def test_checkpoints_saved_when_requested(self, tmp_path):
        from tawt_lab.model import load_model

        raw = tiny_config(tmp_path / "out", seeds=[0], save_checkpoints=True)
        raw["arms"] = raw["arms"][:1]
        cfg = parse_config(raw)
        cmd_run(cfg, Path(cfg.out_dir))
        job_dir = Path(cfg.out_dir) / "runs" / "single" / "seed0" / "n40"
        model = load_model(job_dir / "model.bin")
        assert model.input_dim == 10
        record = json.loads((job_dir / "record.json").read_text())
        assert record["checkpoint_path"].endswith("model.bin")


class TestReport:
    def test_aggregation_matches_plain_formulas(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "out"))
        result = cmd_run(cfg, Path(cfg.out_dir))
        rows = list(csv.DictReader(open(result["summary"])))
        report = cmd_report(Path(cfg.out_dir))
        curves = {r["arm"]: r for r in csv.DictReader(open(report["curves"]))}
        for arm in ("single", "adaptive", "fixed"):
            accs = [float(r["final_target_acc"]) for r in rows if r["arm"] == arm]
            mean = sum(accs) / len(accs)
            stderr = (
                (sum((a - mean) ** 2 for a in accs) / (len(accs) - 1)) ** 0.5
                / len(accs) ** 0.5
            )
            assert abs(float(curves[arm]["mean_acc"]) - mean) < 1e-9
            assert abs(float(curves[arm]["stderr_acc"]) - stderr) < 1e-9

    def test_single_seed_stderr_is_zero(self, tmp_path):
        raw = tiny_config(tmp_path / "out", seeds=[3])
        cfg = parse_config(raw)
        cmd_run(cfg, Path(cfg.out_dir))
        report = cmd_report(Path(cfg.out_dir))
        for row in csv.DictReader(open(report["curves"])):
            assert float(row["stderr_acc"]) == 0.0

    def test_trajectory_row_count_is_rounds_plus_one(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "out"))
        cmd_run(cfg, Path(cfg.out_dir))
        report = cmd_report(Path(cfg.out_dir))
        traj = {p.name: p for p in report["trajectories"]}
        lines = traj["weights_adaptive.csv"].read_text().splitlines()
        assert len(lines) == 1 + 4 + 1  # header + one snapshot per epoch + init

    def test_empty_results_dir_fails(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "nothing")]) == EXIT_IO


class TestDistanceCommand:
    def test_distance_csv_written(self, tmp_path):
        raw = tiny_config(tmp_path / "out", seeds=[0])
        raw["distance"] = {
            "flip_grid": [0.0], "source_n": 300, "head_fit_n": 150,
            "eval_n": 150, "oracle_n": 300, "rep_epochs": 10,
            "head_fit_epochs": 15, "oracle_epochs": 10,
        }
        path = write_config(tmp_path, raw)
        assert main(["distance", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "distance.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("flip_rate,seed,")


def test_cli_help_documents_columns(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    out = capsys.readouterr().out
    assert "final_target_acc" in out
