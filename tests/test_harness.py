import argparse
import csv
import hashlib
import json
import math
import multiprocessing
import os
import re
import runpy
import shutil
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tawt_lab import harness, taskgen, training
from tawt_lab.harness import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_JOBS,
    EXIT_OK,
    ConfigError,
    cmd_distance,
    cmd_generate,
    cmd_report,
    cmd_run,
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

    @pytest.mark.parametrize(
        "block, named",
        [("x", "distance"), ([1], "distance"), ({"rep_epoch": 3}, "rep_epoch"),
         ({"source_n": 300}, "source_n"), ({"seeds": [0]}, "seeds"),
         ({"optimizer": "rmsprop"}, "optimizer"), ({"weights_mode": "random"}, "random"),
         ({"head_fit_n": 0}, "head_fit_n"), ({"head_fit_n": -5}, "head_fit_n"),
         ({"oracle_n": 0}, "oracle_n"), ({"head_fit_epochs": 0}, "head_fit_epochs")],
    )
    def test_bad_distance_block_fails_at_parse(self, tmp_path, capsys, block, named):
        raw = tiny_config(tmp_path / "out")
        raw["distance"] = block
        with pytest.raises(ConfigError, match=named):
            parse_config(raw)
        path = write_config(tmp_path, raw)
        assert main(["generate", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "arm, named",
        [
            ({"overrides": {"paradigm": "single", "weighted": True}}, "single"),
            ({"source_flips": [0.0], "overrides": {
                "paradigm": "joint", "weighted": True, "weight_granularity": "sample"}},
             "pretrain paradigm only"),
            ({"source_flips": [0.0, 1.0], "overrides": {
                "paradigm": "pretrain", "weighted": True, "weight_granularity": "sample"}},
             "exactly one source"),
            ({"source_flips": [0.0], "overrides": {"paradigm": "single"}}, "takes no sources"),
            ({"overrides": {"paradigm": "pretrain"}}, "at least one"),
            ({"source_flips": [0.0], "overrides": {"paradigm": "joint", "sample_split": 0.5}},
             "sample_split"),
            ({"source_flips": [0.0], "overrides": {
                "paradigm": "joint", "weighted": True, "sample_split": 0.5}},
             "sample_split"),
            # tiny_config's one target size, 40, would split into 0 + 40 and 40 + 0
            ({"source_flips": [0.0], "overrides": {"paradigm": "pretrain", "sample_split": 0.01}},
             r"sample_split: split of 40 examples .* leaves a part empty"),
            ({"source_flips": [0.0], "overrides": {"paradigm": "pretrain", "sample_split": 0.99}},
             r"sample_split: split of 40 examples .* leaves a part empty"),
        ],
    )
    def test_contradictory_arm_fails_at_parse(self, tmp_path, capsys, arm, named):
        """An arm whose settings cannot all hold is a config error before
        anything is generated, not a sweep of silent or failed rows."""
        raw = tiny_config(tmp_path / "out")
        raw["arms"].append({"name": "contradictory", **arm})
        with pytest.raises(ConfigError, match=named):
            parse_config(raw)
        path = write_config(tmp_path, raw)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("in_arm", [False, True], ids=["train", "override"])
    @pytest.mark.parametrize(
        "name, value", [("weight_init", "uniform"), ("loss_scale_mode", "weight"),
                        ("finetune_lr", 1e-3)],
    )
    def test_removed_training_field_fails_at_parse(self, tmp_path, capsys, name, value, in_arm):
        """TrainConfig fields that were dropped are named as unknown, in the
        train block or an arm override, and `run` writes nothing."""
        raw = tiny_config(tmp_path / "out")
        (raw["arms"][1]["overrides"] if in_arm else raw["train"])[name] = value
        with pytest.raises(ConfigError, match=name):
            parse_config(raw)
        path = write_config(tmp_path, raw)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, value", [("save_checkpoints", True), ("master_sed", 3)])
    def test_unknown_top_level_key_fails_at_parse(self, tmp_path, capsys, name, value):
        """A removed option or a misspelt key is named, and `run` writes
        nothing, rather than running without it."""
        raw = tiny_config(tmp_path / "out", **{name: value})
        with pytest.raises(ConfigError, match=name):
            parse_config(raw)
        path = write_config(tmp_path, raw)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, value",
        [("target_sizes", [40, -5]), ("target_sizes", [0]), ("target_sizes", 40),
         ("base_n", 0), ("source_n", -200), ("eval_n", 200.5), ("n_classes", "4"),
         ("input_dim", True), ("teacher_hidden", -1), ("teacher_epochs", 0),
         ("teacher_batch", 0.0), ("teacher_accuracy_threshold", -1.0),
         ("teacher_accuracy_threshold", 2.0), ("teacher_lr", -0.001), ("flip_grid", [0.0, 1.5]),
         ("flip_grid", []), ("target_sizes", []), ("target_sizes", [40, 40]),
         ("flip_grid", [0.0, 0.0, 1.0]), ("flip_grid", [0.0, -0.0, 1.0]),
         ("flip_grid", [0.0, 0.1, 0.10000001]), ("flip_grid", [0.0, 0.1, 0.10004])],
    )
    def test_family_size_must_be_a_positive_integer(self, tmp_path, capsys, name, value):
        """A size such as -5 is a config error naming the field, not a row
        trained on the wrong number of examples; so is a teacher recipe that
        cannot be met (a threshold outside (0, 1], a negative lr) and a flip
        rate outside [0, 1]. So is a repeat: a size would run its jobs twice
        into one directory, two rates that print alike (0.1 and 0.10000001)
        would share one source file and one flip_rate, and two equal as
        round(q * 10000) (0.1 and 0.10004) one teacher and one source draw."""
        raw = tiny_config(tmp_path / "out")
        raw["family"][name] = value
        with pytest.raises(ConfigError, match=f"family.{name}"):
            parse_config(raw)
        path = write_config(tmp_path, raw)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert f"family.{name}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, value, named", [
        pytest.param(path, value, named, id=f"{named}={value!r}")
        for path, value, named in [
            (("train", "epochs"), "3", "train.epochs"), (("train", "lr"), "x", "train.lr"),
            (("train", "epochs"), 3.0, "train.epochs"),
            (("train", "weighted"), 1, "train.weighted"),
            (("train", "finetune_epochs"), True, "train.finetune_epochs"),
            (("arms", 1, "overrides", "subset_size"), 2.5, "overrides.subset_size"),
            (("family", "flip_grid"), ["a"], "family.flip_grid[0]"),
            (("family", "flip_grid"), [0.0, True], "family.flip_grid[1]"),
            (("family", "flip_grid"), "0.5", "family.flip_grid"),
            (("seeds",), ["a"], "seeds[0]"), (("seeds",), [0, 1.0], "seeds[1]"),
            (("master_seed",), 1.5, "master_seed"), (("master_seed",), "11", "master_seed"),
            (("distance", "oracle_n"), "10", "distance.oracle_n"),
            (("distance", "head_fit_n"), 2.5, "distance.head_fit_n"),
            (("distance", "lr"), "x", "distance.lr"),
            (("family", "teacher_lr"), "x", "family.teacher_lr"),
            (("family", "teacher_accuracy_threshold"), "1", "family.teacher_accuracy_threshold"),
            (("arms", 0, "name"), 5, "arms[0].name"),
            # an arm name is a directory under runs/ and a summary.csv field
            *[(("arms", 1, "name"), name, "arms[1].name: must be nonempty")
              for name in ["", ".", "..", "joint,fixed", "../../escaped", "a/b", "two words",
                           'q"0']],
            (("arms", 1, "source_flips"), "0.0", "arms[1].source_flips"),
            (("arms", 1, "source_flips"), ["0.0"], "arms[1].source_flips[0]"),
            (("train",), None, "train"), (("train",), [], "train"), (("train",), "abc", "train"),
            (("family",), None, "family"), (("arms",), [None], "arms[0]"),
            (("train", "lr"), math.nan, "train.lr"), (("train", "c"), -math.inf, "train.c"),
            (("family", "flip_grid"), [0.0, math.inf], "family.flip_grid[1]"),
            (("distance", "lr"), math.nan, "distance.lr"),
            (("arms", 1, "overrides", "eta"), math.nan, "overrides.eta"),
            (("seeds",), [0, 1, 0], "seeds must not repeat"),
            (("arms", 1, "source_flips"), [0.0, 0.0], "arms[1].source_flips must not repeat"),
        ]
    ])
    def test_value_of_the_wrong_type_fails_at_parse(self, tmp_path, capsys, path, value, named):
        """A wrongly typed value is a config error naming its field, never a
        traceback and never silently converted (master_seed 1.5 is not 1);
        so is an arm name that would misread as a CSV row or leave out_dir,
        and a repeated seed or source flip, which would run a job twice.
        Python's json reads NaN and Infinity, and a float field takes
        neither, so no sweep writes a NumericError row for every job."""
        raw = tiny_config(tmp_path / "out", distance={})
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError, match=re.escape(named)):
            parse_config(raw)
        cfg_path = write_config(tmp_path, raw)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("in_arm", [False, True], ids=["train", "override"])
    def test_seed_in_train_fields_fails_at_parse(self, tmp_path, capsys, in_arm):
        """Every job's seed derives from master_seed and seeds; a seed set
        beside them is named, not silently replaced by the job seed."""
        raw = tiny_config(tmp_path / "out")
        (raw["arms"][1]["overrides"] if in_arm else raw["train"])["seed"] = 99
        with pytest.raises(ConfigError, match=r"\.seed: each job's seed derives"):
            parse_config(raw)
        path = write_config(tmp_path, raw)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_config_error(self, tmp_path, capsys, jobs):
        path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["run", "--config", str(path), "--jobs", jobs]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --jobs must be at least 1")
        assert not (tmp_path / "out").exists()
        assert harness._build_parser().parse_args(["run", "--config", str(path)]).jobs == 1

    def test_master_seed_has_no_cli_override(self, tmp_path):
        path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        with pytest.raises(SystemExit):
            main(["run", "--config", str(path), "--seed-override", "3"])
        assert not (tmp_path / "out").exists()

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


def _seed_rows(out):
    return {p.relative_to(out): p.read_bytes() for p in (out / "family").glob("seed*/row.json")}


def _strip_timestamp(path):
    return [line.rsplit(",", 1)[0] for line in Path(path).read_text().splitlines()]


class TestGenerate:
    def test_generate_then_cache_hit(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "out"))
        out = Path(cfg.out_dir)
        assert cmd_generate(cfg, out)["drawn"] == [0, 1]
        seed_rows = _seed_rows(out)
        assert len(seed_rows) == 2
        assert cmd_generate(cfg, out)["drawn"] == []
        assert _seed_rows(out) == seed_rows

    def test_creates_missing_directories(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "deep" / "nested" / "out"))
        cmd_generate(cfg, Path(cfg.out_dir))
        assert (Path(cfg.out_dir) / "family" / "seed0" / "target_train.npz").exists()

    def test_each_seed_row_lists_its_files_with_hashes(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path / "out"))
        result = cmd_generate(cfg, Path(cfg.out_dir))
        for seed in cfg.seeds:
            seed_dir = Path(cfg.out_dir) / "family" / f"seed{seed}"
            files = json.loads((seed_dir / "row.json").read_text())["row"]
            assert files == result["files"][seed]
            assert sorted(files) == sorted(
                ["target_train.npz", "target_eval.npz", "source_q0.npz", "source_q1.npz"]
            )
            assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in files.values())
            assert all(
                hashlib.sha256((seed_dir / name).read_bytes()).hexdigest() == digest
                for name, digest in files.items()
            )

    def test_file_hash_matches_whole_file_sha256(self, tmp_path):
        path = tmp_path / "blob.npz"
        path.write_bytes(os.urandom(2 * harness._HASH_CHUNK_BYTES + 123))
        assert harness._sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_each_family_file_is_hashed_once_per_command(self, tmp_path, monkeypatch):
        """A fresh draw hashes each of its 4 files once, when it writes them;
        a cached generate and a run hash each once, to check it. A fresh job
        hashes its metrics.csv and weights.csv once, as it writes them."""
        hashed, sha256_file = [], harness._sha256_file

        def spy(path):
            hashed.append(path.name)
            return sha256_file(path)

        monkeypatch.setattr(harness, "_sha256_file", spy)
        cfg = parse_config(tiny_config(tmp_path / "out", seeds=[0]))
        counts = []
        for command in (cmd_generate, cmd_generate, cmd_run):  # a fresh draw, then the cache
            hashed.clear()
            command(cfg, Path(cfg.out_dir))
            counts.append(sorted(hashed))
        family = harness._seed_files(cfg.family.flip_grid)
        n_jobs = len(cfg.arms) * len(cfg.family.target_sizes)
        assert counts[:2] == [sorted(family)] * 2
        assert counts[2] == sorted(family + list(harness._JOB_DIGESTED) * n_jobs)

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
        assert len(a) == 2 * (1 + 4) and a == b  # per seed: a row.json and 4 datasets

    def test_family_in_csv_layout_is_regenerated(self, tmp_path):
        """A seed cached as CSVs, under a row.json with the same seed key, is
        drawn again to the same datasets instead of failing every job, and
        the CSVs are removed."""
        cfg = parse_config(tiny_config(tmp_path / "out"))
        out = Path(cfg.out_dir)
        seed_dir = out / "family" / "seed0"
        cmd_generate(cfg, out)
        stored = json.loads((seed_dir / "row.json").read_text())
        binary = {name: (seed_dir / name).read_bytes() for name in stored["row"]}
        csv_files = {}
        for name in binary:
            csv_path = (seed_dir / name).with_suffix(".csv")
            save_dataset_csv(load_dataset(seed_dir / name), csv_path)
            (seed_dir / name).unlink()
            csv_files[csv_path.name] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        stored["row"] = csv_files
        (seed_dir / "row.json").write_text(json.dumps(stored))

        result = cmd_run(cfg, out)
        assert result["n_jobs"] == 6 and result["n_failed"] == 0
        regenerated = json.loads((seed_dir / "row.json").read_text())["row"]
        assert sorted(regenerated) == sorted(binary)
        assert all((seed_dir / name).read_bytes() == data for name, data in binary.items())
        on_disk = {path.name for path in seed_dir.iterdir()}
        assert on_disk == set(regenerated) | {"row.json"}  # the old layout's CSVs are gone

    def test_a_grown_sweep_pays_only_for_what_it_adds(self, tmp_path):
        """Adding a seed reuses every old job and rewrites no file of the old
        seeds; adding a target size below the largest reuses the old size's
        jobs. The grown directory holds the bytes of a fresh run."""
        raw = tiny_config(tmp_path / "grown")
        out = Path(raw["out_dir"])
        cmd_run(parse_config(raw), out)
        old_files = sorted((out / "family").glob("seed[01]/*"))
        stamps = [path.stat().st_mtime_ns for path in old_files]

        raw["seeds"] = [0, 1, 2]
        result = cmd_run(parse_config(raw), out)
        assert (result["n_jobs"], result["n_skipped"]) == (9, 6)
        assert sorted((out / "family").glob("seed[01]/*")) == old_files
        assert [path.stat().st_mtime_ns for path in old_files] == stamps

        raw["family"]["target_sizes"] = [20, 40]
        result = cmd_run(parse_config(raw), out)
        assert (result["n_jobs"], result["n_skipped"]) == (18, 9)
        assert [path.stat().st_mtime_ns for path in old_files] == stamps
        cmd_report(out)

        fresh = tmp_path / "fresh"
        cmd_run(parse_config({**raw, "out_dir": str(fresh)}), fresh)
        cmd_report(fresh)
        assert _strip_timestamp(out / "summary.csv") == _strip_timestamp(fresh / "summary.csv")
        grown_files = sorted(
            path.relative_to(out) for path in out.rglob("*.csv")
            if path.name == "weights.csv" or path.parent.name == "report"
        )
        assert len(grown_files) == 18 + 4  # every job's weights, curves.csv and 3 trajectories
        for relpath in grown_files:
            assert (out / relpath).read_bytes() == (fresh / relpath).read_bytes(), relpath



def _flip_middle_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


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

    def test_job_with_a_nan_loss_gets_an_error_row_and_no_row_json(self, tmp_path, monkeypatch):
        """A fresh row passes the check a stored one does: a final loss that
        is NaN fails the job, and nothing is stored for resume to reuse."""
        real_tawt = harness.tawt

        def nan_loss(*args, **kw):
            model, record = real_tawt(*args, **kw)
            record.epoch_metrics[-1]["target_loss"] = float("nan")
            return model, record

        monkeypatch.setattr(harness, "tawt", nan_loss)
        raw = tiny_config(tmp_path / "out")
        out = Path(raw["out_dir"])
        result = cmd_run(parse_config(raw), out)
        assert result["n_failed"] == result["n_jobs"] == 6
        rows = list(csv.DictReader(open(result["summary"])))
        assert {row["error"] for row in rows} == {"ValueError: 'nan' is not a finite number"}
        assert not list((out / "runs").rglob("row.json"))

    def test_error_with_a_comma_reads_back_whole(self, tmp_path, monkeypatch):
        """summary.csv quotes a field that holds a comma, so the error and
        the timestamp after it read back as written."""

        def fail(job):
            raise ValueError("a, b")

        monkeypatch.setattr(harness.Job, "execute", fail)
        raw = tiny_config(tmp_path / "out")
        result = cmd_run(parse_config(raw), Path(raw["out_dir"]))
        rows = list(csv.DictReader(open(result["summary"], newline="")))
        assert len(rows) == result["n_failed"] == 6
        for row in rows:
            assert row["error"] == "ValueError: a, b"
            assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d", row["timestamp"])
            assert None not in row  # no field spilled past the header

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

    @pytest.mark.parametrize("tamper", [
        lambda stored, other: "{not json",
        lambda stored, other: json.dumps({**stored, "job_key": "0" * 64}),
        lambda stored, other: json.dumps({"job_key": stored["job_key"]}),
        lambda stored, other: json.dumps({**stored, "row": {}}),
        lambda stored, other: json.dumps({**stored, "row": other["row"]}),
        lambda stored, other: json.dumps(
            {**stored, "row": {**stored["row"], "final_target_acc": "x"}}),
    ], ids=["not-json", "other-key", "no-row", "empty-row", "other-jobs-row", "bad-accuracy"])
    def test_bad_stored_job_row_is_rerun(self, tmp_path, tamper):
        """A job's row.json is reused only when it holds the job's key and the
        job's own row with finite results; otherwise the job reruns, and
        summary.csv comes out as before."""
        raw = tiny_config(tmp_path / "out")
        out = Path(raw["out_dir"])
        before = cmd_run(parse_config(raw), out)
        victim = out / "runs" / "single" / "seed0" / "n40" / "row.json"
        good = victim.read_text()
        other = json.loads((out / "runs" / "single" / "seed1" / "n40" / "row.json").read_text())
        victim.write_text(tamper(json.loads(good), other))
        again = cmd_run(parse_config(raw), out)
        assert (again["n_skipped"], again["n_failed"]) == (again["n_jobs"] - 1, 0)
        assert victim.read_text() == good
        assert _strip_timestamp(again["summary"]) == _strip_timestamp(before["summary"])

    @pytest.mark.parametrize("damage", [
        lambda path: path.unlink(),
        lambda path: path.write_bytes(path.read_bytes().split(b"\n")[0] + b"\n"),
        _flip_middle_byte,
    ], ids=["deleted", "cut-to-header", "byte-flipped"])
    def test_job_whose_files_are_gone_is_rerun(self, tmp_path, damage):
        """A row.json is reused only while the job's metrics.csv and
        weights.csv still match the digests it holds (and its record.json
        exists); a job with one deleted or damaged reruns to the same bytes,
        so report reads every file summary.csv lists."""
        raw = tiny_config(tmp_path / "out")
        out = Path(raw["out_dir"])
        cmd_run(parse_config(raw), out)
        job_dir = out / "runs" / "fixed" / "seed1" / "n40"
        before = {name: (job_dir / name).read_bytes() for name in ("metrics.csv", "weights.csv")}
        for name in before:
            damage(job_dir / name)
        again = cmd_run(parse_config(raw), out)
        assert (again["n_jobs"], again["n_skipped"], again["n_failed"]) == (6, 5, 0)
        assert {name: (job_dir / name).read_bytes() for name in before} == before

    def test_tampered_cache_refuses_to_run(self, tmp_path, capsys):
        raw = tiny_config(tmp_path / "out")
        path = write_config(tmp_path, raw)
        assert main(["generate", "--config", str(path)]) == 0
        victim = tmp_path / "out" / "family" / "seed0" / "target_train.npz"
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
        assert main(["run", "--config", str(path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(victim) in err and "row.json" in err

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
        run_job = harness.Job.execute

        def crash_one(job):
            if job.arm.name == "adaptive" and job.seed == 0:
                os._exit(1)
            return run_job(job)

        monkeypatch.setattr(harness.Job, "execute", crash_one)
        raw = tiny_config(tmp_path / "out")
        result = cmd_run(parse_config(raw), Path(raw["out_dir"]), jobs=2)
        rows = list(csv.DictReader(open(result["summary"])))
        assert len(rows) == 6 and result["n_failed"] == 1
        for row in rows:
            crashed = row["arm"] == "adaptive" and row["seed"] == "0"
            assert bool(row["error"]) == crashed
            assert bool(row["final_target_acc"]) != crashed
        assert "BrokenProcessPool" in next(r["error"] for r in rows if r["error"])

    def test_pool_starts_no_more_workers_than_pending_jobs(self, tmp_path, monkeypatch):
        import concurrent.futures

        started = []

        class Unit:
            """A unit with no stored row that returns its own name."""

            load = staticmethod(dict)

            def __init__(self, name):
                self.name, self.dir, self.key = name, tmp_path / name, name

            def execute(self):
                return {"job": self.name}

        class InlinePool(concurrent.futures.Executor):
            """Records its worker count and runs each job in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        rows, reused = harness._run_units([Unit(name) for name in "abc"], jobs=8)
        assert started == [3] and reused == [False] * 3
        assert rows == [{"job": name} for name in "abc"]

    def test_serial_commands_never_load_the_process_pool(self, tmp_path):
        raw = tiny_config(tmp_path / "out")
        raw["distance"] = {
            "head_fit_n": 150, "oracle_n": 300, "rep_epochs": 2,
            "head_fit_epochs": 2, "oracle_epochs": 2,
        }
        path = write_config(tmp_path, raw)
        code = (
            "import sys\n"
            "from tawt_lab.harness import main\n"
            "assert main(['run', '--config', sys.argv[1], '--jobs', '1']) == 0\n"
            "assert main(['distance', '--config', sys.argv[1]]) == 0\n"
            "assert main(['generate', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print('concurrent.futures.process' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(path), str(tmp_path / "generated")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "generated" / "family" / "seed1" / "row.json").exists()

    def test_jobs_do_not_change_family_rows_or_summary(self, tmp_path):
        """run --jobs 2 draws the family seeds and runs the jobs in a pool, to
        the bytes of --jobs 1: every family file, every row.json and
        summary.csv but its timestamp."""
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            summary = cmd_run(parse_config(tiny_config(out)), out, jobs=jobs)["summary"]
            files = sorted(path for path in out.rglob("*") if path.is_file()
                           and ("family" in path.parts or path.name == "row.json"))
            assert len(files) == 2 * (1 + 4) + 6  # per seed 4 datasets and a row.json; 6 jobs
            outputs.append(({path.relative_to(out): path.read_bytes() for path in files},
                            _strip_timestamp(summary)))
        assert outputs[0] == outputs[1]

    def test_directory_of_the_manifest_layout_is_redrawn_once(self, tmp_path, monkeypatch):
        """A results directory whose family seeds hold manifest.json, the seed
        record of earlier versions, and no row.json: run draws each seed once
        more to the same bytes and removes the manifest, and reuses every job."""
        raw = tiny_config(tmp_path / "out")
        out = Path(raw["out_dir"])
        cmd_run(parse_config(raw), out)
        family = {}
        for seed_dir in sorted((out / "family").glob("seed*")):
            stored = json.loads((seed_dir / "row.json").read_text())
            manifest = {"key": stored["job_key"], "files": stored["row"]}
            (seed_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
            (seed_dir / "row.json").unlink()
            family[seed_dir.name] = {p.name: p.read_bytes() for p in seed_dir.iterdir()
                                     if p.suffix == ".npz"}
        drawn, draw = [], harness.FamilySeed.execute

        def spy(unit):
            drawn.append(unit.seed)
            return draw(unit)

        monkeypatch.setattr(harness.FamilySeed, "execute", spy)
        for expected_draws in ([0, 1], [0, 1]):  # the second run draws nothing new
            result = cmd_run(parse_config(raw), out)
            assert result["n_skipped"] == result["n_jobs"] == 6
            assert drawn == expected_draws
        for name, files in family.items():
            seed_dir = out / "family" / name
            assert {p.name for p in seed_dir.iterdir()} == set(files) | {"row.json"}
            assert all((seed_dir / n).read_bytes() == data for n, data in files.items())



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

    def test_run_has_no_arm_filter(self, tmp_path, capsys):
        """A results directory holds one sweep: --arm, which rewrote
        summary.csv with one arm's rows, is a usage error."""
        path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text()
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", str(path), "--arm", "single"])
        assert exit_info.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --arm" in capsys.readouterr().err
        assert (tmp_path / "out" / "summary.csv").read_text() == summary

    @pytest.mark.parametrize("train_edit", [{}, {"epochs": 3}])
    def test_report_reads_only_the_jobs_summary_lists(self, tmp_path, train_edit):
        """After the seed list shrinks, with or without an epochs edit, seed
        1's files stay under runs/ but leave the report: the arm's trajectory
        is seed 0's alone."""
        raw = tiny_config(tmp_path / "out")
        out = Path(raw["out_dir"])
        cmd_run(parse_config(raw), out)
        raw["seeds"] = [0]
        raw["train"].update(train_edit)
        cmd_run(parse_config(raw), out)
        assert (out / "runs" / "adaptive" / "seed1" / "n40" / "weights.csv").exists()
        cmd_report(out)

        def trajectory(path):
            return [[float(x) for x in row] for row in list(csv.reader(open(path)))[1:]]

        only_job = out / "runs" / "adaptive" / "seed0" / "n40" / "weights.csv"
        assert trajectory(out / "report" / "weights_adaptive.csv") == trajectory(only_job)
        curves = list(csv.DictReader(open(out / "report" / "curves.csv")))
        assert {row["n_seeds"] for row in curves} == {"1"}

    @pytest.mark.parametrize("edit, line", [
        (lambda rows: [row[:6] + row[7:] for row in rows], 2),
        (lambda rows: rows[:2] + [rows[2][:5]] + rows[3:], 3),
        (lambda rows: rows[:2] + [rows[2][:5] + ["x"] + rows[2][6:]] + rows[3:], 3),
        (lambda rows: rows[:2] + [rows[2][:6] + [""] + rows[2][7:]] + rows[3:], 3),
    ], ids=["no-loss-column", "short-row", "bad-accuracy", "bad-loss"])
    def test_hand_edited_summary_is_an_io_error(self, tmp_path, capsys, edit, line):
        """A summary.csv row without a column report reads, or whose accuracy
        or loss does not parse, exits 3 naming the file and the line."""
        path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 0
        summary = tmp_path / "out" / "summary.csv"
        with open(summary, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(summary, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(edit(rows))
        assert main(["report", "--config", str(path)]) == EXIT_IO
        assert f"error: {summary}, line {line}: " in capsys.readouterr().err
        assert not (tmp_path / "out" / "report").exists()

    @pytest.mark.parametrize("edit, fault", [
        (lambda rows: rows[:2] + [rows[2][:-1]] + rows[3:], ", line 3: "),
        (lambda rows: rows[:2] + [rows[2][:-1] + ["x"]] + rows[3:], ", line 3: "),
        (lambda rows: rows[:2] + [rows[2][:-1] + ["nan"]] + rows[3:], ", line 3: "),
        (lambda rows: rows[:1], ": no weight rows"),
        (lambda rows: rows[:1] + rows[2:],
         ": weight trajectory steps or sources disagree within arm adaptive"),
    ], ids=["short-row", "not-a-number", "nan-weight", "header-only", "missing-row"])
    def test_hand_edited_weights_is_an_io_error(self, tmp_path, capsys, edit, fault):
        """A listed job's weights.csv that is ragged, holds a weight that is
        not a finite number, holds no row or lacks a well-formed row seed 0's
        file holds exits 3 naming the file (and the line), and writes no
        trajectory of its arm."""
        path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 0
        victim = tmp_path / "out" / "runs" / "adaptive" / "seed1" / "n40" / "weights.csv"
        with open(victim, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(victim, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(rows))
        assert main(["report", "--config", str(path)]) == EXIT_IO
        assert f"error: {victim}{fault}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report" / "weights_adaptive.csv").exists()

    def test_failed_report_leaves_the_last_report_whole(self, tmp_path, capsys):
        """report checks every listed file before it touches report/: after
        the sweep shrinks to seed 0 and single's weights.csv holds a nan,
        report exits 3 and every report/ file is still the last report's."""
        path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 0
        assert main(["report", "--config", str(path)]) == 0
        report = tmp_path / "out" / "report"
        before = {p.name: p.read_bytes() for p in report.iterdir()}
        path = write_config(tmp_path, tiny_config(tmp_path / "out", seeds=[0]))
        assert main(["run", "--config", str(path)]) == 0
        victim = tmp_path / "out" / "runs" / "single" / "seed0" / "n40" / "weights.csv"
        lines = victim.read_text().splitlines()
        victim.write_text("\n".join(lines[:-1] + [lines[-1].split(",")[0] + ",nan"]) + "\n")
        assert main(["report", "--config", str(path)]) == EXIT_IO
        assert f"error: {victim}, line {len(lines)}: " in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in report.iterdir()} == before

    def test_report_drops_the_trajectory_of_a_dropped_arm(self, tmp_path):
        """After a config edit drops the fixed arm, the next report removes
        weights_fixed.csv: report/ holds only what this report wrote."""
        raw = tiny_config(tmp_path / "out", seeds=[0])
        out = Path(raw["out_dir"])
        cmd_run(parse_config(raw), out)
        cmd_report(out)
        assert (out / "report" / "weights_fixed.csv").exists()
        raw["arms"] = [arm for arm in raw["arms"] if arm["name"] != "fixed"]
        cmd_run(parse_config(raw), out)
        report = cmd_report(out)
        written = {report["curves"].name} | {p.name for p in report["trajectories"]}
        assert written == {"curves.csv", "weights_adaptive.csv", "weights_single.csv"}
        assert {p.name for p in (out / "report").iterdir()} == written

    def test_report_with_no_successful_job_is_an_io_error(self, tmp_path, capsys, monkeypatch):
        def fail(job):
            raise ValueError("boom")

        monkeypatch.setattr(harness.Job, "execute", fail)
        path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == EXIT_JOBS
        assert main(["report", "--config", str(path)]) == EXIT_IO
        summary = tmp_path / "out" / "summary.csv"
        assert f"error: {summary}: no successful rows to report" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report").exists()

    def test_listed_job_without_weights_is_an_io_error(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 0
        victim = tmp_path / "out" / "runs" / "fixed" / "seed1" / "n40" / "weights.csv"
        victim.unlink()
        assert main(["report", "--config", str(path)]) == EXIT_IO
        assert str(victim) in capsys.readouterr().err


class TestDistanceCommand:
    def test_distance_csv_written(self, tmp_path):
        raw = tiny_config(tmp_path / "out", seeds=[0])
        raw["family"].update(flip_grid=[0.0], source_n=300, eval_n=150)
        raw["arms"] = raw["arms"][:1]
        raw["distance"] = {
            "head_fit_n": 150, "oracle_n": 300, "rep_epochs": 10,
            "head_fit_epochs": 15, "oracle_epochs": 10,
        }
        path = write_config(tmp_path, raw)
        assert main(["distance", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "distance.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("flip_rate,seed,")

    def test_teachers_use_the_family_recipe(self, tmp_path, monkeypatch):
        """generate and distance fit their teachers with the family's batch
        size and accuracy threshold, not the distance estimator's."""
        raw = tiny_config(tmp_path / "out", seeds=[0])
        raw["family"]["teacher_accuracy_threshold"] = 0.9
        raw["distance"] = {"batch_size": 50}
        cfg = parse_config(raw)

        class FirstFit(Exception):
            pass

        def spy(data, spec, cfg, **kw):
            threshold = kw.get("threshold", getattr(cfg, "teacher_accuracy_threshold", 1.0))
            raise FirstFit((cfg.optimizer, cfg.lr, cfg.batch_size, cfg.epochs, threshold))

        monkeypatch.setattr(training, "fit_teacher", spy)
        recipes = []
        for command in (cmd_generate, cmd_distance):
            with pytest.raises(FirstFit) as caught:
                command(cfg, tmp_path / "out")
            recipes.append(caught.value.args[0])
        assert recipes == [("adam", 3e-3, 30, 400, 0.9)] * 2


    @staticmethod
    def quick(out_dir, **kw):
        """tiny_config with a distance block that fits in well under a second."""
        raw = tiny_config(out_dir, **kw)
        raw["distance"] = {
            "head_fit_n": 150, "oracle_n": 300, "rep_epochs": 2,
            "head_fit_epochs": 2, "oracle_epochs": 2,
        }
        return raw

    @staticmethod
    def spy_seeds(monkeypatch) -> list:
        """The seeds distance_curve is called for from here on, in call order."""
        seeds, curve = [], harness.distance_curve

        def spy(fam, cfg, seed, master_seed):
            seeds.append(seed)
            return curve(fam, cfg, seed, master_seed)

        monkeypatch.setattr(harness, "distance_curve", spy)
        return seeds

    def test_growing_seeds_computes_only_the_new_seed(self, tmp_path, monkeypatch):
        raw = self.quick(tmp_path / "out", seeds=[0])
        out = Path(raw["out_dir"])
        cmd_distance(parse_config(raw), out)
        row0 = out / "distance" / "seed0" / "row.json"
        mtime = row0.stat().st_mtime_ns
        seeds = self.spy_seeds(monkeypatch)
        raw["seeds"] = [0, 1]
        grown = cmd_distance(parse_config(raw), out).read_bytes()
        assert seeds == [1]
        assert row0.stat().st_mtime_ns == mtime
        fresh = self.quick(tmp_path / "fresh")
        assert grown == cmd_distance(parse_config(fresh), Path(fresh["out_dir"])).read_bytes()

    def test_distance_block_edit_reruns_every_seed(self, tmp_path, monkeypatch):
        raw = self.quick(tmp_path / "out")
        out = Path(raw["out_dir"])
        cmd_distance(parse_config(raw), out)
        seeds = self.spy_seeds(monkeypatch)
        cmd_distance(parse_config(raw), out)
        assert seeds == []
        raw["distance"]["rep_epochs"] = 3
        cmd_distance(parse_config(raw), out)
        assert seeds == [0, 1]

    @pytest.mark.parametrize("tamper", [
        lambda stored: "{not json",
        lambda stored: json.dumps({**stored, "job_key": "0" * 64}),
        lambda stored: json.dumps({"job_key": stored["job_key"]}),
        lambda stored: json.dumps({**stored, "row": stored["row"][:1]}),
        lambda stored: json.dumps({**stored, "row": [{"flip_rate": 0.0}]}),
        lambda stored: json.dumps({**stored, "row": [{**stored["row"][0], "seed": 7},
                                                     *stored["row"][1:]]}),
        lambda stored: json.dumps({**stored, "row": [{**stored["row"][0], "distance": math.nan},
                                                     *stored["row"][1:]]}),
        lambda stored: json.dumps({**stored, "row": [{**stored["row"][0], "distance": "0.5"},
                                                     *stored["row"][1:]]}),
    ], ids=["not-json", "other-key", "no-row", "short-row", "bad-estimate", "other-seed",
            "nan-distance", "string-distance"])
    def test_bad_stored_seed_is_recomputed(self, tmp_path, monkeypatch, tamper):
        raw = self.quick(tmp_path / "out")
        out = Path(raw["out_dir"])
        before = cmd_distance(parse_config(raw), out).read_bytes()
        row1 = out / "distance" / "seed1" / "row.json"
        good = row1.read_text()
        row1.write_text(tamper(json.loads(good)))
        seeds = self.spy_seeds(monkeypatch)
        assert cmd_distance(parse_config(raw), out).read_bytes() == before
        assert seeds == [1]
        assert row1.read_text() == good

    def test_jobs_do_not_change_distance_csv(self, tmp_path):
        paths = []
        for jobs in (1, 2):
            raw = self.quick(tmp_path / f"jobs{jobs}", seeds=[0, 1, 2])
            paths.append(cmd_distance(parse_config(raw), Path(raw["out_dir"]), jobs=jobs))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the crashing stand-in reaches the workers only through fork",
    )
    def test_crashed_worker_loses_only_its_own_seed(self, tmp_path, monkeypatch):
        """Seed 1 kills its worker, in the pool and again alone; seeds 0 and 2
        are stored, and the command raises the crash without a distance.csv."""
        from concurrent.futures.process import BrokenProcessPool

        curve = harness.distance_curve

        def crash_one(fam, cfg, seed, master_seed):
            if seed == 1:
                os._exit(1)
            return curve(fam, cfg, seed, master_seed)

        monkeypatch.setattr(harness, "distance_curve", crash_one)
        raw = self.quick(tmp_path / "out", seeds=[0, 1, 2])
        out = Path(raw["out_dir"])
        with pytest.raises(BrokenProcessPool):
            cmd_distance(parse_config(raw), out, jobs=2)
        stored = sorted(path.parent.name for path in out.glob("distance/seed*/row.json"))
        assert stored == ["seed0", "seed2"]
        assert not (out / "distance.csv").exists()

    def test_first_failure_in_seed_order_is_raised_after_every_seed(self, tmp_path, monkeypatch):
        seeds, curve = [], harness.distance_curve

        def fail_odd(fam, cfg, seed, master_seed):
            seeds.append(seed)
            if seed % 2:
                raise taskgen.FitFailureError(f"seed {seed}")
            return curve(fam, cfg, seed, master_seed)

        monkeypatch.setattr(harness, "distance_curve", fail_odd)
        raw = self.quick(tmp_path / "out", seeds=[0, 1, 2, 3])
        with pytest.raises(taskgen.FitFailureError, match="seed 1"):
            cmd_distance(parse_config(raw), Path(raw["out_dir"]))
        assert seeds == [0, 1, 2, 3]
        assert not (tmp_path / "out" / "distance.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_distance_jobs_below_one_is_a_config_error(self, tmp_path, capsys, jobs):
        path = write_config(tmp_path, self.quick(tmp_path / "out"))
        assert main(["distance", "--config", str(path), "--jobs", jobs]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --jobs must be at least 1")
        assert not (tmp_path / "out").exists()


ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted(ROOT.glob("scripts/configs/**/*.json")) + sorted(
    ROOT.glob("perfbench/configs/**/*.json")
)


def test_shipped_configs_parse():
    """Every reference and benchmark config passes parse_config, distance
    block included (perfbench/ is read, not changed)."""
    assert len(SHIPPED) >= 7
    for path in SHIPPED:
        load_config(path)


def _nodes(value, path=()):
    """The key path of every block and leaf in a JSON value, its root first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _nodes(item, path + (key,))


SHIPPED_NODES = [(path, node) for path in SHIPPED for node in _nodes(json.loads(path.read_text()))]
BAD_VALUES = st.one_of(
    st.sampled_from([None, True, "x", [], {}, [None], {"x": 1}, 1.5, math.nan, -math.inf]),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-9),
)


@settings(max_examples=500, database=None)
@example(site=(ROOT / "scripts/configs/flip_sweep.json", ("train",)), value=None)
@given(site=st.sampled_from(SHIPPED_NODES), value=BAD_VALUES)
def test_one_bad_value_anywhere_is_accepted_or_a_config_error(site, value):
    """Any one block or leaf of a shipped config, replaced by a value of
    another type, null, a negative number or NaN, gives a config or a
    ConfigError; never another exception, which the CLI would print as a
    traceback."""
    path, node = site
    raw = json.loads(path.read_text())
    if node:
        parent = raw
        for key in node[:-1]:
            parent = parent[key]
        parent[node[-1]] = value
    else:
        raw = value
    try:
        parse_config(raw)
    except ConfigError:
        pass


@pytest.fixture(scope="module")
def drawn_seed(tmp_path_factory):
    """A one-seed, one-arm family, drawn once and copied for each example."""
    raw = tiny_config(tmp_path_factory.mktemp("drawn") / "out", seeds=[0])
    raw["arms"] = raw["arms"][:1]
    cmd_generate(parse_config(raw), Path(raw["out_dir"]))
    return raw


SEED_ROW_NODES = list(_nodes({"job_key": "k", "row": dict.fromkeys(
    ["target_train.npz", "target_eval.npz", "source_q0.npz", "source_q1.npz"], "d")}))


@settings(max_examples=30, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(node=(), value=[1])
@example(node=("row", "source_q1.npz"), value=None)
@given(node=st.sampled_from(SEED_ROW_NODES), value=BAD_VALUES)
def test_one_bad_seed_row_value_is_redrawn_or_an_io_error(drawn_seed, tmp_path, capsys, node,
                                                           value):
    """Any one node of a family seed's row.json, replaced by a value of
    another type, null, a negative number or NaN: generate draws the seed
    again to the same bytes, and run draws it again or exits 3 naming the
    file; neither prints a traceback."""
    template = Path(drawn_seed["out_dir"])
    for command in ("generate", "run"):
        out = tmp_path / f"{command}-{uuid.uuid4().hex}"
        shutil.copytree(template, out)
        path = out / "family" / "seed0" / "row.json"
        stored = json.loads(path.read_text())
        if node:
            parent = stored
            for key in node[:-1]:
                parent = parent[key]
            parent[node[-1]] = value
        else:
            stored = value
        path.write_text(json.dumps(stored))
        cfg_path = write_config(tmp_path, {**drawn_seed, "out_dir": str(out)})
        code = main([command, "--config", str(cfg_path)])
        if command == "run" and code == EXIT_IO:
            err = capsys.readouterr().err
            assert err.startswith("error: cached dataset ") and str(out / "family") in err
            continue
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert command == "run" or "(1 of 1 seeds drawn)" in printed
        for name in ["row.json", *json.loads(path.read_text())["row"]]:
            expected = (template / "family" / "seed0" / name).read_bytes()
            assert (out / "family" / "seed0" / name).read_bytes() == expected


# Per shipped config: its job count, the SHA-256 of its job keys in cmd_run's
# order (one per line) and the SHA-256 of its seed keys in seed order, with
# each family file's digest stubbed by the SHA-256 of its seed and name.
# Resume trusts both keys, so a parse that coerces or reorders a value fails
# here instead of rerunning every job or drawing every seed again.
PINNED_KEYS = {
    "scripts/configs/distance_curve.json": (
        5, "624fa728dfa1c05e40f338f7dbe6f5fc68b1cc988cd8f84950977e80b8283ab8",
        "7773387e5aea05c5b5a21ed2b1dec11261b9c874bcbfc0dcdf10b5ed7ef9592b"),
    "scripts/configs/flip_sweep.json": (
        100, "4307e37e199ad03183e9100cb8417561bcaccb0549a27a9ee377ceddc8e8c90c",
        "a1613265eff1b28eb4000c7f7c6bfef4d4ecb62482b164b9168499397f17358b"),
    "scripts/configs/weight_identification.json": (
        10, "bcb0f1ee79b22d52fe1cbc78c148985f078c1685292b3b398d3f6e1aa6e05a8a",
        "be163dbe908fbfba6620ec8312eec97afdc1e060c0ba10db180b1706783e40e6"),
    "perfbench/configs/distance_curve.json": (
        1, "47d054eb1581afc1b07ad1a73c913ad3767da6a12e599cf9d350811fb83564b2",
        "3c3a1c02e5a5b81da9ea8989004efccd814b16c0d70354b7bbef3fc84993086a"),
    "perfbench/configs/sample_weighting.json": (
        1, "847c7ae007b901a8fdd893fb7356477a8936aa693d4559a5c210af4b2c5eb8db",
        "2d36748cdde17f6e362ecdd5502be12875e9a976e9941d0ee122d7635f658c56"),
    "perfbench/configs/task_weighting.json": (
        2, "be95af1ea34a7840b86b3fb7654e7887ceb040be422f392cced484669b1a3d3d",
        "9a076859d4c84d80ddf5f40c40f464118bc9cd3ebf371186bb89baf782722df6"),
    "perfbench/configs/transfer_sweep.json": (
        5, "6fd602bb45c7a289d5fedd45102acbf96ffded39b1ee6dd8e0cd51b027668028",
        "b594ac75d762824b2326c1efe795651298bc330c2d54e98b8f015543f0123603"),
}


def test_shipped_job_and_seed_keys_are_pinned(tmp_path, monkeypatch):
    """cmd_run builds each shipped config's jobs with the keys they had when
    recorded; no job runs and no family is drawn."""
    keys, seed_keys = [], []

    def stored(unit):
        if isinstance(unit, harness.FamilySeed):  # each family file's digest stubbed
            seed_keys.append(unit.key)
            return {name: hashlib.sha256(f"{unit.seed}/{name}".encode()).hexdigest()
                    for name in harness._seed_files(unit.cfg.family.flip_grid)}
        keys.append(unit.key)
        return unit.row()

    monkeypatch.setattr(harness, "_stored", stored)
    found = {}
    for path in SHIPPED:
        cfg = load_config(path)
        keys.clear()
        seed_keys.clear()
        cmd_run(cfg, tmp_path)
        found[path.relative_to(ROOT).as_posix()] = (
            len(keys), hashlib.sha256("\n".join(keys).encode()).hexdigest(),
            hashlib.sha256("\n".join(seed_keys).encode()).hexdigest(),
        )
    assert found == PINNED_KEYS


def test_cli_help_documents_columns(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    out = capsys.readouterr().out
    assert "final_target_acc" in out


@pytest.mark.parametrize(
    "args, code",
    [
        (["run"], EXIT_CONFIG),  # no --config
        (["run", "--config", "{cfg}", "--bogus"], EXIT_CONFIG),
        (["run", "--config", "{cfg}", "--jobs", "x"], EXIT_CONFIG),
        (["run", "--config", "{cfg}", "--arm", "single"], EXIT_CONFIG),
        (["report", "--config", "{cfg}", "--arm", "single"], EXIT_CONFIG),
        (["report"], EXIT_CONFIG),  # neither --config nor --out
        (["run", "--help"], EXIT_OK),
    ],
)
def test_usage_errors_exit_as_config_errors(tmp_path, args, code):
    """argparse's own usage exit, 2, would read as EXIT_JOBS (all jobs failed)."""
    path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "tawt_lab", *(a.format(cfg=path) for a in args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "usage: tawt-lab" in (proc.stdout if code == EXIT_OK else proc.stderr)
    assert not (tmp_path / "out").exists()


def test_flip_sweep_script_stops_at_a_failed_report(tmp_path, monkeypatch, capsys):
    """scripts/flip_sweep.py returns report's exit code and prints no table
    when report fails, instead of the table of an older curves.csv."""
    (tmp_path / "report").mkdir()
    (tmp_path / "report" / "curves.csv").write_text("arm,target_size,mean_acc\nsingle,100,0.5\n")
    calls = []

    def lab(argv):
        calls.append(argv[0])
        return EXIT_OK if argv[0] == "run" else EXIT_IO

    monkeypatch.setattr(harness, "main", lab)
    monkeypatch.setattr(sys, "argv", ["flip_sweep.py", "--out", str(tmp_path)])
    script = runpy.run_path(str(ROOT / "scripts" / "flip_sweep.py"))
    assert script["main"]() == EXIT_IO
    assert calls == ["run", "report"]
    assert capsys.readouterr().out == ""


def test_weight_identification_script_reads_the_jobs_summary_lists(tmp_path, monkeypatch, capsys):
    """scripts/weight_identification.py reports the successful jobs summary.csv
    lists, each from its own runs/<arm>/seed<k>/n<size>/weights.csv: a stray
    seed directory is not read, a job at another target size is, and an error
    row is counted apart instead of parsed as a result."""
    header = ",".join(harness.SUMMARY_COLUMNS)
    rows = [
        "joint-fixed,0,100,20,0+1,0.5,1.5,,t",
        "joint-adaptive,0,100,20,0+1,0.75,1.25,,t",
        "joint-adaptive,1,100,,0+1,,,ValueError: boom,t",
        "joint-adaptive,2,40,50,0+1,0.25,1.75,,t",
    ]
    (tmp_path / "summary.csv").write_text("\n".join([header, *rows]) + "\n")
    finals = {"seed0/n100": "0.5,0.4,0.1", "seed2/n40": "0.5,0.1,0.4", "seed7/n100": "0.5,0.4,0.1"}
    for job, weights in finals.items():
        job_dir = tmp_path / "runs" / "joint-adaptive" / job
        job_dir.mkdir(parents=True)
        (job_dir / "weights.csv").write_text(f"step,w_0,w_1,w_2\n0,0.4,0.3,0.3\n60,{weights}\n")
    monkeypatch.setattr(harness, "main", lambda argv: EXIT_OK)
    monkeypatch.setattr(sys, "argv", ["weight_identification.py", "--out", str(tmp_path)])
    script = runpy.run_path(str(ROOT / "scripts" / "weight_identification.py"))
    assert script["main"]() == EXIT_OK
    out = capsys.readouterr().out
    assert "seed7" not in out
    assert "seed0/n100: target=0.5000 copy=4.000e-01 distractor=1.000e-01" in out
    assert "seed2/n40: target=0.5000 copy=1.000e-01 distractor=4.000e-01" in out
    assert "copy outweighs distractor in 1/2 jobs" in out
    assert "1 failed jobs left out" in out
    assert "mean accuracy joint-adaptive: 0.5000" in out
    assert "mean accuracy joint-fixed: 0.5000" in out


def test_distance_script_reads_the_out_dir_its_config_names(tmp_path, monkeypatch, capsys):
    """Without --out, scripts/distance_curve.py reads distance.csv from the
    out_dir of its config, the one place that names it."""
    out = tmp_path / harness.load_config(ROOT / "scripts/configs/distance_curve.json").out_dir
    out.mkdir(parents=True)
    (out / "distance.csv").write_text("flip_rate,distance\r\n0.5,0.25\r\n0.5,0.75\r\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "main", lambda argv: EXIT_OK)
    monkeypatch.setattr(sys, "argv", ["distance_curve.py"])
    script = runpy.run_path(str(ROOT / "scripts" / "distance_curve.py"))
    assert script["main"]() == EXIT_OK
    assert "flip 0.5: +0.5000  (n=2)" in capsys.readouterr().out


def test_readme_cli_section_matches_parser():
    """Every --flag README's CLI section names exists on some subcommand and
    every subcommand flag is named there; its flag table gives each flag
    the subcommands that take it; its exit-code sentence lists the EXIT_*
    codes with their meanings."""
    parser = harness._build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    taken = {}
    for name, sub in subcommands.choices.items():
        for action in sub._actions:
            for opt in action.option_strings:
                if opt.startswith("--") and opt != "--help":
                    taken.setdefault(opt, set()).add(name)
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == set(taken)
    table = re.findall(r"^\| `(--[a-z-]+)[^`|]*` \| ([^|]*) \|", section, re.MULTILINE)
    assert {flag: set(re.findall(r"`([a-z]+)`", subs)) for flag, subs in table} == taken
    assert len(table) == len(taken)
    sentence = " ".join(section.split("Exit codes: ", 1)[1].split(".", 1)[0].split())
    codes = {int(n): meaning for n, meaning in re.findall(r"(\d) ([^,]+)", sentence)}
    assert sorted(codes) == [EXIT_OK, EXIT_CONFIG, EXIT_JOBS, EXIT_IO]
    assert codes[EXIT_OK] == "success"
    assert codes[EXIT_CONFIG] == "config or usage error"
    assert codes[EXIT_JOBS] == "all jobs failed"
    assert codes[EXIT_IO] == "IO/integrity error"
