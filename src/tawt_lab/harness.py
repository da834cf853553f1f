"""Experiment harness: config parsing, task-family caching, sweep execution,
and report emission, behind a four-subcommand CLI.

    tawt-lab generate --config cfg.json    cache the task family + manifest
    tawt-lab run      --config cfg.json    execute every (arm x seed x size) job
    tawt-lab distance --config cfg.json    task-distance curve -> distance.csv
    tawt-lab report   --config cfg.json    aggregate results -> figure-ready CSVs

Configs are versioned JSON (see `example_config`). Exit codes: 0 success,
1 config error (a teacher that misses its accuracy threshold included),
2 all jobs failed, 3 IO/integrity error. The --jobs flag
(or the TAWT_LAB_JOBS environment variable) sets how many jobs may run
concurrently; results are identical either way because every job derives
its own seed stream from the master seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .distance import DistanceConfig, distance_curve, write_distance_csv
from .model import save_model
from .numerics import Rng, float_repr17, hash64
from .taskgen import (
    TARGET_TASK_ID,
    FitFailureError,
    TaskSpec,
    fit_flip_teachers,
    generate_base_dataset,
    load_dataset,
    sample_task_data,
    save_dataset,
)
from .training import (
    TrainConfig,
    atomic_write_text,
    default_initial_weights,
    evaluate,
    joint_train,
    pretrain_then_finetune,
    tawt,
    train_single_task,
)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_JOBS = 2
EXIT_IO = 3

SUMMARY_COLUMNS = [
    "arm",
    "seed",
    "target_size",
    "ratio",
    "flip_rate",
    "final_target_acc",
    "final_target_loss",
    "error",
    "timestamp",
]


class ConfigError(ValueError):
    """A config file is malformed; the message names the offending field."""


@dataclass
class FamilyConfig:
    base_n: int = 200
    input_dim: int = 20
    n_classes: int = 10
    teacher_hidden: int = 256
    teacher_epochs: int = 400
    # At desk scale a 200-example base gives 2 minibatches per epoch, so the
    # teacher lr runs hotter than the students'; interpolation then lands
    # near epoch 85 instead of needing thousands.
    teacher_lr: float = 3e-3
    teacher_batch: int = 100
    teacher_accuracy_threshold: float = 1.0
    flip_grid: list = field(default_factory=lambda: [0.0])
    source_n: int = 2000
    target_sizes: list = field(default_factory=lambda: [100])
    eval_n: int = 1000

    def teacher_train_config(self) -> TrainConfig:
        return TrainConfig(
            optimizer="adam",
            lr=self.teacher_lr,
            batch_size=self.teacher_batch,
            epochs=self.teacher_epochs,
            teacher_accuracy_threshold=self.teacher_accuracy_threshold,
        )


@dataclass
class ArmConfig:
    name: str
    source_flips: list = field(default_factory=list)
    overrides: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    master_seed: int
    seeds: list
    out_dir: str
    family: FamilyConfig
    train: dict
    arms: list
    distance: dict = field(default_factory=dict)
    save_checkpoints: bool = False


def _dataclass_from_dict(cls, raw: dict, where: str):
    known = {f.name for f in fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}


def _check_train_dict(raw: dict, where: str) -> dict:
    unknown = set(raw) - _TRAIN_FIELDS
    if unknown:
        raise ConfigError(f"{where}: unknown training field(s) {sorted(unknown)}")
    return dict(raw)


def parse_config(raw: dict, where: str = "config") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: top level must be a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{where}: schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    seeds = raw.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"{where}: 'seeds' must be a nonempty list of integers")
    out_dir = raw.get("out_dir")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"{where}: 'out_dir' must be a nonempty string")
    family = _dataclass_from_dict(FamilyConfig, raw.get("family", {}), f"{where}.family")
    if not family.flip_grid:
        raise ConfigError(f"{where}.family.flip_grid: must be nonempty")
    if any(not 0.0 <= q <= 1.0 for q in family.flip_grid):
        raise ConfigError(f"{where}.family.flip_grid: flip rates must lie in [0, 1]")
    if not family.target_sizes:
        raise ConfigError(f"{where}.family.target_sizes: must be nonempty")
    train = _check_train_dict(raw.get("train", {}), f"{where}.train")
    arms_raw = raw.get("arms")
    if not isinstance(arms_raw, list) or not arms_raw:
        raise ConfigError(f"{where}: 'arms' must be a nonempty list")
    arms = []
    names = set()
    for i, arm_raw in enumerate(arms_raw):
        arm = _dataclass_from_dict(ArmConfig, arm_raw, f"{where}.arms[{i}]")
        if not arm.name:
            raise ConfigError(f"{where}.arms[{i}].name: must be nonempty")
        if arm.name in names:
            raise ConfigError(f"{where}.arms[{i}].name: duplicate arm name {arm.name!r}")
        names.add(arm.name)
        _check_train_dict(arm.overrides, f"{where}.arms[{i}].overrides")
        for q in arm.source_flips:
            if q not in family.flip_grid:
                raise ConfigError(
                    f"{where}.arms[{i}].source_flips: flip {q} not in family.flip_grid"
                )
        cfg = _arm_train_config(train, arm, seed=0)
        try:
            cfg.validate()
        except ValueError as exc:
            raise ConfigError(f"{where}.arms[{i}]: {exc}") from None
        if cfg.paradigm != "single" and not arm.source_flips:
            raise ConfigError(
                f"{where}.arms[{i}]: paradigm {cfg.paradigm!r} needs source_flips"
            )
        arms.append(arm)
    return ExperimentConfig(
        master_seed=int(raw.get("master_seed", 0)),
        seeds=[int(s) for s in seeds],
        out_dir=out_dir,
        family=family,
        train=train,
        arms=arms,
        distance=raw.get("distance", {}),
        save_checkpoints=bool(raw.get("save_checkpoints", False)),
    )


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return parse_config(raw, where=str(path))


def _arm_train_config(train: dict, arm: ArmConfig, seed: int) -> TrainConfig:
    merged = dict(train)
    merged.update(arm.overrides)
    merged["seed"] = seed
    return TrainConfig(**merged)


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config_key(cfg: ExperimentConfig) -> str:
    payload = json.dumps(
        {"master_seed": cfg.master_seed, "seeds": cfg.seeds, "family": asdict(cfg.family)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _family_dir(out_dir: Path) -> Path:
    return out_dir / "family"


def _seed_dir(out_dir: Path, seed: int) -> Path:
    return _family_dir(out_dir) / f"seed{seed}"


def _source_name(q: float) -> str:
    return f"source_q{q:g}"


def _dataset_file(name: str) -> str:
    return f"{name}.npz"


def _family_files(cfg: ExperimentConfig, seed: int) -> list[str]:
    names = ["target_train", "target_eval"] + [_source_name(q) for q in cfg.family.flip_grid]
    return [f"seed{seed}/{_dataset_file(name)}" for name in names]


def _generate_family_seed(cfg: ExperimentConfig, seed: int, out_dir: Path) -> None:
    fam = cfg.family
    family_seed = hash64(cfg.master_seed, "family", seed)
    rng = Rng(family_seed)
    specs = [
        TaskSpec(
            flip_rate=q,
            n_examples=fam.base_n,
            input_dim=fam.input_dim,
            n_classes=fam.n_classes,
            teacher_hidden_width=fam.teacher_hidden,
            seed=family_seed,
        )
        for q in sorted(set(fam.flip_grid) | {0.0})
    ]
    base = generate_base_dataset(fam.base_n, fam.input_dim, fam.n_classes, rng.spawn("base"))
    teachers = fit_flip_teachers(specs, base, fam.teacher_train_config())
    seed_dir = _seed_dir(out_dir, seed)
    seed_dir.mkdir(parents=True, exist_ok=True)
    target_full = sample_task_data(
        teachers[0.0], max(fam.target_sizes), fam.input_dim,
        rng.spawn("target-draw"), TARGET_TASK_ID,
    )
    save_dataset(target_full, seed_dir / _dataset_file("target_train"))
    target_eval = sample_task_data(
        teachers[0.0], fam.eval_n, fam.input_dim, rng.spawn("eval-draw"), TARGET_TASK_ID
    )
    save_dataset(target_eval, seed_dir / _dataset_file("target_eval"))
    for q in fam.flip_grid:
        source = sample_task_data(
            teachers[q], fam.source_n, fam.input_dim,
            rng.spawn("source-draw", round(q * 10000)), _source_name(q),
        )
        save_dataset(source, seed_dir / _dataset_file(_source_name(q)))


def _manifest_path(out_dir: Path) -> Path:
    return _family_dir(out_dir) / "manifest.json"


def _load_manifest(out_dir: Path) -> dict | None:
    path = _manifest_path(out_dir)
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _manifest_current(manifest: dict | None, cfg: ExperimentConfig) -> bool:
    """The manifest was written for this config and lists exactly the files
    _family_files names, so a family in an earlier layout is regenerated."""
    if not manifest or manifest.get("config_key") != _config_key(cfg):
        return False
    expected = {relpath for seed in cfg.seeds for relpath in _family_files(cfg, seed)}
    return set(manifest.get("files", {})) == expected


def _hashes_match(manifest: dict, out_dir: Path) -> bool:
    for relpath, digest in manifest.get("files", {}).items():
        path = _family_dir(out_dir) / relpath
        if not path.exists() or _sha256_file(path) != digest:
            return False
    return True


def cmd_generate(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Cache the task family on disk; reuses an intact matching cache."""
    manifest = _load_manifest(out_dir)
    if _manifest_current(manifest, cfg) and _hashes_match(manifest, out_dir):
        return {"cache_hit": True, "manifest": manifest}
    files = {}
    for seed in cfg.seeds:
        _generate_family_seed(cfg, seed, out_dir)
        for relpath in _family_files(cfg, seed):
            files[relpath] = _sha256_file(_family_dir(out_dir) / relpath)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config_key": _config_key(cfg),
        "master_seed": cfg.master_seed,
        "seeds": cfg.seeds,
        "family": asdict(cfg.family),
        "files": files,
    }
    _family_dir(out_dir).mkdir(parents=True, exist_ok=True)
    atomic_write_text(_manifest_path(out_dir), json.dumps(manifest, indent=2, sort_keys=True))
    return {"cache_hit": False, "manifest": manifest}


class IntegrityError(RuntimeError):
    """A cached dataset no longer matches the manifest hash."""


def _verify_family(cfg: ExperimentConfig, out_dir: Path) -> dict:
    manifest = _load_manifest(out_dir)
    if not _manifest_current(manifest, cfg):
        return cmd_generate(cfg, out_dir)["manifest"]
    for relpath, digest in manifest["files"].items():
        path = _family_dir(out_dir) / relpath
        if not path.exists():
            raise IntegrityError(f"cached dataset missing: {path}")
        if _sha256_file(path) != digest:
            raise IntegrityError(
                f"cached dataset {path} does not match its manifest hash; "
                "delete the family directory to regenerate"
            )
    return manifest


def _job_seed(master_seed: int, seed: int, target_size: int) -> int:
    # Deliberately arm-independent: arms sharing (seed, size) share their
    # run streams, so an adaptive arm with eta = 0 reproduces its
    # fixed-weight counterpart bit for bit.
    return hash64(master_seed, "job", seed, target_size)


def _job_key(payload: dict) -> str:
    """SHA-256 of everything that decides a job's row: the merged TrainConfig,
    the arm's source flips, the job seed, the target size and the family."""
    arm = ArmConfig(**payload["arm"])
    job_seed = _job_seed(payload["master_seed"], payload["seed"], payload["target_size"])
    blob = json.dumps(
        {
            "train": asdict(_arm_train_config(payload["train"], arm, job_seed)),
            "source_flips": arm.source_flips,
            "job_seed": job_seed,
            "target_size": payload["target_size"],
            "manifest_key": payload["manifest_key"],
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _error_row(payload: dict, exc: BaseException) -> dict:
    return {
        "arm": payload["arm"]["name"],
        "seed": str(payload["seed"]),
        "target_size": str(payload["target_size"]),
        "ratio": "",
        "flip_rate": "+".join(f"{q:g}" for q in payload["arm"]["source_flips"]),
        "final_target_acc": "",
        "final_target_loss": "",
        "error": f"{type(exc).__name__}: {exc}",
    }


def _execute_job_safe(payload: dict) -> dict:
    """_execute_job, with failures folded into an error-tagged summary row."""
    try:
        return _execute_job(payload)
    except Exception as exc:  # error rows keep the sweep going
        return _error_row(payload, exc)


def _run_in_pool(payloads: list[dict], jobs: int) -> list[dict]:
    """_execute_job_safe over payloads in worker processes, one row each.

    A worker that dies (killed, crashed interpreter) breaks the whole pool
    and fails every job still in it. Those jobs are rerun one at a time,
    each in a fresh single-worker pool, so only a job that kills its own
    worker again is lost, as an error row.
    """
    rows: list = [None] * len(payloads)
    broken = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_execute_job_safe, payload) for payload in payloads]
        for i, future in enumerate(futures):
            try:
                rows[i] = future.result()
            except BrokenProcessPool:
                broken.append(i)
            except Exception as exc:  # the payload or row failed to cross processes
                rows[i] = _error_row(payloads[i], exc)
    for i in broken:
        with ProcessPoolExecutor(max_workers=1) as pool:
            try:
                rows[i] = pool.submit(_execute_job_safe, payloads[i]).result()
            except Exception as exc:
                rows[i] = _error_row(payloads[i], exc)
    return rows


def _execute_job(payload: dict) -> dict:
    """Run one (arm, seed, target_size) job from cached datasets."""
    out_dir = Path(payload["out_dir"])
    arm = ArmConfig(**payload["arm"])
    seed = payload["seed"]
    target_size = payload["target_size"]
    cfg = _arm_train_config(
        payload["train"], arm, _job_seed(payload["master_seed"], seed, target_size)
    )
    seed_dir = _seed_dir(out_dir, seed)
    train_path = seed_dir / _dataset_file("target_train")
    target = load_dataset(train_path, TARGET_TASK_ID).take(target_size)
    eval_data = load_dataset(seed_dir / _dataset_file("target_eval"), TARGET_TASK_ID)
    sources = [
        load_dataset(seed_dir / _dataset_file(_source_name(q)), _source_name(q))
        for q in arm.source_flips
    ]

    if cfg.paradigm == "single":
        model, record = train_single_task(target, cfg, eval_data=eval_data)
    elif cfg.weighted:
        model, record = tawt(sources, target, cfg, eval_data=eval_data)
    elif cfg.paradigm == "pretrain":
        weights = default_initial_weights(cfg, sources, target)
        model, record = pretrain_then_finetune(sources, target, weights, cfg, eval_data=eval_data)
    else:
        weights = default_initial_weights(cfg, sources, target)
        model, record = joint_train(sources, target, weights, cfg, eval_data=eval_data)

    final = evaluate(model, TARGET_TASK_ID, eval_data)
    job_dir = out_dir / "runs" / arm.name / f"seed{seed}" / f"n{target_size}"
    job_dir.mkdir(parents=True, exist_ok=True)
    if payload.get("save_checkpoints"):
        save_model(model, job_dir / "model.bin")
        record.checkpoint_path = str(job_dir / "model.bin")
    atomic_write_text(job_dir / "record.json", record.to_json())
    record.write_metrics_csv(job_dir / "metrics.csv")
    record.write_weights_csv(job_dir / "weights.csv")
    row = {
        "arm": arm.name,
        "seed": str(seed),
        "target_size": str(target_size),
        "ratio": float_repr17(payload["source_n"] / target_size) if sources else "0",
        "flip_rate": "+".join(f"{q:g}" for q in arm.source_flips),
        "final_target_acc": float_repr17(final.accuracy),
        "final_target_loss": float_repr17(final.mean_loss),
        "error": "",
    }
    atomic_write_text(
        job_dir / "row.json",
        json.dumps({"job_key": payload["job_key"], "row": row}, indent=2),
    )
    return row


def cmd_run(
    cfg: ExperimentConfig,
    out_dir: Path,
    jobs: int = 1,
    arm_filter: str | None = None,
) -> dict:
    """Execute every (arm x seed x target_size) job and write summary.csv.

    A completed job is reused on rerun only if its stored job key (see
    _job_key) still matches, so editing an arm or the train block reruns
    it. A failing job contributes an error-tagged row; the command only
    counts as failed when every job fails.
    """
    manifest = _verify_family(cfg, out_dir)
    manifest_key = manifest["config_key"]
    arms = [a for a in cfg.arms if arm_filter is None or a.name == arm_filter]
    if not arms:
        raise ConfigError(f"--arm {arm_filter!r} matches no configured arm")
    payloads = []
    for arm in arms:
        for seed in cfg.seeds:
            for target_size in cfg.family.target_sizes:
                payloads.append(
                    {
                        "out_dir": str(out_dir),
                        "arm": asdict(arm),
                        "seed": seed,
                        "target_size": target_size,
                        "train": cfg.train,
                        "master_seed": cfg.master_seed,
                        "source_n": cfg.family.source_n,
                        "manifest_key": manifest_key,
                        "save_checkpoints": cfg.save_checkpoints,
                    }
                )
                payloads[-1]["job_key"] = _job_key(payloads[-1])

    rows: list[dict | None] = [None] * len(payloads)
    pending = []
    n_skipped = 0
    for i, payload in enumerate(payloads):
        arm_name = payload["arm"]["name"]
        job_dir = (
            out_dir / "runs" / arm_name
            / f"seed{payload['seed']}" / f"n{payload['target_size']}"
        )
        row_path = job_dir / "row.json"
        if row_path.exists():
            try:
                stored = json.loads(row_path.read_text())
            except (OSError, json.JSONDecodeError):
                stored = None
            if stored and stored.get("job_key") == payload["job_key"]:
                rows[i] = dict(stored["row"])
                n_skipped += 1
                continue
        pending.append(i)

    if jobs > 1 and len(pending) > 1:
        for i, row in zip(pending, _run_in_pool([payloads[i] for i in pending], jobs)):
            rows[i] = row
    else:
        for i in pending:
            rows[i] = _execute_job_safe(payloads[i])

    timestamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        row = dict(row)
        row.setdefault("timestamp", timestamp)
        lines.append(",".join(row.get(col, "") for col in SUMMARY_COLUMNS))
    atomic_write_text(out_dir / "summary.csv", "\n".join(lines) + "\n")
    n_failed = sum(1 for row in rows if row.get("error"))
    return {
        "summary": out_dir / "summary.csv",
        "n_jobs": len(rows),
        "n_failed": n_failed,
        "n_skipped": n_skipped,
    }


def _distance_config(cfg: ExperimentConfig) -> tuple[list, str, DistanceConfig]:
    fam = cfg.family
    block = dict(cfg.distance)
    flip_grid = block.pop("flip_grid", fam.flip_grid)
    weights_mode = block.pop("weights_mode", "uniform")
    base = {
        "input_dim": fam.input_dim,
        "n_classes": fam.n_classes,
        "hidden": cfg.train.get("hidden", 256),
        "base_n": fam.base_n,
        "teacher_hidden": fam.teacher_hidden,
        "teacher_epochs": fam.teacher_epochs,
        "teacher_lr": fam.teacher_lr,
        "source_n": fam.source_n,
        "eval_n": fam.eval_n,
        "seeds": tuple(cfg.seeds),
        "master_seed": cfg.master_seed,
    }
    known = {f.name for f in fields(DistanceConfig)}
    unknown = set(block) - known
    if unknown:
        raise ConfigError(f"config.distance: unknown field(s) {sorted(unknown)}")
    base.update(block)
    if "seeds" in block:
        base["seeds"] = tuple(block["seeds"])
    return list(flip_grid), weights_mode, DistanceConfig(**base)


def cmd_distance(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Distance-curve sweep; writes distance.csv under the output directory."""
    flip_grid, weights_mode, dist_cfg = _distance_config(cfg)
    estimates = distance_curve(flip_grid, weights_mode, dist_cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "distance.csv"
    write_distance_csv(estimates, path)
    return path


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size <= 1:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / np.sqrt(arr.size))


def cmd_report(results_dir: Path, arm_filter: str | None = None) -> dict:
    """Aggregate summary.csv into curves.csv plus per-arm weight trajectories."""
    summary_path = results_dir / "summary.csv"
    if not summary_path.exists():
        raise IntegrityError(f"no summary.csv under {results_dir}")
    with open(summary_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows = [r for r in rows if not r["error"] and (arm_filter is None or r["arm"] == arm_filter)]
    if not rows:
        raise IntegrityError(f"{summary_path}: no successful rows to report")
    report_dir = results_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)

    groups: dict[tuple, list[dict]] = {}
    order = []
    for row in rows:
        key = (row["arm"], row["target_size"], row["flip_rate"], row["ratio"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    lines = ["arm,target_size,flip_rate,ratio,n_seeds,mean_acc,stderr_acc,mean_loss,stderr_loss"]
    for key in order:
        arm, size, flip, ratio = key
        accs = [float(r["final_target_acc"]) for r in groups[key]]
        losses = [float(r["final_target_loss"]) for r in groups[key]]
        mean_acc, se_acc = _mean_stderr(accs)
        mean_loss, se_loss = _mean_stderr(losses)
        lines.append(
            f"{arm},{size},{flip},{ratio},{len(accs)},"
            f"{float_repr17(mean_acc)},{float_repr17(se_acc)},"
            f"{float_repr17(mean_loss)},{float_repr17(se_loss)}"
        )
    curves_path = report_dir / "curves.csv"
    atomic_write_text(curves_path, "\n".join(lines) + "\n")

    trajectory_paths = []
    runs_dir = results_dir / "runs"
    arm_names = sorted({row["arm"] for row in rows})
    for arm in arm_names:
        weight_files = sorted((runs_dir / arm).glob("seed*/n*/weights.csv"))
        if not weight_files:
            continue
        stacks = []
        steps = None
        for path in weight_files:
            with open(path, newline="") as fh:
                body = list(csv.reader(fh))[1:]
            file_steps = [int(r[0]) for r in body]
            stacks.append(np.array([[float(x) for x in r[1:]] for r in body]))
            if steps is None:
                steps = file_steps
            elif steps != file_steps:
                raise IntegrityError(f"{path}: weight trajectory steps disagree within arm {arm}")
        mean_traj = np.mean(stacks, axis=0)
        lines = ["step," + ",".join(f"w_{i}" for i in range(mean_traj.shape[1]))]
        for step, row in zip(steps, mean_traj):
            lines.append(str(step) + "," + ",".join(float_repr17(x) for x in row))
        path = report_dir / f"weights_{arm}.csv"
        atomic_write_text(path, "\n".join(lines) + "\n")
        trajectory_paths.append(path)
    return {"curves": curves_path, "trajectories": trajectory_paths}


def example_config() -> dict:
    """A small, complete config; the documented reference for the schema."""
    return {
        "schema_version": SCHEMA_VERSION,
        "master_seed": 0,
        "seeds": [0, 1],
        "out_dir": "results/demo",
        "family": {
            "base_n": 120,
            "input_dim": 10,
            "n_classes": 5,
            "teacher_hidden": 128,
            "teacher_epochs": 400,
            "flip_grid": [0.0, 1.0],
            "source_n": 800,
            "target_sizes": [50],
            "eval_n": 500,
        },
        "train": {"hidden": 64, "epochs": 10, "batch_size": 50},
        "arms": [
            {"name": "single", "overrides": {"paradigm": "single"}},
            {
                "name": "transfer-q0",
                "source_flips": [0.0],
                "overrides": {"paradigm": "pretrain", "finetune_epochs": 10},
            },
            {
                "name": "adaptive-joint",
                "source_flips": [0.0, 1.0],
                "overrides": {"paradigm": "joint", "weighted": True},
            },
        ],
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tawt-lab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("generate", "Generate and cache the task family plus its manifest."),
        ("run", "Run every configured (arm x seed x target size) job; write summary.csv "
                "with columns " + ",".join(SUMMARY_COLUMNS) + "."),
        ("distance", "Estimate the task-distance curve; write distance.csv with columns "
                     "flip_rate,seed,source_risk_estimate,oracle_risk_estimate,distance,aux_accuracy."),
        ("report", "Aggregate a results directory into curves.csv (mean and stderr per arm "
                   "and sweep point) and per-arm mean weight-trajectory CSVs."),
    ]:
        p = sub.add_parser(name, help=doc, description=doc)
        p.add_argument("--config", required=name != "report", help="experiment config JSON")
        p.add_argument("--out", help="override the config's out_dir")
        if name == "run":
            p.add_argument("--jobs", type=int, default=None,
                           help="max concurrent jobs (default: $TAWT_LAB_JOBS or 1)")
            p.add_argument("--seed-override", type=int, default=None,
                           help="replace the config's master seed")
            p.add_argument("--arm", default=None, help="run only the named arm")
        if name == "report":
            p.add_argument("--arm", default=None, help="report only the named arm")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            if args.out:
                results_dir = Path(args.out)
            elif args.config:
                results_dir = Path(load_config(args.config).out_dir)
            else:
                print("report: need --config or --out to locate results", file=sys.stderr)
                return EXIT_CONFIG
            result = cmd_report(results_dir, arm_filter=args.arm)
            print(f"wrote {result['curves']} and {len(result['trajectories'])} trajectory files")
            return EXIT_OK

        cfg = load_config(args.config)
        out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
        if args.command == "generate":
            result = cmd_generate(cfg, out_dir)
            state = "cache hit" if result["cache_hit"] else "generated"
            print(f"family under {out_dir} ({state})")
            return EXIT_OK
        if args.command == "run":
            if args.seed_override is not None:
                cfg.master_seed = args.seed_override
            jobs = args.jobs
            if jobs is None:
                jobs = int(os.environ.get("TAWT_LAB_JOBS", "1"))
            result = cmd_run(cfg, out_dir, jobs=jobs, arm_filter=args.arm)
            print(
                f"{result['n_jobs']} jobs ({result['n_skipped']} reused, "
                f"{result['n_failed']} failed) -> {result['summary']}"
            )
            return EXIT_JOBS if result["n_failed"] == result["n_jobs"] else EXIT_OK
        if args.command == "distance":
            path = cmd_distance(cfg, out_dir)
            print(f"wrote {path}")
            return EXIT_OK
    except (ConfigError, FitFailureError) as exc:  # a teacher that misses needs more epochs
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK
