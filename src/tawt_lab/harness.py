"""Experiment harness: config parsing, task-family caching, sweep execution,
and report emission, behind a four-subcommand CLI.

    tawt-lab generate --config cfg.json    cache the task family, a manifest per seed
    tawt-lab run      --config cfg.json    execute every (arm x seed x size) job
    tawt-lab distance --config cfg.json    task-distance curve -> distance.csv
    tawt-lab report   --config cfg.json    summary.csv's jobs -> figure-ready CSVs

Configs are versioned JSON; scripts/configs/ holds complete ones. Exit
codes: 0 success; 1 config or usage error, reported before anything is
written; 2 all jobs failed; 3 IO/integrity error. Config errors include
a value of the wrong type or outside its range in any block, a seed in a
train block, --jobs below 1, a teacher that misses its accuracy
threshold, an arm name that is empty, "." or ".." or has a character
outside [A-Za-z0-9._+-], and an arm that TrainConfig.validate rejects: a
weighted single arm, a single arm with sources or another paradigm
without any, sample weights off pretrain or on other than one source, or
sample_split off pretrain. So is a sample_split that leaves a part empty
at some family.target_sizes entry, and a repeat in seeds, target_sizes,
flip_grid (as {q:g}, its file name) or an arm's source_flips. `run` builds
one Job per (arm, seed, target size), its TrainConfig merged once, and a
worker trains it with one tawt call. --jobs (default 1) sets how many
jobs may run concurrently; results are identical either way because
every job derives its own seed stream from the master seed.

One cache rule serves the family and the jobs: each is keyed by the
hashes of what it reads. A seed's key covers master_seed, the seed and
the family block, target_sizes only as their max; family/seed<k>/
manifest.json holds it and the seed's file digests. A job's key covers
its merged TrainConfig, source flips, target size and the digests of the
files it loads. So a sweep that grows pays only for what it adds.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import re
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .distance import DistanceConfig, distance_curve, write_distance_csv
from .numerics import Rng, float_repr17, hash64
from .taskgen import TARGET_TASK_ID, FitFailureError, load_dataset, sample_task_data, save_dataset
from .training import FamilyConfig, TrainConfig, atomic_write_text, split_size, tawt
from .weighting import init_weights

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
class ArmConfig:
    name: str
    source_flips: list[float] = field(default_factory=list)
    overrides: dict = field(default_factory=dict)

    def validate(self) -> None:
        """The name is a directory under runs/ and a summary.csv field, so it
        is nonempty, of [A-Za-z0-9._+-] only, and not "." or ".."."""
        if not re.fullmatch(r"[A-Za-z0-9._+-]+", self.name) or self.name in (".", ".."):
            raise ValueError(
                f"name: must be nonempty, of [A-Za-z0-9._+-] only and not '.' or '..', "
                f"got {self.name!r}"
            )
        if len(set(self.source_flips)) < len(self.source_flips):
            raise ValueError(f"source_flips must not repeat, got {self.source_flips}")


@dataclass
class ExperimentConfig:
    seeds: list[int]
    out_dir: str
    arms: list[ArmConfig]
    family: FamilyConfig = field(default_factory=FamilyConfig)
    train: dict = field(default_factory=dict)
    master_seed: int = 0
    distance: DistanceConfig = field(default_factory=DistanceConfig)

    def validate(self) -> None:
        for name in ("seeds", "out_dir", "arms"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must not repeat, got {self.seeds}")


_BLOCKS = {cls.__name__: cls for cls in (ArmConfig, DistanceConfig, FamilyConfig)}
_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "dict": dict,
          "None": type(None)}


def _checked_fields(cls, raw, where: str) -> dict:
    """raw as keyword arguments of cls: a JSON object of cls's fields only,
    each value checked against its field's annotation."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {raw!r}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")
    return {name: _checked(value, types[name], f"{where}.{name}") for name, value in raw.items()}


def _dataclass_from_dict(cls, raw, where: str):
    """The one schema walk: cls built from raw's checked fields, then held
    to its own validate() rules. Each validate message starts with the field
    at fault, so the error names it."""
    kwargs = _checked_fields(cls, raw, where)
    try:
        block = cls(**kwargs)
    except TypeError as exc:  # a required field is missing
        raise ConfigError(f"{where}: {exc}") from None
    if hasattr(block, "validate"):
        try:
            block.validate()
        except ValueError as exc:
            raise ConfigError(f"{where}.{exc}") from None
    return block


def _checked(value, annotation: str, where: str):
    """value if it has the type annotation names ("float | None", "list[int]",
    a block such as "FamilyConfig", ...), lists and blocks walked in turn;
    never coerced. A bool is no number, an int is a float, and a float is
    finite."""
    if annotation.startswith("list["):
        if not isinstance(value, list):
            raise ConfigError(f"{where}: must be a list, got {value!r}")
        item_type = annotation[5:-1]
        return [_checked(item, item_type, f"{where}[{i}]") for i, item in enumerate(value)]
    if annotation in _BLOCKS:
        return _dataclass_from_dict(_BLOCKS[annotation], value, where)
    if not any(
        isinstance(value, _TYPES.get(kind, ())) and (kind == "bool") == isinstance(value, bool)
        for kind in annotation.split(" | ")
    ):
        raise ConfigError(f"{where}: must be {annotation}, got {value!r}")
    if isinstance(value, float) and not abs(value) < float("inf"):
        raise ConfigError(f"{where}: must be a finite number, got {value!r}")
    return value


def parse_config(raw, where: str = "config") -> ExperimentConfig:
    """The experiment raw describes. The schema walk checks every block;
    here are only the rules that span blocks."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: top level must be a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{where}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    body = {key: value for key, value in raw.items() if key not in ("schema_version", "distance")}
    cfg = _dataclass_from_dict(ExperimentConfig, body, where)
    train_blocks = [("train", cfg.train)] + [
        (f"arms[{i}].overrides", arm.overrides) for i, arm in enumerate(cfg.arms)
    ]
    for name, block in train_blocks:
        if "seed" in block:
            raise ConfigError(
                f"{where}.{name}.seed: each job's seed derives from master_seed and seeds"
            )
        _checked_fields(TrainConfig, block, f"{where}.{name}")  # validate checks each merged arm
    for i, arm in enumerate(cfg.arms):
        at = f"{where}.arms[{i}]"
        if arm.name in [earlier.name for earlier in cfg.arms[:i]]:
            raise ConfigError(f"{at}.name: duplicate arm name {arm.name!r}")
        stray = [q for q in arm.source_flips if q not in cfg.family.flip_grid]
        if stray:
            raise ConfigError(f"{at}.source_flips: flip {stray[0]} not in family.flip_grid")
        train = _arm_train_config(cfg.train, arm, seed=0)
        try:
            train.validate(len(arm.source_flips))
        except ValueError as exc:
            raise ConfigError(f"{at}: {exc}") from None
        for n in cfg.family.target_sizes if train.sample_split is not None else ():
            try:
                split_size(n, train.sample_split)
            except ValueError as exc:
                raise ConfigError(f"{at}.sample_split: {exc}") from None
    # The student width defaults to the train block's. weights_mode is still
    # accepted and checked, but has no effect: each grid point has one source,
    # whose weight is 1 under any mode. It becomes a config error once no
    # shipped config sets it (ROADMAP item 1(a)).
    distance = raw.get("distance", {})
    if isinstance(distance, dict):
        distance = {"hidden": cfg.train.get("hidden", TrainConfig.hidden), **distance}
        try:
            init_weights(distance.pop("weights_mode", "uniform"), [1])
        except ValueError as exc:
            raise ConfigError(f"{where}.distance.weights_mode: {exc}") from None
    cfg.distance = _dataclass_from_dict(DistanceConfig, distance, f"{where}.distance")
    return cfg


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
    return TrainConfig(**{**train, **arm.overrides, "seed": seed})


_HASH_CHUNK_BYTES = 1 << 20
MANIFEST = "manifest.json"


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def _seed_dir(out_dir: Path, seed: int) -> Path:
    return out_dir / "family" / f"seed{seed}"


def _source_name(q: float) -> str:
    return f"source_q{q:g}"


def _seed_files(flips: list[float]) -> list[str]:
    """The family files of one seed that a reader of these source flips loads."""
    return [f"{name}.npz" for name in ["target_train", "target_eval", *map(_source_name, flips)]]


def _seed_key(cfg: ExperimentConfig, seed: int) -> str:
    """SHA-256 of what a seed's draws read: master_seed, the seed and the
    family block, whose target_sizes enter only as the target draw's rows."""
    family = {**asdict(cfg.family), "target_sizes": max(cfg.family.target_sizes)}
    blob = json.dumps({"master_seed": cfg.master_seed, "seed": seed, "family": family},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _draw_seed(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict[str, str]:
    """Draw one seed's datasets and write its manifest; returns their digests."""
    fam = cfg.family
    family_seed = hash64(cfg.master_seed, "family", seed)
    rng = Rng(family_seed)
    teachers = fam.fit_teachers(family_seed, rng)
    seed_dir = _seed_dir(out_dir, seed)
    seed_dir.mkdir(parents=True, exist_ok=True)
    # (file, teacher's flip rate, rows, stream key, task id) in draw order. Each
    # draw goes straight to disk, so no two datasets are alive at once.
    draws = [
        ("target_train", 0.0, max(fam.target_sizes), ("target-draw",), TARGET_TASK_ID),
        ("target_eval", 0.0, fam.eval_n, ("eval-draw",), TARGET_TASK_ID),
    ] + [
        (_source_name(q), q, fam.source_n, ("source-draw", round(q * 10000)), _source_name(q))
        for q in fam.flip_grid
    ]
    for name, q, n, key, task_id in draws:
        save_dataset(
            sample_task_data(teachers[q], n, fam.input_dim, rng.spawn(*key), task_id),
            seed_dir / f"{name}.npz",
        )
    names = _seed_files(fam.flip_grid)
    for path in seed_dir.iterdir():  # files of an earlier layout
        if path.is_file() and path.name not in names and path.name != MANIFEST:
            path.unlink()
    files = {name: _sha256_file(seed_dir / name) for name in names}
    manifest = {"key": _seed_key(cfg, seed), "files": files}
    atomic_write_text(seed_dir / MANIFEST, json.dumps(manifest, indent=2, sort_keys=True))
    return files


class IntegrityError(RuntimeError):
    """A cached dataset no longer matches the manifest hash."""


def _fault(seed_dir: Path, files: dict) -> Path | None:
    """The first file a manifest lists that is missing or fails its hash."""
    for name, digest in files.items():
        path = seed_dir / name
        if not path.is_file() or _sha256_file(path) != digest:
            return path
    return None


def _family(cfg: ExperimentConfig, out_dir: Path, strict: bool) -> tuple[dict, list[int]]:
    """The one cache rule of generate and run: each seed's {file: digest} and
    the seeds drawn to get them. A seed is reused when its manifest holds its
    key and names exactly its files, and each file passes its hash; otherwise
    it is drawn again. Under strict, a current manifest whose file is missing
    or fails its hash is an IntegrityError instead."""
    names = _seed_files(cfg.family.flip_grid)
    family, drawn = {}, []
    for seed in cfg.seeds:
        seed_dir = _seed_dir(out_dir, seed)
        try:
            manifest = json.loads((seed_dir / MANIFEST).read_text())
        except (OSError, ValueError):  # absent, unreadable or not JSON
            manifest = None
        files = manifest.get("files") if isinstance(manifest, dict) else None
        if (isinstance(files, dict) and set(files) == set(names)
                and manifest.get("key") == _seed_key(cfg, seed)):
            fault = _fault(seed_dir, files)
            if fault is None:
                family[seed] = files
                continue
            if strict:
                raise IntegrityError(
                    f"cached dataset {fault} is missing or does not match its manifest hash; "
                    "`tawt-lab generate` draws its seed again"
                )
        family[seed] = _draw_seed(cfg, seed, out_dir)
        drawn.append(seed)
    return family, drawn


def cmd_generate(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Cache the task family on disk, drawing only the seeds whose cache is
    not current; returns each seed's file digests and the seeds drawn."""
    family, drawn = _family(cfg, out_dir, strict=False)
    return {"files": family, "drawn": drawn}


def _job_seed(master_seed: int, seed: int, target_size: int) -> int:
    # Deliberately arm-independent: arms sharing (seed, size) share their
    # run streams, so an adaptive arm with eta = 0 reproduces its
    # fixed-weight counterpart bit for bit.
    return hash64(master_seed, "job", seed, target_size)


def _job_dir(out_dir: Path, arm: str, seed: int | str, target_size: int | str) -> Path:
    """runs/<arm>/seed<k>/n<size>: where a job writes, where resume looks and
    where report reads its weights.csv."""
    return out_dir / "runs" / arm / f"seed{seed}" / f"n{target_size}"


@dataclass(frozen=True)
class Job:
    """One (arm, seed, target_size) run, built once by cmd_run and handed to a
    worker as is. train is the arm's merged TrainConfig at the job seed, and
    inputs the {file: digest} of the family files the job loads."""

    out_dir: Path
    arm: ArmConfig
    seed: int
    target_size: int
    train: TrainConfig
    inputs: dict

    @property
    def dir(self) -> Path:
        return _job_dir(self.out_dir, self.arm.name, self.seed, self.target_size)

    @cached_property
    def key(self) -> str:
        """SHA-256 of everything that decides the job's row: the merged
        TrainConfig (job seed included), the arm's source flips, the target
        size and the digests of the files it loads, so a sweep that grows
        reruns only the jobs it adds."""
        blob = json.dumps(
            {
                "train": asdict(self.train),
                "source_flips": self.arm.source_flips,
                "target_size": self.target_size,
                "inputs": self.inputs,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def row(self, **cols) -> dict:
        """The job's summary row, cols filled in; cmd_run adds the timestamp."""
        row = dict.fromkeys(SUMMARY_COLUMNS[:-1], "")
        flips = "+".join(f"{q:g}" for q in self.arm.source_flips)
        row.update(arm=self.arm.name, seed=str(self.seed), target_size=str(self.target_size))
        row.update(flip_rate=flips, **cols)
        return row


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _execute_job_safe(job: Job) -> dict:
    """_execute_job, with failures folded into an error-tagged summary row."""
    try:
        return _execute_job(job)
    except Exception as exc:  # error rows keep the sweep going
        return job.row(error=_failure(exc))


def _run_in_pool(todo: list[Job], jobs: int) -> list[dict]:
    """_execute_job_safe over todo in worker processes, one row each.

    A worker that dies (killed, crashed interpreter) breaks the whole pool
    and fails every job still in it. Those jobs are rerun one at a time,
    each in a fresh single-worker pool, so only a job that kills its own
    worker again is lost, as an error row. The pool starts every worker at
    once, so it gets no more workers than jobs; multiprocessing is imported
    only here, so a serial run never loads it.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    rows: list = [None] * len(todo)
    broken = []
    with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
        futures = [pool.submit(_execute_job_safe, job) for job in todo]
        for i, future in enumerate(futures):
            try:
                rows[i] = future.result()
            except BrokenProcessPool:
                broken.append(i)
            except Exception as exc:  # the job or row failed to cross processes
                rows[i] = todo[i].row(error=_failure(exc))
    for i in broken:
        with ProcessPoolExecutor(max_workers=1) as pool:
            try:
                rows[i] = pool.submit(_execute_job_safe, todo[i]).result()
            except Exception as exc:
                rows[i] = todo[i].row(error=_failure(exc))
    return rows


def _execute_job(job: Job) -> dict:
    """Run one job from cached datasets; writes its files and returns its row."""
    seed_dir = _seed_dir(job.out_dir, job.seed)
    target = load_dataset(seed_dir / "target_train.npz", TARGET_TASK_ID)
    target = target.take(job.target_size)
    eval_data = load_dataset(seed_dir / "target_eval.npz", TARGET_TASK_ID)
    sources = [
        load_dataset(seed_dir / f"{_source_name(q)}.npz", _source_name(q))
        for q in job.arm.source_flips
    ]
    _, record = tawt(sources, target, job.train, eval_data=eval_data)
    final = record.epoch_metrics[-1]  # training always scores its final model on eval_data
    job.dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(job.dir / "record.json", record.to_json())
    record.write_metrics_csv(job.dir / "metrics.csv")
    record.write_weights_csv(job.dir / "weights.csv")
    row = job.row(
        ratio=float_repr17(sources[0].n / job.target_size) if sources else "0",
        final_target_acc=float_repr17(final["target_accuracy"]),
        final_target_loss=float_repr17(final["target_loss"]),
    )
    atomic_write_text(job.dir / "row.json", json.dumps({"job_key": job.key, "row": row}, indent=2))
    return row


def _stored_row(job: Job) -> dict | None:
    """The row a finished run of this exact job left behind, if any."""
    try:
        stored = json.loads((job.dir / "row.json").read_text())
        return dict(stored["row"]) if stored["job_key"] == job.key else None
    except (OSError, ValueError, KeyError, TypeError):  # absent, unreadable or malformed
        return None


def cmd_run(cfg: ExperimentConfig, out_dir: Path, jobs: int = 1) -> dict:
    """Execute every (arm x seed x target_size) job and write summary.csv.

    A completed job is reused on rerun only if its stored job key (see
    Job.key) still matches, so editing an arm or the train block reruns
    it. A failing job contributes an error-tagged row; the command only
    counts as failed when every job fails.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    family, _ = _family(cfg, out_dir, strict=True)
    todo = [
        Job(
            out_dir, arm, seed, target_size,
            _arm_train_config(cfg.train, arm, _job_seed(cfg.master_seed, seed, target_size)),
            {name: family[seed][name] for name in _seed_files(arm.source_flips)},
        )
        for arm in cfg.arms
        for seed in cfg.seeds
        for target_size in cfg.family.target_sizes
    ]

    rows = [_stored_row(job) for job in todo]
    pending = [i for i, row in enumerate(rows) if row is None]
    if jobs > 1 and len(pending) > 1:
        for i, row in zip(pending, _run_in_pool([todo[i] for i in pending], jobs)):
            rows[i] = row
    else:
        for i in pending:
            rows[i] = _execute_job_safe(todo[i])

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
        "n_skipped": len(rows) - len(pending),
    }


def cmd_distance(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Distance-curve sweep; writes distance.csv under the output directory."""
    estimates = distance_curve(cfg.family, cfg.distance, cfg.seeds, cfg.master_seed)
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


def cmd_report(results_dir: Path) -> dict:
    """Aggregate the successful jobs summary.csv lists into curves.csv (mean
    and stderr per arm and sweep point) and weights_<arm>.csv (the mean
    trajectory over the arm's seeds and target sizes), under report/. Only
    those jobs' weights.csv files are read, so files of jobs a config edit
    dropped never count; a listed job's missing file is an IO error."""
    summary_path = results_dir / "summary.csv"
    if not summary_path.exists():
        raise IntegrityError(f"no summary.csv under {results_dir}")
    with open(summary_path, newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if not row["error"]]
    if not rows:
        raise IntegrityError(f"{summary_path}: no successful rows to report")
    report_dir = results_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)

    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["arm"], row["target_size"], row["flip_rate"], row["ratio"])
        groups.setdefault(key, []).append(row)
    lines = ["arm,target_size,flip_rate,ratio,n_seeds,mean_acc,stderr_acc,mean_loss,stderr_loss"]
    for (arm, size, flip, ratio), group in groups.items():
        accs = [float(r["final_target_acc"]) for r in group]
        losses = [float(r["final_target_loss"]) for r in group]
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
    for arm in sorted({row["arm"] for row in rows}):
        # Sorted paths, so np.mean adds the trajectories in one fixed order.
        weight_files = sorted(
            {_job_dir(results_dir, arm, r["seed"], r["target_size"]) / "weights.csv"
             for r in rows if r["arm"] == arm}
        )
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


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_CONFIG on a usage error, where argparse would exit 2, which
    here means that every job failed. Subcommand parsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tawt-lab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("generate", "Generate and cache the task family, each seed with its manifest."),
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
            p.add_argument("--jobs", type=int, default=1, help="max concurrent jobs (default 1)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not (args.config or args.out):  # only report leaves --config optional
        parser.error("report needs --config or --out to locate results")
    try:
        if args.command == "report":
            result = cmd_report(Path(args.out or load_config(args.config).out_dir))
            print(f"wrote {result['curves']} and {len(result['trajectories'])} trajectory files")
            return EXIT_OK

        cfg = load_config(args.config)
        out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
        if args.command == "generate":
            drawn = cmd_generate(cfg, out_dir)["drawn"]
            print(f"family under {out_dir} ({len(drawn)} of {len(cfg.seeds)} seeds drawn)")
            return EXIT_OK
        if args.command == "run":
            result = cmd_run(cfg, out_dir, jobs=args.jobs)
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
