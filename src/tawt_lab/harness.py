"""Experiment harness: config parsing, task-family caching, sweep execution,
and report emission, behind a four-subcommand CLI.

    tawt-lab generate --config cfg.json    cache the task family, a row.json per seed
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
flip_grid (as {q:g}, its file name, or as taskgen.flip_key, its streams'
key) or an arm's source_flips.

One runner, _run_units, serves the family's seeds, run's jobs (one tawt
call per arm, seed and target size) and distance's seeds. A unit is keyed
by the hashes of what it reads (FamilySeed.key, Job.key, DistanceSeed.key).
Its result, what its execute returns, is stored in its row.json with that
key and reused while the key matches and its load accepts the stored
result, so a sweep that grows pays only for what it adds. The rest run
--jobs at once (default 1), with the same results at any --jobs, since
every unit derives its seeds from master_seed. A failed unit's result is
its exception: run writes it as the job's error row, and generate and
distance raise the first one.
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

from .distance import DistanceConfig, TaskDistanceEstimate, distance_curve, write_distance_csv
from .numerics import Rng, float_repr17, hash64
from .taskgen import (
    TARGET_TASK_ID, FitFailureError, flip_key, load_dataset, sample_task_data, save_dataset,
    source_name,
)
from .training import (
    FamilyConfig, TrainConfig, atomic_write_text, split_size, tawt, write_csv, write_trajectory,
)
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


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def _seed_dir(out_dir: Path, seed: int) -> Path:
    return out_dir / "family" / f"seed{seed}"


def _seed_files(flips: list[float]) -> list[str]:
    """The family files of one seed that a reader of these source flips loads."""
    return [f"{name}.npz" for name in ["target_train", "target_eval", *map(source_name, flips)]]


def _key(**parts) -> str:
    """SHA-256 of parts as sorted-key JSON: the key of one cached result."""
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


class IntegrityError(RuntimeError):
    """A cached dataset no longer matches the hash its seed's row.json holds,
    or summary.csv does not hold the rows report reads."""


@dataclass(frozen=True)
class FamilySeed:
    """One seed of the task family, the unit of generate and of run's set-up:
    its row is the {file: digest} of its datasets. Under strict, a stored file
    that is missing or fails its hash is an IntegrityError, not a redraw."""

    out_dir: Path
    cfg: ExperimentConfig
    seed: int
    strict: bool

    @property
    def dir(self) -> Path:
        return _seed_dir(self.out_dir, self.seed)

    @cached_property
    def key(self) -> str:
        """SHA-256 of what the seed's draws read: master_seed, the seed and the
        family block, whose target_sizes enter only as the target draw's rows."""
        family = {**asdict(self.cfg.family), "target_sizes": max(self.cfg.family.target_sizes)}
        return _key(master_seed=self.cfg.master_seed, seed=self.seed, family=family)

    def load(self, row) -> dict:
        """row if it names exactly the layout's files and each passes its hash."""
        if not isinstance(row, dict) or set(row) != set(_seed_files(self.cfg.family.flip_grid)):
            raise ValueError("stored files are not the current layout")
        for name, digest in row.items():
            path = self.dir / name
            if not path.is_file() or _sha256_file(path) != digest:
                raise (IntegrityError if self.strict else ValueError)(
                    f"cached dataset {path} is missing or does not match its row.json hash; "
                    "`tawt-lab generate` draws its seed again")
        return row

    def execute(self) -> dict[str, str]:
        """Draw the seed's datasets; returns their digests."""
        fam, seed_dir = self.cfg.family, self.dir
        family_seed = hash64(self.cfg.master_seed, "family", self.seed)
        rng = Rng(family_seed)
        teachers = fam.fit_teachers(family_seed, rng)
        seed_dir.mkdir(parents=True, exist_ok=True)
        # (file, teacher's flip rate, rows, stream key, task id) in draw order. Each
        # draw goes straight to disk, so no two datasets are alive at once.
        draws = [
            ("target_train", 0.0, max(fam.target_sizes), ("target-draw",), TARGET_TASK_ID),
            ("target_eval", 0.0, fam.eval_n, ("eval-draw",), TARGET_TASK_ID),
        ] + [
            (source_name(q), q, fam.source_n, ("source-draw", flip_key(q)), source_name(q))
            for q in fam.flip_grid
        ]
        for name, q, n, key, task_id in draws:
            save_dataset(
                sample_task_data(teachers[q], n, fam.input_dim, rng.spawn(*key), task_id),
                seed_dir / f"{name}.npz",
            )
        names = _seed_files(fam.flip_grid)
        for path in seed_dir.iterdir():  # files of an earlier layout
            if path.is_file() and path.name not in names and path.name != "row.json":
                path.unlink()
        return {name: _sha256_file(seed_dir / name) for name in names}


def _cached_family(cfg: ExperimentConfig, out_dir: Path, jobs: int, strict: bool) -> dict:
    """Each seed's file digests and the seeds drawn to get them, each seed a
    unit of _run_units; the first failure (a teacher that misses its
    threshold, say) is raised."""
    units = [FamilySeed(out_dir, cfg, seed, strict) for seed in cfg.seeds]
    results, reused = _run_or_raise(units, jobs)
    return {"files": dict(zip(cfg.seeds, results)),
            "drawn": [seed for seed, hit in zip(cfg.seeds, reused) if not hit]}


def cmd_generate(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Cache the task family on disk, drawing only the seeds whose cache is
    not current; returns each seed's file digests and the seeds drawn."""
    return _cached_family(cfg, out_dir, jobs=1, strict=False)


def _finite(value) -> float:
    """value, a decimal string, as a finite float; otherwise a ValueError."""
    number = float(value) if isinstance(value, str) else float("nan")
    if not abs(number) < float("inf"):
        raise ValueError(f"{value!r} is not a finite number")
    return number


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
        return _key(train=asdict(self.train), source_flips=self.arm.source_flips,
                    target_size=self.target_size, inputs=self.inputs)

    def load(self, row) -> dict:
        """row if it is this job's row: its own labels, and a finite number in
        each result column; anything else is a ValueError, so the job reruns."""
        results = dict.fromkeys(("ratio", "final_target_acc", "final_target_loss"), "")
        if not isinstance(row, dict) or {**row, **results} != self.row():
            raise ValueError(f"not the row of {self.dir}")
        for col in results:
            _finite(row[col])
        return row

    def execute(self) -> dict:
        """Run the job from cached datasets; writes its files and returns its
        row as load reads it, so a result that is not finite fails the job."""
        seed_dir = _seed_dir(self.out_dir, self.seed)
        target = load_dataset(seed_dir / "target_train.npz", TARGET_TASK_ID).take(self.target_size)
        eval_data = load_dataset(seed_dir / "target_eval.npz", TARGET_TASK_ID)
        sources = [
            load_dataset(seed_dir / f"{source_name(q)}.npz", source_name(q))
            for q in self.arm.source_flips
        ]
        _, record = tawt(sources, target, self.train, eval_data=eval_data)
        final = record.epoch_metrics[-1]  # training always scores its final model on eval_data
        self.dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.dir / "record.json", record.to_json())
        record.write_metrics_csv(self.dir / "metrics.csv")
        record.write_weights_csv(self.dir / "weights.csv")
        return self.load(self.row(
            ratio=float_repr17(sources[0].n / self.target_size) if sources else "0",
            final_target_acc=float_repr17(final["target_accuracy"]),
            final_target_loss=float_repr17(final["target_loss"]),
        ))

    def row(self, **cols) -> dict:
        """The job's summary row, cols filled in; cmd_run adds the timestamp."""
        row = dict.fromkeys(SUMMARY_COLUMNS[:-1], "")
        flips = "+".join(f"{q:g}" for q in self.arm.source_flips)
        row.update(arm=self.arm.name, seed=str(self.seed), target_size=str(self.target_size))
        row.update(flip_rate=flips, **cols)
        return row


@dataclass(frozen=True)
class DistanceSeed:
    """One seed of the distance curve, the unit of cmd_distance. Its draws,
    teachers and oracle derive from (master_seed, seed) alone, so its
    estimates are bitwise its share of the whole curve."""

    out_dir: Path
    cfg: ExperimentConfig
    seed: int

    @property
    def dir(self) -> Path:
        return self.out_dir / "distance" / f"seed{self.seed}"

    @cached_property
    def key(self) -> str:
        """SHA-256 of what the seed reads: master_seed, the seed, the family
        block but target_sizes, and the resolved distance block."""
        family = {k: v for k, v in asdict(self.cfg.family).items() if k != "target_sizes"}
        return _key(master_seed=self.cfg.master_seed, seed=self.seed, family=family,
                    distance=asdict(self.cfg.distance))

    def load(self, row) -> list[TaskDistanceEstimate]:
        """row's estimates if they are this seed's, one per flip rate of the
        grid in its order, each field of its annotated type and each float
        finite; anything else is a ValueError, so the seed is estimated again."""
        estimates = [TaskDistanceEstimate(**_checked_fields(TaskDistanceEstimate, est, "estimate"))
                     for est in row]
        grid = [(q, self.seed) for q in self.cfg.family.flip_grid]
        if [(est.flip_rate, est.seed) for est in estimates] != grid:
            raise ValueError("stored estimates are not this seed's over the flip grid")
        return estimates

    def execute(self) -> list[TaskDistanceEstimate]:
        cfg = self.cfg
        return distance_curve(cfg.family, cfg.distance, self.seed, cfg.master_seed)


def _stored(unit):
    """The result a finished run of this exact unit left in its row.json, if any."""
    try:
        stored = json.loads((unit.dir / "row.json").read_text())
        return unit.load(stored["row"]) if stored["job_key"] == unit.key else None
    except (OSError, ValueError, KeyError, TypeError):  # absent, unreadable or malformed
        return None


def _execute_safe(unit):
    """unit.execute()'s result, stored in row.json with the unit's key for
    _stored to find (a dataclass as its fields), and returned unchanged; a
    failure is returned as the exception."""
    try:
        result = unit.execute()
        unit.dir.mkdir(parents=True, exist_ok=True)
        stored = {"job_key": unit.key, "row": result}
        atomic_write_text(unit.dir / "row.json", json.dumps(stored, indent=2, default=asdict))
        return result
    except Exception as exc:  # one unit's failure never costs another's result
        return exc


def _run_units(units: list, jobs: int) -> tuple[list, list[bool]]:
    """The one runner of the family's seeds, run's jobs and distance's seeds
    (units with a dir, key, execute and load): each unit's result, in order,
    and whether it was reused from its row.json. The rest run here, or in at
    most `jobs` worker processes when more than one is left. A worker that
    dies breaks the pool and fails every unit in it; those rerun one at a
    time in fresh pools, so only a unit that kills its worker again is lost,
    as a BrokenProcessPool result. A serial run never imports
    multiprocessing."""
    results = [_stored(unit) for unit in units]
    reused = [result is not None for result in results]
    pending = [i for i, result in enumerate(results) if result is None]
    if jobs < 2 or len(pending) < 2:
        for i in pending:
            results[i] = _execute_safe(units[i])
        return results, reused
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
        futures = {i: pool.submit(_execute_safe, units[i]) for i in pending}
    for i, future in futures.items():
        if isinstance(future.exception(), BrokenProcessPool):
            with ProcessPoolExecutor(max_workers=1) as pool:
                future = pool.submit(_execute_safe, units[i])
        try:
            results[i] = future.result()
        except Exception as exc:  # the unit or its result failed to cross processes
            results[i] = exc
    return results, reused


def _run_or_raise(units: list, jobs: int) -> tuple[list, list[bool]]:
    """_run_units, then the first failure in unit order raised, once every
    unit has run and stored its result."""
    results, reused = _run_units(units, jobs)
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results, reused


def cmd_run(cfg: ExperimentConfig, out_dir: Path, jobs: int = 1) -> dict:
    """Execute every (arm x seed x target_size) job and write summary.csv.

    A completed job is reused on rerun only if its stored job key (see
    Job.key) still matches, so editing an arm or the train block reruns
    it. A failing job contributes an error-tagged row; the command only
    counts as failed when every job fails.
    """
    family = _cached_family(cfg, out_dir, jobs, strict=True)["files"]
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
    results, reused = _run_units(todo, jobs)
    rows = [job.row(error=f"{type(result).__name__}: {result}")
            if isinstance(result, BaseException) else result
            for job, result in zip(todo, results)]

    timestamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    write_csv(out_dir / "summary.csv", SUMMARY_COLUMNS,  # quotes an error that holds a comma
              ([{**row, "timestamp": timestamp}[col] for col in SUMMARY_COLUMNS] for row in rows))
    n_failed = sum(1 for row in rows if row.get("error"))
    return {
        "summary": out_dir / "summary.csv",
        "n_jobs": len(rows),
        "n_failed": n_failed,
        "n_skipped": sum(reused),
    }


def cmd_distance(cfg: ExperimentConfig, out_dir: Path, jobs: int = 1) -> Path:
    """Distance-curve sweep, one unit per seed (DistanceSeed); writes
    distance.csv under the output directory once every seed has its
    estimates. Otherwise raises the first failure in seed order, after every
    seed has run, so the seeds that finished are stored for a rerun."""
    results, _ = _run_or_raise([DistanceSeed(out_dir, cfg, seed) for seed in cfg.seeds], jobs)
    path = out_dir / "distance.csv"
    write_distance_csv([est for estimates in results for est in estimates], path)
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
    dropped never count. A listed job's missing or empty file is an IO
    error, and so is a summary row without a column report reads, or a row
    of either file that is ragged or holds a result or weight that is not a
    finite number, named by its file and line. Every listed file is read and
    checked before report/ is touched, so a failed report leaves it as it was."""
    summary_path = results_dir / "summary.csv"
    if not summary_path.exists():
        raise IntegrityError(f"no summary.csv under {results_dir}")
    rows = []
    with open(summary_path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                missing = [col for col in SUMMARY_COLUMNS[:-1] if row.get(col) is None]
                if missing:  # the timestamp is never read
                    raise ValueError(f"no {missing[0]} column")
                if not row["error"]:
                    _finite(row["final_target_acc"])
                    _finite(row["final_target_loss"])
                    rows.append(row)
            except ValueError as exc:
                raise IntegrityError(f"{summary_path}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise IntegrityError(f"{summary_path}: no successful rows to report")

    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["arm"], row["target_size"], row["flip_rate"], row["ratio"])
        groups.setdefault(key, []).append(row)
    curves = []
    for key, group in groups.items():
        acc = _mean_stderr([float(r["final_target_acc"]) for r in group])
        loss = _mean_stderr([float(r["final_target_loss"]) for r in group])
        curves.append([*key, len(group), *acc, *loss])

    trajectories = {}
    for arm in sorted({row["arm"] for row in rows}):
        # Sorted paths, so np.mean adds the trajectories in one fixed order.
        weight_files = sorted(
            {_job_dir(results_dir, arm, r["seed"], r["target_size"]) / "weights.csv"
             for r in rows if r["arm"] == arm}
        )
        stacks = []
        steps = None
        for path in weight_files:
            file_steps, stack = [], []
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                width = len(next(reader, []))
                for r in reader:
                    try:
                        if len(r) != width:
                            raise ValueError(f"{len(r)} fields, the header has {width}")
                        file_steps.append(int(r[0]))
                        stack.append([_finite(x) for x in r[1:]])
                    except ValueError as exc:
                        raise IntegrityError(f"{path}, line {reader.line_num}: {exc}") from None
            if not stack:  # a trajectory holds at least its initial weights
                raise IntegrityError(f"{path}: no weight rows")
            stacks.append(np.array(stack))
            if steps is None:
                steps = file_steps
            elif steps != file_steps or stacks[-1].shape != stacks[0].shape:
                raise IntegrityError(
                    f"{path}: weight trajectory steps or sources disagree within arm {arm}")
        trajectories[arm] = list(zip(steps, np.mean(stacks, axis=0)))

    # Every input has passed its checks: only now is report/ touched.
    report_dir = results_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    curves_path = report_dir / "curves.csv"
    write_csv(curves_path, ["arm", "target_size", "flip_rate", "ratio", "n_seeds", "mean_acc",
                            "stderr_acc", "mean_loss", "stderr_loss"], curves)
    trajectory_paths = [report_dir / f"weights_{arm}.csv" for arm in trajectories]
    for path, snapshots in zip(trajectory_paths, trajectories.values()):
        write_trajectory(path, snapshots)
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
        ("generate", "Generate and cache the task family, each seed with its file hashes."),
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
        if name in ("run", "distance"):
            p.add_argument("--jobs", type=int, default=1, help="max concurrent jobs (default 1)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not (args.config or args.out):  # only report leaves --config optional
        parser.error("report needs --config or --out to locate results")
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
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
            path = cmd_distance(cfg, out_dir, jobs=args.jobs)
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
