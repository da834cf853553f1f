"""Empirical representation-based task distance.

The distance from a weighted collection of source tasks to a target task is
the excess target risk of the best representation trainable from the
weighted sources over the risk of a representation trained on abundant
target data. Both population quantities are replaced by plug-in training
estimates here:

  * weighted source-to-target risk: train the representation on the
    weighted sources, freeze it, fit only the target head on held-in target
    data, evaluate the loss on held-out target data;
  * oracle target risk: train the full model on a large target sample and
    evaluate on the same held-out data.

The reported distance is their difference, raw: estimation noise can make
it negative, and clipping would bias trend comparisons, so negative values
are only flagged. A single trained representation stands in for the whole
set of minimizers of the weighted objective. The estimator is directional
by construction; swapping source and target roles generally changes the
value, and nothing here symmetrizes it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import accuracy_and_loss
from .numerics import Rng, hash64
from .taskgen import TARGET_TASK_ID, Dataset, flip_key, sample_task_data, source_name
from .training import FamilyConfig, TrainConfig, tawt, write_csv
from .weighting import SimplexWeights


@dataclass
class TaskDistanceEstimate:
    flip_rate: float
    seed: int
    weighted_source_target_risk: float
    oracle_target_risk: float
    distance: float
    aux_accuracy: float
    oracle_accuracy: float
    negative: bool


@dataclass
class DistanceConfig:
    """Sample sizes, budgets and optimizer of the estimator's own fits.

    The family (flip grid, dims, source and eval sizes, teacher recipe) is
    the FamilyConfig that distance_curve is given.
    """

    head_fit_n: int = 2000
    oracle_n: int = 10_000
    rep_epochs: int = 60
    head_fit_epochs: int = 100
    oracle_epochs: int = 60
    optimizer: str = "adam"
    lr: float = 1e-3
    batch_size: int = 100
    hidden: int = 256

    def validate(self) -> None:
        """Every fit draws and trains on examples, with a TrainConfig it accepts."""
        for name in ("head_fit_n", "oracle_n", "rep_epochs", "head_fit_epochs", "oracle_epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        self.estimator_train_config(0).validate(1)
        self.oracle_train_config(0).validate(0)

    def oracle_train_config(self, seed: int) -> TrainConfig:
        """The recipe both fits share, as the oracle's full fit on the target."""
        return TrainConfig(
            paradigm="single",
            optimizer=self.optimizer,
            lr=self.lr,
            batch_size=self.batch_size,
            hidden=self.hidden,
            epochs=self.oracle_epochs,
            seed=seed,
        )

    def estimator_train_config(self, seed: int) -> TrainConfig:
        return replace(
            self.oracle_train_config(seed),
            paradigm="pretrain",
            epochs=self.rep_epochs,
            finetune_epochs=self.head_fit_epochs,
            finetune_rep="frozen",
        )


def estimate_weighted_source_target_risk(
    sources, weights: SimplexWeights, target_train: Dataset, target_eval: Dataset, cfg: TrainConfig
) -> tuple[float, float]:
    """Held-out target loss of a source-trained representation.

    Trains the representation on the weighted sources, freezes it, fits only
    the target head on target_train, and returns (mean loss, accuracy) on
    target_eval, scored once on the final model (tawt, given no eval_data,
    records no metrics). target_train and target_eval must be disjoint draws.
    """
    cfg = replace(cfg, paradigm="pretrain", weighted=False, finetune_rep="frozen")
    model, _ = tawt(sources, target_train, cfg, initial_weights=weights)
    accuracy, loss = accuracy_and_loss(model, TARGET_TASK_ID, target_eval)
    return loss, accuracy


def estimate_oracle_target_risk(
    target_train_large: Dataset, target_eval: Dataset, cfg: TrainConfig
) -> tuple[float, float]:
    """Held-out loss of a full model trained on abundant target data.

    Plug-in stand-in for the risk of the best target representation,
    scored once on the final model, as the weighted estimate is.
    """
    cfg = replace(cfg, paradigm="single", weighted=False)
    model, _ = tawt([], target_train_large, cfg)
    accuracy, loss = accuracy_and_loss(model, TARGET_TASK_ID, target_eval)
    return loss, accuracy


def distance_curve(
    fam: FamilyConfig, cfg: DistanceConfig, seed: int, master_seed: int
) -> list[TaskDistanceEstimate]:
    """One seed's distance estimate per flip rate in fam.flip_grid, single
    source per point.

    All teachers come from flips of one base dataset, fit with the family's
    teacher recipe, and one oracle run is shared by every grid point, so the
    seed's distances differ only through their source tasks. Every draw
    derives from (master_seed, seed) alone, so a seed's estimates are the
    same whatever other seeds a sweep holds. The oracle sample and each
    source are freed after their one fit, so no draw overlaps the previous
    one.
    """
    fam.validate()
    cfg.validate()
    d = fam.input_dim
    family_rng = Rng(hash64(master_seed, "distance-family", seed))
    teachers = fam.fit_teachers(hash64(master_seed, "distance-teacher", seed), family_rng)
    target_teacher = teachers[0.0]
    target_train = sample_task_data(
        target_teacher, cfg.head_fit_n, d, family_rng.spawn("head-fit-draw"), TARGET_TASK_ID
    )
    target_eval = sample_task_data(
        target_teacher, fam.eval_n, d, family_rng.spawn("eval-draw"), TARGET_TASK_ID
    )
    oracle_risk, oracle_acc = estimate_oracle_target_risk(
        sample_task_data(
            target_teacher, cfg.oracle_n, d, family_rng.spawn("oracle-draw"), TARGET_TASK_ID
        ),
        target_eval,
        cfg.oracle_train_config(hash64(master_seed, "distance-oracle", seed)),
    )
    estimates = []
    for q in fam.flip_grid:
        source = sample_task_data(
            teachers[q], fam.source_n, d, family_rng.spawn("source-draw", flip_key(q)),
            source_name(q),
        )
        risk, acc = estimate_weighted_source_target_risk(
            [source], SimplexWeights(np.ones(1)), target_train, target_eval,
            cfg.estimator_train_config(hash64(master_seed, "distance-est", seed, flip_key(q))),
        )
        del source
        dist = risk - oracle_risk
        estimates.append(
            TaskDistanceEstimate(
                flip_rate=q,
                seed=seed,
                weighted_source_target_risk=risk,
                oracle_target_risk=oracle_risk,
                distance=dist,
                aux_accuracy=acc,
                oracle_accuracy=oracle_acc,
                negative=dist < 0.0,
            )
        )
    return estimates


def write_distance_csv(estimates, path) -> None:
    """distance.csv, its lines in csv.writer's CRLF, replaced whole (write_csv)."""
    header = ["flip_rate", "seed", "source_risk_estimate", "oracle_risk_estimate", "distance",
              "aux_accuracy"]
    rows = ([est.flip_rate, est.seed, est.weighted_source_target_risk, est.oracle_target_risk,
             est.distance, est.aux_accuracy] for est in estimates)
    write_csv(path, header, rows, lineterminator="\r\n")
