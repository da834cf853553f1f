"""Desk-scale laboratory for adaptively weighted cross-task training.

Small shared-representation networks (one hidden layer, per-task linear
heads) trained under single-task, pretrain + fine-tune, and joint paradigms;
adaptive source-task weighting by mirror descent on gradient alignment; a
synthetic teacher-student task family whose label-flip rate dials how far
each source task sits from the target; and an empirical estimator of the
representation-based distance between tasks.
"""

from .distance import DistanceConfig, TaskDistanceEstimate, distance_curve
from .model import Head, OptimizerState, SharedModel, accuracy_and_loss, init_model
from .numerics import Rng, hash64
from .taskgen import Dataset, TaskSpec, generate_base_dataset
from .training import (
    FamilyConfig,
    RunRecord,
    TrainConfig,
    joint_train,
    pretrain_then_finetune,
    split_target,
    tawt,
    train_single_task,
)
from .weighting import (
    SimplexWeights,
    cosine_task_gradient,
    init_weights,
    mirror_descent_step,
)

__version__ = "0.1.0"

__all__ = [
    "DistanceConfig",
    "TaskDistanceEstimate",
    "distance_curve",
    "Head",
    "OptimizerState",
    "SharedModel",
    "accuracy_and_loss",
    "init_model",
    "Rng",
    "hash64",
    "Dataset",
    "TaskSpec",
    "generate_base_dataset",
    "FamilyConfig",
    "RunRecord",
    "TrainConfig",
    "joint_train",
    "pretrain_then_finetune",
    "split_target",
    "tawt",
    "train_single_task",
    "SimplexWeights",
    "cosine_task_gradient",
    "init_weights",
    "mirror_descent_step",
    "__version__",
]
