import os

# One BLAS thread per process, as in perfbench: the jobs=2 fixtures run two
# worker processes, and each must not start a BLAS thread per core as well.
# Must precede the first numpy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest
from hypothesis import HealthCheck, settings

from tawt_lab import TrainConfig
from tawt_lab.numerics import Rng, hash64
from tawt_lab.taskgen import Dataset, fit_family_teachers, sample_task_data

settings.register_profile(
    "lab", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("lab")

TEACHER_CFG = TrainConfig(epochs=400, batch_size=40, lr=3e-3)


def random_dataset(n, d, k, seed, task_id="target"):
    rng = Rng(seed)
    return Dataset(rng.uniform(-0.5, 0.5, size=(n, d)), rng.integers(0, k, size=n), k, task_id)


@pytest.fixture(scope="session")
def tiny_family():
    """Deterministic teacher-generated family: target/eval/copy/distractor.

    d=10, k=4, width-128 teachers on an 80-example base; sized for fast
    behavioral tests rather than headline numbers.
    """
    fseed = hash64(314, 0)
    rng = Rng(fseed)
    teachers = fit_family_teachers([0.0, 1.0], 80, 10, 4, 128, fseed, rng, TEACHER_CFG)
    return {
        "target": sample_task_data(teachers[0.0], 60, 10, rng.spawn("t"), "target"),
        "eval": sample_task_data(teachers[0.0], 400, 10, rng.spawn("e"), "target"),
        "copy": sample_task_data(teachers[0.0], 300, 10, rng.spawn("s0"), "source0_q0"),
        "distractor": sample_task_data(teachers[1.0], 300, 10, rng.spawn("s1"), "source1_q1"),
        "teachers": teachers,
    }
