import csv
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from tawt_lab import TrainConfig
from tawt_lab.model import EmptyBatchError, init_model, predictions
from tawt_lab.numerics import Rng, hash64
from tawt_lab.taskgen import (
    TEACHER_TASK_ID,
    Dataset,
    FitFailureError,
    TaskSpec,
    fit_teacher,
    flip_labels,
    generate_base_dataset,
    load_dataset,
    load_dataset_csv,
    round_half_up,
    sample_task_data,
    save_dataset,
    save_dataset_csv,
    teacher_accuracy,
)

from conftest import TEACHER_CFG, teacher_family
from oracles import savez_dataset


def _load_zero_row_npz(tmp_path):
    path = tmp_path / "empty.npz"
    np.savez(path, features=np.empty((0, 3)), labels=np.empty(0, dtype=np.int64),
             n_classes=np.int64(2))
    return load_dataset(path)


def _load_header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("0,3,2\r\n")
    return load_dataset_csv(path)


class TestTaskSpec:
    def test_paper_scale_configuration_is_valid(self):
        spec = TaskSpec(
            flip_rate=0.3, n_examples=10000, input_dim=1000, n_classes=10,
            teacher_hidden_width=4096, seed=0,
        )
        assert spec.n_examples == 10000 and spec.input_dim == 1000

    def test_rejects_bad_flip_rate(self):
        with pytest.raises(ValueError):
            TaskSpec(1.5, 10, 2, 2, 4, 0)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            TaskSpec(0.0, 0, 2, 2, 4, 0)


class TestDataset:
    def test_validates_label_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3)), np.array([0, 5]), 3, "x")

    def test_validates_shapes(self):
        with pytest.raises(Exception):
            Dataset(np.zeros((2, 3)), np.array([0]), 3, "x")

    def test_take_prefix(self):
        data = generate_base_dataset(10, 4, 3, Rng(0))
        part = data.take(4)
        assert part.n == 4
        assert np.array_equal(part.features, data.features[:4])

    @pytest.mark.parametrize("n", [-1, -5, 11])
    def test_take_rejects_counts_outside_the_dataset(self, n):
        """A negative n would otherwise slice off the tail instead of a prefix."""
        data = generate_base_dataset(10, 4, 3, Rng(0))
        with pytest.raises(ValueError, match=f"asked for {n} of 10"):
            data.take(n)

    @pytest.mark.filterwarnings("ignore:loadtxt")  # numpy notes a header-only file
    @pytest.mark.parametrize("make, task_id", [
        (lambda tmp_path: Dataset(np.empty((0, 3)), np.empty(0, dtype=np.int64), 3, "target"),
         "target"),
        (lambda tmp_path: generate_base_dataset(10, 3, 2, Rng(0)).take(0), "base"),
        (lambda tmp_path: dataclasses.replace(
            generate_base_dataset(10, 3, 2, Rng(0)),
            features=np.empty((0, 3)), labels=np.empty(0, dtype=np.int64)), "base"),
        (lambda tmp_path: sample_task_data(
            init_model(3, 4, {TEACHER_TASK_ID: 2}, seed=0), 0, 3, Rng(0), "t"), "t"),
        (_load_zero_row_npz, "empty"),
        (_load_header_only_csv, "empty"),
    ], ids=["constructor", "take", "replace", "sample_task_data", "load_dataset",
            "load_dataset_csv"])
    def test_zero_rows_are_refused_where_a_dataset_is_made(self, tmp_path, make, task_id):
        """A Dataset holds at least one example, however it is made, so no
        function that takes one needs a guard of its own; the error names the
        task, so an empty target reads "empty target dataset"."""
        with pytest.raises(EmptyBatchError,
                           match=f"^empty {task_id} dataset: a Dataset holds at least one example"):
            make(tmp_path)


class TestGenerateBase:
    def test_shapes_and_ranges(self):
        data = generate_base_dataset(200, 20, 10, Rng(1))
        assert data.features.shape == (200, 20)
        assert data.features.min() >= -0.5 and data.features.max() <= 0.5
        assert data.labels.min() >= 0 and data.labels.max() < 10

    def test_feature_means_concentrate(self):
        # 200 x 20 = 4000 draws; per-feature means stay within the noise band
        data = generate_base_dataset(200, 20, 10, Rng(7))
        per_feature = data.features.mean(axis=0)
        assert np.all(per_feature > -0.05) and np.all(per_feature < 0.05)
        assert abs(data.features.mean()) < 0.01

    def test_deterministic(self):
        a = generate_base_dataset(50, 5, 4, Rng(9))
        b = generate_base_dataset(50, 5, 4, Rng(9))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_full_scale_draw(self):
        # the reference full-scale configuration: 10000 examples at d=1000
        data = generate_base_dataset(10000, 1000, 10, Rng(10))
        assert data.features.shape == (10000, 1000)
        assert data.features.min() >= -0.5 and data.features.max() <= 0.5
        assert len(np.unique(data.labels)) == 10

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_base_dataset(0, 5, 4, Rng(0))


class TestFlipLabels:
    def test_zero_rate_is_identity(self):
        base = generate_base_dataset(100, 5, 4, Rng(2))
        flipped = flip_labels(base, 0.0, Rng(3))
        assert np.array_equal(base.labels, flipped.labels)

    def test_exact_count_selected(self):
        base = generate_base_dataset(200, 5, 4, Rng(2))
        rng_a, rng_b = Rng(4), Rng(4)
        half = flip_labels(base, 0.5, rng_a)
        selected = rng_b.subset(200, 100)
        untouched = np.setdiff1d(np.arange(200), selected)
        assert np.array_equal(half.labels[untouched], base.labels[untouched])

    def test_round_half_up_count(self):
        assert round_half_up(0.5 * 3) == 2  # 1.5 rounds up
        assert round_half_up(0.25 * 2) == 1  # 0.5 rounds up
        assert round_half_up(0.2 * 2) == 0

    def test_full_flip_changed_fraction(self):
        base = generate_base_dataset(10000, 3, 10, Rng(5))
        flipped = flip_labels(base, 1.0, Rng(6))
        changed = float(np.mean(flipped.labels != base.labels))
        assert abs(changed - 0.9) < 0.02

    @pytest.mark.parametrize("q", [0.2, 0.6])
    def test_changed_fraction_concentrates(self, q):
        base = generate_base_dataset(2000, 3, 5, Rng(8))
        flipped = flip_labels(base, q, Rng(9))
        expected = q * (1 - 1 / 5)
        assert abs(float(np.mean(flipped.labels != base.labels)) - expected) < 0.04

    def test_rejects_bad_rate(self):
        base = generate_base_dataset(10, 3, 2, Rng(0))
        with pytest.raises(ValueError):
            flip_labels(base, 1.2, Rng(0))


class TestFitTeacher:
    def test_interpolates_small_dataset(self):
        spec = TaskSpec(0.0, 40, 10, 4, 96, seed=13)
        data = generate_base_dataset(40, 10, 4, Rng(14))
        teacher = fit_teacher(data, spec, TEACHER_CFG)
        assert teacher_accuracy(teacher, data) == 1.0

    def test_single_example(self):
        spec = TaskSpec(0.0, 1, 4, 3, 16, seed=15)
        data = generate_base_dataset(1, 4, 3, Rng(16))
        teacher = fit_teacher(data, spec, TEACHER_CFG)
        assert teacher_accuracy(teacher, data) == 1.0

    def test_desk_scale_interpolation(self):
        # 200 fully random labels at d=20, width 256: interpolation lands
        # near epoch 85 at the desk teacher lr
        spec = TaskSpec(1.0, 200, 20, 10, 256, seed=17)
        base = generate_base_dataset(200, 20, 10, Rng(18))
        data = flip_labels(base, 1.0, Rng(19))
        cfg = TrainConfig(epochs=150, batch_size=100, lr=3e-3)
        teacher = fit_teacher(data, spec, cfg)
        assert teacher_accuracy(teacher, data) == 1.0

    def test_threshold_below_one_stops_before_interpolation(self):
        spec = TaskSpec(1.0, 200, 20, 10, 256, seed=17)
        base = generate_base_dataset(200, 20, 10, Rng(18))
        data = flip_labels(base, 1.0, Rng(19))
        cfg = TrainConfig(epochs=150, batch_size=100, lr=3e-3)
        teacher = fit_teacher(data, spec, cfg, threshold=0.5)
        assert 0.5 <= teacher_accuracy(teacher, data) < 1.0

    def test_fit_failure_raises(self):
        spec = TaskSpec(1.0, 60, 4, 10, 2, seed=20)  # width 2 cannot memorize
        base = generate_base_dataset(60, 4, 10, Rng(21))
        data = flip_labels(base, 1.0, Rng(22))
        cfg = TrainConfig(epochs=3, batch_size=30, lr=3e-3)
        with pytest.raises(FitFailureError):
            fit_teacher(data, spec, cfg)

    def test_deterministic_parameters(self):
        spec = TaskSpec(0.0, 30, 8, 3, 64, seed=23)
        data = generate_base_dataset(30, 8, 3, Rng(24))
        a = fit_teacher(data, spec, TEACHER_CFG)
        b = fit_teacher(data, spec, TEACHER_CFG)
        assert np.array_equal(a.W1, b.W1)
        assert np.array_equal(a.heads[TEACHER_TASK_ID].W2, b.heads[TEACHER_TASK_ID].W2)


class TestSampleTaskData:
    def test_deterministic(self, tiny_family):
        teacher = tiny_family["teachers"][0.0]
        a = sample_task_data(teacher, 50, 10, Rng(25), "t")
        b = sample_task_data(teacher, 50, 10, Rng(25), "t")
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_match_teacher_argmax(self, tiny_family):
        teacher = tiny_family["teachers"][0.0]
        data = sample_task_data(teacher, 40, 10, Rng(26), "t")
        assert np.array_equal(
            data.labels, predictions(teacher, TEACHER_TASK_ID, data.features)
        )

    def test_dimension_mismatch(self, tiny_family):
        with pytest.raises(Exception):
            sample_task_data(tiny_family["teachers"][0.0], 5, 7, Rng(0), "t")


class TestTaskDissimilarityTrend:
    def test_disagreement_monotone_in_flip_rate(self):
        """Mean label disagreement with the q=0 teacher grows with q."""
        grid = [0.0, 0.3, 0.6, 1.0]
        disagreements = {q: [] for q in grid[1:]}
        for seed in range(5):
            fseed = hash64(600, seed)
            rng = Rng(fseed)
            teachers = teacher_family(grid, 80, 10, 4, 128).fit_teachers(fseed, rng)
            probe = rng.uniform(-0.5, 0.5, size=(600, 10))
            ref = predictions(teachers[0.0], TEACHER_TASK_ID, probe)
            for q in grid[1:]:
                other = predictions(teachers[q], TEACHER_TASK_ID, probe)
                disagreements[q].append(float(np.mean(other != ref)))
        means = [np.mean(disagreements[q]) for q in grid[1:]]
        inversions = sum(1 for i in range(len(means) - 1) if means[i] > means[i + 1])
        assert inversions <= 1, f"disagreement means not monotone: {means}"
        assert means[-1] > means[0]


def same_teacher(a, b) -> bool:
    return np.array_equal(a.rep_params, b.rep_params) and np.array_equal(
        a.heads[TEACHER_TASK_ID].params, b.heads[TEACHER_TASK_ID].params
    )


class TestFitFamilyTeachers:
    def test_counts(self):
        """One teacher per distinct flip rate, plus the q = 0 target teacher."""
        grid = [1.0, 0.2, 0.5, 0.2]
        teachers = teacher_family(grid, 80, 10, 4, 128).fit_teachers(31, Rng(32))
        assert list(teachers) == [0.0, 0.2, 0.5, 1.0]
        for teacher in teachers.values():
            assert teacher.input_dim == 10 and teacher.hidden_dim == 128
            assert teacher.head(TEACHER_TASK_ID).n_classes == 4

    def test_bitwise_deterministic(self):
        a = teacher_family([0.0, 1.0], 60, 10, 4, 96).fit_teachers(33, Rng(34))
        b = teacher_family([0.0, 1.0], 60, 10, 4, 96).fit_teachers(33, Rng(34))
        assert all(same_teacher(a[q], b[q]) for q in (0.0, 1.0))

    def test_teacher_does_not_depend_on_the_rest_of_the_grid(self):
        alone = teacher_family([0.5], 60, 10, 4, 96).fit_teachers(35, Rng(36))
        full = teacher_family([0.0, 0.5, 1.0], 60, 10, 4, 96).fit_teachers(35, Rng(36))
        assert same_teacher(alone[0.5], full[0.5])
        assert same_teacher(alone[0.0], full[0.0])


class TestBinarySerialization:
    def test_round_trip_is_bitwise(self, tmp_path):
        data = generate_base_dataset(40, 7, 5, Rng(44))
        data.features[0, :4] = [0.0, -0.0, 1e-300, 5e-324]
        path = tmp_path / "data.npz"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert loaded.features.shape == (40, 7) and loaded.labels.shape == (40,)
        assert loaded.features.tobytes() == data.features.tobytes()
        assert loaded.labels.tobytes() == data.labels.tobytes()
        assert loaded.features.dtype == np.float64 and loaded.features.flags.c_contiguous
        assert loaded.labels.dtype == np.int64
        assert loaded.n_classes == 5 and loaded.task_id == "data"

    @pytest.mark.parametrize("n", [1, 100])
    def test_bytes_match_np_savez(self, tmp_path, n):
        data = generate_base_dataset(100, 7, 5, Rng(45)).take(n)
        data.features[0, :4] = [-0.0, 1e-310, -5e-324, 2.2250738585072014e-308]
        save_dataset(data, tmp_path / "ours.npz")
        savez_dataset(data, tmp_path / "savez.npz")
        assert (tmp_path / "ours.npz").read_bytes() == (tmp_path / "savez.npz").read_bytes()

    def test_write_makes_no_copy_of_the_arrays(self, tmp_path):
        """np.savez copies each array whole (tobytes) before writing it:
        1.61 MB at 10,000 x 20. save_dataset writes the buffers themselves."""
        data = generate_base_dataset(10_000, 20, 10, Rng(46))
        path = tmp_path / "source.npz"
        save_dataset(data, path)  # warm up lazy allocations
        tracemalloc.start()
        try:
            save_dataset(data, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.2e6, f"save_dataset peaked at {peak / 1e6:.2f} MB"

    def test_missing_array_rejected_naming_path(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, features=np.zeros((2, 3)), labels=np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match=r"partial\.npz.*n_classes"):
            load_dataset(path)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        data = generate_base_dataset(25, 6, 4, Rng(40))
        path = tmp_path / "data.csv"
        save_dataset_csv(data, path)
        loaded = load_dataset_csv(path, task_id=data.task_id)
        assert np.array_equal(data.features, loaded.features)
        assert np.array_equal(data.labels, loaded.labels)
        assert loaded.n_classes == 4

    def test_header_layout(self, tmp_path):
        data = generate_base_dataset(3, 2, 5, Rng(41))
        path = tmp_path / "data.csv"
        save_dataset_csv(data, path)
        first = path.read_text().splitlines()[0]
        assert first == "3,2,5"

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,2,3\n0.1,0.2,1\n0.3,2\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("3,2,3\n0.1,0.2,1\n0.3,0.4,2\n")
        with pytest.raises(ValueError, match=r"short\.csv.*declares 3 rows, file has 2"):
            load_dataset_csv(path)

    def test_long_file_rejected(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("1,2,3\n0.1,0.2,1\n0.3,0.4,2\n")
        with pytest.raises(ValueError, match=r"long\.csv.*declares 1 rows, file has 2"):
            load_dataset_csv(path)

    def test_bytes_match_csv_writer(self, tmp_path):
        data = generate_base_dataset(40, 7, 5, Rng(42))
        data.features[0, :3] = [0.0, -0.0, 1e-300]
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow([data.n, data.input_dim, data.n_classes])
        for row, label in zip(data.features, data.labels):
            writer.writerow([format(float(x), ".17g") for x in row] + [int(label)])
        path = tmp_path / "data.csv"
        save_dataset_csv(data, path)
        assert path.read_bytes() == reference.getvalue().encode()

    def test_loaded_features_are_c_contiguous_float64(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset_csv(generate_base_dataset(5, 3, 2, Rng(43)), path)
        loaded = load_dataset_csv(path)
        assert loaded.features.dtype == np.float64 and loaded.features.flags.c_contiguous

    @pytest.mark.parametrize("row", ["0.1,0.2,1.5", "0.1,0.2,x", "0.1,1", "0.1,0.2,0.3,1"])
    def test_bad_row_rejected_naming_path(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"2,2,3\n0.1,0.2,1\n{row}\n")
        with pytest.raises(ValueError, match=r"bad\.csv"):
            load_dataset_csv(path)
