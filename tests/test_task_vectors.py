import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskmerge import (
    MergeRecipe,
    TaskSpec,
    ValidationError,
    compute_stats,
    cosine_matrix,
    open_checkpoint,
    run_recipe,
    stats_from_arrays,
)

from taskmerge.task_vectors import _LEAF, blocked_dot, fold, split
from taskmerge.tensor_store import _CHUNK

from conftest import stats_peak_range, traced_peak, write_ckpt
from dense_reference import read_checkpoint_dense


class TestComputeStats:
    def test_three_four_five(self, tmp_path):
        base = write_ckpt(tmp_path / "b.st", {"w": np.zeros(2)})
        model = write_ckpt(tmp_path / "m.st", {"w": np.array([3.0, 4.0])})
        stats = compute_stats(open_checkpoint(base), [open_checkpoint(model)])
        assert stats.sq_norms == [25.0]

    def test_model_identical_to_base(self, tmp_path):
        arrs = {"w": np.array([1.0, 2.0])}
        base = write_ckpt(tmp_path / "b.st", arrs)
        model = write_ckpt(tmp_path / "m.st", arrs)
        stats = compute_stats(open_checkpoint(base), [open_checkpoint(model)])
        assert stats.sq_norms == [0.0]

    def test_streaming_matches_flat_oracle(self, tmp_path):
        rng = np.random.default_rng(11)
        names = [f"t{i}" for i in range(6)]
        base = {n: rng.standard_normal(rng.integers(3, 50)) for n in names}
        base_p = write_ckpt(tmp_path / "b.st", base)
        handles = []
        flats = []
        for m in range(3):
            model = {n: v + rng.standard_normal(v.shape) for n, v in base.items()}
            handles.append(open_checkpoint(write_ckpt(tmp_path / f"m{m}.st", model)))
            # oracle: one flat widened array per task, sequential reduction
            h = handles[-1]
            from taskmerge import read_tensor

            base_h = open_checkpoint(base_p)
            diff = np.concatenate(
                [read_tensor(h, n).values - read_tensor(base_h, n).values for n in sorted(names)]
            )
            flats.append(diff)
        stats = compute_stats(open_checkpoint(base_p), handles, want_gram=True)
        for t, flat in enumerate(flats):
            acc = 0.0
            for x in flat:
                acc += x * x
            assert stats.sq_norms[t] == pytest.approx(acc, rel=1e-10)
        # gram cross terms against the same oracle
        for i in range(3):
            for j in range(3):
                acc = 0.0
                for x, y in zip(flats[i], flats[j]):
                    acc += x * y
                assert stats.gram[i, j] == pytest.approx(acc, rel=1e-10, abs=1e-12)

    def test_reads_decode_into_reused_buffers(self, tmp_path, monkeypatch):
        from taskmerge import task_vectors, tensor_store

        rng = np.random.default_rng(5)
        shapes = {"a": (6, 7), "b": (5,), "c": (_CHUNK + 13,)}  # "c" has two nodes
        base = {n: rng.standard_normal(s) for n, s in shapes.items()}
        paths = [write_ckpt(tmp_path / "b.st", base)]
        paths += [write_ckpt(tmp_path / f"m{t}.st", {n: v + t + 1 for n, v in base.items()})
                  for t in range(2)]
        ranged, whole = [], []
        real_range, real_tensor = tensor_store.read_payload, task_vectors.read_tensor

        def range_spy(handle, name, lo, hi, file, raw):
            ranged.append((handle.path, name, lo, hi, raw))
            return real_range(handle, name, lo, hi, file, raw)

        def tensor_spy(handle, name, out=None):
            whole.append((handle.path == paths[0], out is not None))
            return real_tensor(handle, name, out=out)

        monkeypatch.setattr(tensor_store, "read_payload", range_spy)
        monkeypatch.setattr(task_vectors, "read_tensor", tensor_spy)
        sizes = {name: int(np.prod(shape)) for name, shape in shapes.items()}
        # the walk reads the nodes of split(n), in (node, input) order
        nodes = [(p, name, lo, hi) for name, n in sizes.items() for lo, hi in split(n)
                 for p in paths]
        results = []
        for want_gram in (False, True):
            ranged.clear()
            whole.clear()
            handles = [open_checkpoint(p) for p in paths]
            results.append(compute_stats(handles[0], handles[1:], want_gram=want_gram))
            # every payload byte once, in ranged reads of at most _CHUNK values
            assert [r[:4] for r in ranged] == nodes
            for h in handles:
                payload = sum(meta.num_bytes for meta in h.index.values())
                assert h.bytes_read == h.data_start + payload
            # with or without the Gram pairs, each node lands in one reused
            # byte buffer, and no tensor is read whole
            assert len({id(r[4]) for r in ranged}) == 1 and whole == []
        assert results[1].sq_norms == results[0].sq_norms

    @staticmethod
    def peaks(tmp_path, tasks, want_gram, families=None):
        """Traced peaks of compute_stats on BF16 families of the given
        {name: shape} tensors; by default one whose largest tensor holds
        2**20 elements and one whose largest holds 2**22."""
        rng = np.random.default_rng(9)
        peaks = []
        if families is None:
            families = [{"emb": (rows, 1024), "w": (300,)} for rows in (1024, 4096)]
        for i, shapes in enumerate(families):
            base = {n: rng.standard_normal(s) for n, s in shapes.items()}
            paths = [write_ckpt(tmp_path / f"b{i}.st", base, dtype="BF16")]
            paths += [write_ckpt(tmp_path / f"m{i}-{t}.st",
                                 {n: v + 0.1 * (t + 1) for n, v in base.items()}, dtype="BF16")
                      for t in range(tasks)]
            handles = [open_checkpoint(p) for p in paths]
            peaks.append(traced_peak(
                lambda: compute_stats(handles[0], handles[1:], want_gram=want_gram)))
        return peaks

    def test_norms_peak_does_not_grow_with_the_tensor(self, tmp_path):
        # the walk goes node by node: a fixed peak, the same for a tensor
        # four times larger
        peaks = self.peaks(tmp_path, 2, False)
        low, high = stats_peak_range(2, False)
        assert low <= min(peaks) and max(peaks) <= high
        assert abs(peaks[1] - peaks[0]) <= 64 << 10

    @pytest.mark.parametrize("tasks", [2, 4])
    def test_gram_peak_is_fixed_plus_a_node_row_per_task(self, tmp_path, tasks):
        peaks = self.peaks(tmp_path, tasks, True)
        low, high = stats_peak_range(tasks, True)
        assert low <= min(peaks) and max(peaks) <= high
        assert abs(peaks[1] - peaks[0]) <= 64 << 10

    @pytest.mark.parametrize("want_gram", [False, True], ids=["norms", "gram"])
    def test_second_large_tensor_adds_nothing_to_the_peak(self, tmp_path, want_gram):
        # the node arrays are made once per call, so a tensor's arrays are
        # not still held while the next tensor's nodes are read
        families = [{"a": (1024, 1024), "b": second} for second in ((300,), (1024, 1024))]
        peaks = self.peaks(tmp_path, 2, want_gram, families)
        low, high = stats_peak_range(2, want_gram)
        assert low <= min(peaks) and max(peaks) <= high
        assert abs(peaks[1] - peaks[0]) <= 64 << 10

    def test_bitwise_deterministic(self, small_family):
        paths, *_ = small_family
        runs = []
        for _ in range(2):
            stats = compute_stats(
                open_checkpoint(paths["base"]),
                [open_checkpoint(paths["m1"]), open_checkpoint(paths["m2"])],
            )
            runs.append(stats.sq_norms)
        assert runs[0] == runs[1]

    def test_gram_diag_equals_sq_norms(self, small_family):
        paths, *_ = small_family
        stats = compute_stats(
            open_checkpoint(paths["base"]),
            [open_checkpoint(paths["m1"]), open_checkpoint(paths["m2"])],
            want_gram=True,
        )
        np.testing.assert_allclose(np.diag(stats.gram), stats.sq_norms, rtol=1e-12)

    def test_strict_rejects_missing(self, tmp_path):
        base = write_ckpt(tmp_path / "b.st", {"x": np.zeros(2), "y": np.zeros(2)})
        model = write_ckpt(tmp_path / "m.st", {"x": np.ones(2)})
        with pytest.raises(ValidationError, match="key-compatible"):
            compute_stats(open_checkpoint(base), [open_checkpoint(model)], strict=True)

    def test_lenient_missing_contributes_zero(self, tmp_path):
        base = write_ckpt(tmp_path / "b.st", {"x": np.zeros(2), "y": np.zeros(3)})
        model = write_ckpt(tmp_path / "m.st", {"x": np.array([3.0, 4.0])})
        stats = compute_stats(open_checkpoint(base), [open_checkpoint(model)], strict=False)
        assert stats.sq_norms == [25.0]
        assert stats.missing_names == {"y": ["m"]}

    @pytest.mark.parametrize("method", ["metagpt", "weight_average"])
    @pytest.mark.parametrize("transform", ["none", "dare"])
    @pytest.mark.parametrize("want_gram", [False, True], ids=["norms", "gram"])
    @pytest.mark.parametrize("strict", [True, False])
    def test_norms_and_missing_names_match_engine(self, tmp_path, strict, want_gram, transform,
                                                  method):
        # stats and non-TIES merges share one walk, whose raw norms are taken
        # before any transform: in a norms-only walk before the combine walk
        # (metagpt), and in the one walk of a norm-free method
        rng = np.random.default_rng(17)
        base = {"w.a": rng.standard_normal((4, 5)), "w.b": rng.standard_normal(7)}
        models = [
            {k: v + 0.1 * rng.standard_normal(v.shape) for k, v in base.items()} for _ in range(3)
        ]
        if not strict:
            del models[1]["w.b"]
            models[2]["extra"] = np.ones(2)
        base_p = write_ckpt(tmp_path / "b.st", base)
        model_ps = [write_ckpt(tmp_path / f"m{i}.st", m) for i, m in enumerate(models)]
        ids = ["a", "b", "c"]
        stats = compute_stats(
            open_checkpoint(base_p),
            [open_checkpoint(p) for p in model_ps],
            strict=strict,
            task_ids=ids,
            want_gram=want_gram,
        )
        recipe = MergeRecipe(
            base=base_p,
            tasks=[TaskSpec(tid, p) for tid, p in zip(ids, model_ps)],
            output=str(tmp_path / "o.st"),
            strict_keys=strict,
            method=method,
            transform=transform,
            dare_p=0.5,
        )
        _, report = run_recipe(recipe)
        raw = np.array(report.raw_sq_norms).tobytes()
        assert np.array(stats.sq_norms).tobytes() == raw
        if want_gram:
            assert np.diag(stats.gram).tobytes() == raw
        assert (stats.missing_names or {}) == report.missing_names
        assert report.missing_names == ({} if strict else {"w.b": ["b"]})

    def test_duplicate_task_ids_rejected(self, small_family):
        paths, *_ = small_family
        models = [open_checkpoint(paths["m1"]), open_checkpoint(paths["m2"])]
        with pytest.raises(ValidationError, match="unique"):
            compute_stats(open_checkpoint(paths["base"]), models, task_ids=["x", "x"])
        with pytest.raises(ValidationError, match="unique"):
            stats_from_arrays(["y", "y"], [np.ones(3), np.zeros(3)])

    def test_shape_mismatch_always_fatal(self, tmp_path):
        base = write_ckpt(tmp_path / "b.st", {"x": np.zeros((2, 2))})
        model = write_ckpt(tmp_path / "m.st", {"x": np.zeros(4)})
        with pytest.raises(ValidationError, match="shape mismatch"):
            compute_stats(open_checkpoint(base), [open_checkpoint(model)], strict=False)

    def test_digest_stable_and_distinct(self, small_family):
        paths, *_ = small_family
        s1 = compute_stats(open_checkpoint(paths["base"]), [open_checkpoint(paths["m1"])])
        s2 = compute_stats(open_checkpoint(paths["base"]), [open_checkpoint(paths["m1"])])
        s3 = compute_stats(open_checkpoint(paths["base"]), [open_checkpoint(paths["m2"])])
        assert s1.digest() == s2.digest()
        assert s1.digest() != s3.digest()


class TestCosine:
    def test_orthogonal_axes(self):
        stats = stats_from_arrays(
            ["a", "b"], [np.array([1.0, 0.0]), np.array([0.0, 1.0])], want_gram=True
        )
        cos = cosine_matrix(stats).values
        assert cos[0, 1] == 0.0
        assert cos[0, 0] == 1.0

    def test_collinear(self):
        v = np.array([1.0, 2.0, -3.0])
        stats = stats_from_arrays(["a", "b"], [v, 2.0 * v], want_gram=True)
        assert cosine_matrix(stats).values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_random_high_dim_nearly_orthogonal(self):
        # concentration of random directions: |cos| ~ 1/sqrt(dim)
        rng = np.random.default_rng(0)
        for _ in range(20):
            u, v = rng.standard_normal((2, 1_000_000))
            stats = stats_from_arrays(["u", "v"], [u, v], want_gram=True)
            assert abs(cosine_matrix(stats).values[0, 1]) < 0.005

    def test_zero_norm_is_degenerate(self):
        stats = stats_from_arrays(["a", "b"], [np.zeros(3), np.ones(3)], want_gram=True)
        with pytest.raises(ValidationError, match="degenerate task vector"):
            cosine_matrix(stats)

    def test_requires_gram(self):
        stats = stats_from_arrays(["a"], [np.ones(3)], want_gram=False)
        with pytest.raises(ValidationError, match="gram"):
            cosine_matrix(stats)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        vecs = [rng.standard_normal(40) for _ in range(4)]
        cos = cosine_matrix(stats_from_arrays(list("abcd"), vecs, want_gram=True)).values
        np.testing.assert_array_equal(cos, cos.T)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-100, 100), min_size=4, max_size=4),
        min_size=2,
        max_size=5,
    )
)
def test_cauchy_schwarz(rows):
    vecs = [np.array(r) for r in rows]
    stats = stats_from_arrays([f"t{i}" for i in range(len(vecs))], vecs, want_gram=True)
    sq = np.array(stats.sq_norms)
    for i in range(len(vecs)):
        for j in range(len(vecs)):
            assert abs(stats.gram[i, j]) <= np.sqrt(sq[i] * sq[j]) + 1e-9


def test_json_export_shape(small_family):
    paths, *_ = small_family
    stats = compute_stats(
        open_checkpoint(paths["base"]),
        [open_checkpoint(paths["m1"]), open_checkpoint(paths["m2"])],
        want_gram=True,
    )
    import json

    data = json.loads(stats.to_json())
    assert set(data) == {"tasks", "sq_norms", "cosine"}
    assert len(data["cosine"]) == 2


# sizes at numpy's unroll (8), its pairwise block (128), the leaf and the
# first splits above it
EDGE_SIZES = [0, 1, 7, 8, 9, 127, 128, 129, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF - 8,
              2 * _LEAF + 8]


def spread_values(rng, n, lo, span, zeros):
    """Signed values with decimal exponents in [lo, lo + span], a fraction
    *zeros* of them -0.0 and about one in eight subnormal."""
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, min(lo + span, 150), n)
    subnormal = rng.random(n) < 1 / 8
    x[subnormal] = rng.integers(1, 2**52, np.count_nonzero(subnormal)) * 5e-324
    x[rng.random(n) < zeros] = -0.0
    return x


@settings(max_examples=80, deadline=None)
@given(
    n=st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, 4 * _LEAF)),
    seed=st.integers(0, 2**32 - 1),
    lo=st.integers(-300, 150),
    span=st.integers(0, 450),
    zeros=st.sampled_from([0.0, 0.1, 1.0]),
)
def test_blocked_sums_match_numpy_bit_for_bit(n, seed, lo, span, zeros):
    rng = np.random.default_rng(seed)
    x, y = (spread_values(rng, n, lo, span, zeros) for _ in range(2))
    stats = stats_from_arrays(["x", "y"], [x, y], want_gram=True)

    def bits(v):
        return np.float64(v).tobytes()

    assert bits(stats.sq_norms[0]) == bits(np.sum(x * x))
    assert bits(stats.sq_norms[1]) == bits(np.sum(y * y))
    assert bits(stats.gram[0, 1]) == bits(np.sum(x * y))
    assert bits(stats.gram[1, 0]) == bits(np.sum(x * y))
    assert bits(blocked_dot(x, y)) == bits(np.sum(x * y))
    assert bits(blocked_dot(x, x)) == bits(np.sum(x * x))


# sizes of one node and of the first splits around it, besides EDGE_SIZES
NODE_SIZES = [_CHUNK + d for d in (-8, -1, 0, 1, 8)] + [2 * _CHUNK + d for d in (-8, 1, 8)]


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.sampled_from(EDGE_SIZES + NODE_SIZES), st.integers(0, 4 * _CHUNK)),
    seed=st.integers(0, 2**32 - 1),
    lo=st.integers(-300, 150),
    span=st.integers(0, 450),
    zeros=st.sampled_from([0.0, 0.1, 1.0]),
)
def test_fold_of_node_sums_matches_numpy_bit_for_bit(n, seed, lo, span, zeros):
    rng = np.random.default_rng(seed)
    x, y = (spread_values(rng, n, lo, span, zeros) for _ in range(2))
    nodes = list(split(n))
    # the nodes tile [0, n) in order, none larger than a codec chunk
    assert [a for a, _ in nodes] == [0] + [b for _, b in nodes[:-1]]
    assert nodes[-1][1] == n and all(b - a <= _CHUNK for a, b in nodes)
    sums = [blocked_dot(x[a:b], y[a:b]) for a, b in nodes]
    assert np.float64(fold(n, sums)).tobytes() == np.sum(x * y).tobytes()


# Sizes on each side of the reduction's leaf and of a node; the last splits
# into three nodes
GRAM_SIZES = [0, 1, _LEAF - 1, _LEAF + 1, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 1]


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.sampled_from(GRAM_SIZES), min_size=1, max_size=3),
    dtype=st.sampled_from(["F32", "BF16", "F16"]),
    tasks=st.integers(1, 4),
    held=st.lists(st.booleans(), min_size=12, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_node_gram_matches_dense_sums_bit_for_bit(sizes, dtype, tasks, held, seed):
    rng = np.random.default_rng(seed)
    names = [f"t{i}" for i in range(len(sizes))]
    base = {name: rng.standard_normal(n) for name, n in zip(names, sizes)}
    models = []
    for t in range(tasks):
        # tensor i is missing from task t unless held[3 * t + i]; every
        # model also holds a tensor the base lacks, so none is empty
        model = {name: base[name] + 0.1 * (t + 1) * rng.standard_normal(base[name].size)
                 for i, name in enumerate(names) if held[3 * t + i]}
        models.append({**model, "x": np.ones(3)})
    with tempfile.TemporaryDirectory() as d:
        base_p = write_ckpt(Path(d) / "base.st", base, dtype=dtype)
        model_ps = [write_ckpt(Path(d) / f"m{t}.st", m, dtype=dtype)
                    for t, m in enumerate(models)]
        stats = compute_stats(open_checkpoint(base_p), [open_checkpoint(p) for p in model_ps],
                              want_gram=True, strict=False)
        # the oracle: np.sum of each tensor's products, folded in sorted-name order
        dense_base = read_checkpoint_dense(base_p)
        dense = [read_checkpoint_dense(p) for p in model_ps]
    gram = np.zeros((tasks, tasks))
    for name in sorted(dense_base):
        diffs = {t: m[name] - dense_base[name] for t, m in enumerate(dense) if name in m}
        for i in diffs:
            for j in diffs:
                gram[i, j] += float(np.sum(diffs[i] * diffs[j]))
    assert stats.gram.tobytes() == gram.tobytes()
    assert np.array(stats.sq_norms).tobytes() == np.diag(gram).tobytes()


def test_blocked_sum_of_negative_zeros_is_positive_zero():
    # every product underflows to -0.0; np.sum starts from +0.0, so the sum is +0.0
    for n in EDGE_SIZES:
        x, y = np.full(n, -1e-200), np.full(n, 1e-200)
        assert np.float64(blocked_dot(x, y)).tobytes() == np.sum(x * y).tobytes()


def test_gram_needs_vectors_of_one_length():
    with pytest.raises(ValidationError, match="one length"):
        stats_from_arrays(["a", "b"], [np.ones(3), np.ones(1)], want_gram=True)
