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

from conftest import write_ckpt


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

    @pytest.mark.parametrize("strict", [True, False])
    def test_norms_and_missing_names_match_engine(self, tmp_path, strict):
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
        )
        recipe = MergeRecipe(
            base=base_p,
            tasks=[TaskSpec(tid, p) for tid, p in zip(ids, model_ps)],
            output=str(tmp_path / "o.st"),
            strict_keys=strict,
        )
        _, report = run_recipe(recipe)
        assert np.array(stats.sq_norms).tobytes() == np.array(report.raw_sq_norms).tobytes()
        assert (stats.missing_names or {}) == report.missing_names
        assert report.missing_names == ({} if strict else {"w.b": ["b"]})

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
