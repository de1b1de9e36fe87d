import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taskmerge import FormatError, MergeRecipe, TaskSpec, ValidationError, cli, merge_engine
from taskmerge import compute_stats, open_checkpoint, read_tensor, run_recipe, selection
from taskmerge import tensor_store
from taskmerge.coefficients import COEFFICIENT_METHODS
from taskmerge.task_vectors import split
from taskmerge.tensor_store import _CHUNK, DTYPE_SIZES

from conftest import write_ckpt


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = int(e.code or 0)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def trio(tmp_path):
    base = write_ckpt(tmp_path / "base.st", {"a": np.zeros((2, 2)), "b": np.zeros(3)})
    m1 = write_ckpt(
        tmp_path / "m1.st", {"a": np.array([[1.0, 0], [0, 0]]), "b": np.zeros(3)}
    )
    m2 = write_ckpt(
        tmp_path / "m2.st", {"a": np.zeros((2, 2)), "b": np.array([1.0, 1.0, 1.0])}
    )
    return base, m1, m2


class TestInspect:
    def test_valid_file(self, capsys, trio):
        base, *_ = trio
        code, out, _ = run_cli(capsys, "inspect", base)
        assert code == 0
        data = json.loads(out)
        assert data["total_params"] == 7
        assert data["tensors"]["a"]["shape"] == [2, 2]

    def test_truncated_file_exits_2(self, capsys, tmp_path, trio):
        base, *_ = trio
        raw = Path(base).read_bytes()
        bad = tmp_path / "bad.st"
        bad.write_bytes(raw[:-8])
        code, _, err = run_cli(capsys, "inspect", str(bad))
        assert code == 2
        assert "truncated" in err

    def test_deeply_nested_header_exits_2(self, capsys, tmp_path):
        encoded = b"[" * 200_000
        bad = tmp_path / "bad.st"
        bad.write_bytes(len(encoded).to_bytes(8, "little") + encoded)
        code, _, err = run_cli(capsys, "inspect", str(bad))
        assert code == 2
        assert "malformed header" in err

    def test_empty_path_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "inspect", "")
        assert code == 1

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "inspect", "/nonexistent/x.st")
        assert code == 2


class TestStats:
    def test_three_four_five(self, capsys, tmp_path):
        base = write_ckpt(tmp_path / "b.st", {"w": np.zeros(2)})
        model = write_ckpt(tmp_path / "m.st", {"w": np.array([3.0, 4.0])})
        code, out, _ = run_cli(capsys, "stats", base, model)
        assert code == 0
        assert json.loads(out)["sq_norms"] == [25.0]

    def test_gram_orthogonal_pair(self, capsys, trio):
        base, m1, m2 = trio
        code, out, _ = run_cli(capsys, "stats", base, m1, m2, "--gram")
        assert code == 0
        cos = json.loads(out)["cosine"]
        assert abs(cos[0][1]) <= 1e-9

    def test_strict_missing_exits_2(self, capsys, tmp_path):
        base = write_ckpt(tmp_path / "b.st", {"x": np.zeros(2), "y": np.zeros(2)})
        model = write_ckpt(tmp_path / "m.st", {"x": np.ones(2)})
        code, _, err = run_cli(capsys, "stats", base, model, "--strict")
        assert code == 2
        assert "key-compatible" in err

    def test_lenient_warns_but_succeeds(self, capsys, tmp_path):
        base = write_ckpt(tmp_path / "b.st", {"x": np.zeros(2), "y": np.zeros(2)})
        model = write_ckpt(tmp_path / "m.st", {"x": np.ones(2)})
        code, out, err = run_cli(capsys, "stats", base, model)
        assert code == 0
        assert "warning" in err
        assert json.loads(out)["sq_norms"] == [2.0]


class TestCoeffs:
    def test_from_checkpoints(self, capsys, trio):
        base, m1, m2 = trio
        code, out, _ = run_cli(capsys, "coeffs", base, m1, m2)
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "metagpt"
        assert data["lambdas"] == [0.25, 0.75]

    def test_from_stats_file(self, capsys, tmp_path):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"tasks": ["a", "b"], "sq_norms": [1.0, 3.0]}))
        code, out, _ = run_cli(capsys, "coeffs", "--stats", str(stats))
        assert code == 0
        assert json.loads(out)["lambdas"] == [0.25, 0.75]

    def test_fixed_with_lambda(self, capsys, trio):
        base, m1, m2 = trio
        code, out, _ = run_cli(capsys, "coeffs", base, m1, m2,
                               "--method", "task_arithmetic_fixed", "--lambda", "0.4")
        assert code == 0
        assert json.loads(out)["lambdas"] == [0.4, 0.4]

    def test_weight_average(self, capsys, trio):
        base, m1, m2 = trio
        code, out, _ = run_cli(capsys, "coeffs", base, m1, m2, "--method", "weight_average")
        assert json.loads(out)["lambdas"] == [0.5, 0.5]

    @pytest.mark.parametrize("method", COEFFICIENT_METHODS)
    def test_method_names_are_the_labels(self, capsys, trio, method):
        base, m1, m2 = trio
        code, out, _ = run_cli(capsys, "coeffs", base, m1, m2, "--method", method)
        assert code == 0
        assert json.loads(out)["method"] == method

    @pytest.mark.parametrize("method", ["fixed", "weight-average"])
    def test_old_method_spellings_exit_1(self, capsys, trio, method):
        base, m1, m2 = trio
        code, out, err = run_cli(capsys, "coeffs", base, m1, m2, "--method", method)
        assert (code, out) == (1, "")
        assert "invalid choice" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_lambda_exits_1(self, capsys, trio, value):
        # as a recipe's fixed_lambda of the same value does
        base, m1, m2 = trio
        code, _, err = run_cli(capsys, "coeffs", base, m1, m2,
                               "--method", "task_arithmetic_fixed", f"--lambda={value}")
        assert code == 1
        assert "--lambda must be finite" in err

    def test_no_inputs_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "coeffs")
        assert code == 1

    def test_norm_free_reads_no_tensor(self, capsys, monkeypatch, trio):
        # every payload read, whole or by range, goes through read_payload
        reads = []

        def counted(handle, name, *args, _read=tensor_store.read_payload):
            reads.append(name)
            return _read(handle, name, *args)

        monkeypatch.setattr(tensor_store, "read_payload", counted)
        base, m1, m2 = trio
        for method, lambdas in (("weight_average", [0.5, 0.5]),
                                ("task_arithmetic_fixed", [0.3, 0.3])):
            code, out, _ = run_cli(capsys, "coeffs", base, m1, m2, "--method", method)
            assert code == 0
            assert json.loads(out) == {
                "method": method,
                "tasks": ["m1", "m2"],
                "lambdas": lambdas,
            }
        assert reads == []

    def test_norm_free_still_checks_compatibility(self, capsys, tmp_path, trio):
        base, m1, _ = trio
        short = write_ckpt(tmp_path / "short.st", {"a": np.ones((2, 2))})
        code, _, err = run_cli(capsys, "coeffs", base, m1, short,
                               "--method", "weight_average", "--strict")
        assert code == 2
        assert "key-compatible" in err

    @pytest.mark.parametrize(
        "method,data",
        [
            ("metagpt", {"tasks": ["a"], "sq_norms": [1.0, 0.0]}),
            ("weight_average", {"tasks": ["a", "b"], "sq_norms": [1.0]}),
            ("weight_average", {"tasks": "ab", "sq_norms": [1.0, 2.0]}),
            ("metagpt", {"tasks": ["a", "a"], "sq_norms": [1.0, 2.0]}),
            ("metagpt", {"tasks": ["a", "b"], "sq_norms": [float("nan"), 1.0]}),
            ("metagpt", {"tasks": ["a", "b"], "sq_norms": [float("inf"), 1.0]}),
            ("weight_average", {"tasks": ["a", "b"], "sq_norms": [10**400, 1.0]}),
        ],
        ids=["norms_longer", "norms_shorter", "tasks_string", "duplicate_ids",
             "nan_norm", "infinite_norm", "huge_int_norm"],
    )
    def test_malformed_stats_exit_1(self, capsys, tmp_path, method, data):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "coeffs", "--stats", str(stats), "--method", method)
        assert code == 1
        assert out == ""
        assert err.startswith("error: stats file needs")

    def test_norm_sum_overflow_exit_2(self, capsys, tmp_path):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"tasks": ["a", "b"], "sq_norms": [1e308, 1e308]}))
        code, out, err = run_cli(capsys, "coeffs", "--stats", str(stats))
        assert (code, out) == (2, "")
        assert "float64 range" in err

    def test_stats_not_utf8_exit_1(self, capsys, tmp_path):
        stats = tmp_path / "stats.json"
        stats.write_bytes(b"\xff" + json.dumps({"tasks": ["a"], "sq_norms": [1.0]}).encode())
        code, out, err = run_cli(capsys, "coeffs", "--stats", str(stats))
        assert (code, out) == (1, "")
        assert err.startswith("error: stats file is not valid JSON")

    @pytest.mark.parametrize(
        "norms,match",
        [([1e-320, 1e300], "underflows to 0"), ([-1.0, 2.0], "negative squared norm")],
    )
    def test_unusable_norm_names_its_task_exit_2(self, capsys, tmp_path, norms, match):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"tasks": ["first", "second"], "sq_norms": norms}))
        code, out, err = run_cli(capsys, "coeffs", "--stats", str(stats))
        assert (code, out) == (2, "")
        assert match in err and "['first']" in err

    def test_degenerate_stats_exit_2(self, capsys, tmp_path):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"tasks": ["a"], "sq_norms": [0.0]}))
        code, _, err = run_cli(capsys, "coeffs", "--stats", str(stats))
        assert code == 2
        assert "degenerate" in err


class TestMerge:
    def write_recipe(self, tmp_path, trio, **overrides):
        base, m1, m2 = trio
        spec = {
            "base": base,
            "tasks": [{"id": "t1", "path": m1}, {"id": "t2", "path": m2}],
            "method": "metagpt",
            "output": str(tmp_path / "out.st"),
        } | overrides
        path = tmp_path / "recipe.json"
        path.write_text(json.dumps(spec))
        return str(path), spec["output"]

    def test_merge_succeeds(self, capsys, tmp_path, trio):
        recipe, _ = self.write_recipe(tmp_path, trio)
        # the second run replaces the first one's output, which is no input
        for _ in range(2):
            code, out, _ = run_cli(capsys, "merge", "--recipe", recipe)
            assert code == 0
            assert json.loads(out)["coefficients"]["lambdas"] == [0.25, 0.75]

    def test_report_flag_is_unknown(self, capsys, tmp_path, trio):
        recipe, out_path = self.write_recipe(tmp_path, trio)
        code, _, err = run_cli(capsys, "merge", "--recipe", recipe,
                               "--report", str(tmp_path / "report.json"))
        assert code == 1
        assert "unrecognized arguments: --report" in err
        assert not os.path.exists(out_path)

    @pytest.mark.parametrize("spelling", ["base", "task", "dot-segment", "symlink"])
    def test_output_that_is_an_input_exits_1(self, capsys, tmp_path, trio, spelling):
        base, m1, _ = trio
        victim = m1 if spelling == "task" else base
        output = {
            "base": base,
            "task": m1,
            "dot-segment": f"{tmp_path}/./base.st",
            "symlink": str(tmp_path / "link.st"),
        }[spelling]
        if spelling == "symlink":
            os.symlink(base, output)
        before = Path(victim).read_bytes()
        recipe, _ = self.write_recipe(tmp_path, trio, output=output)
        code, out, err = run_cli(capsys, "merge", "--recipe", recipe)
        assert (code, out) == (1, "")
        assert f"output {output} is input {victim}" in err
        assert Path(victim).read_bytes() == before
        assert not list(tmp_path.glob("*.partial"))

    def test_output_that_is_a_directory_exits_2_and_leaves_no_partial(self, capsys, tmp_path,
                                                                       trio):
        adir = tmp_path / "adir"
        adir.mkdir()
        recipe, _ = self.write_recipe(tmp_path, trio, output=str(adir))
        code, out, err = run_cli(capsys, "merge", "--recipe", recipe)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert list(adir.iterdir()) == []
        assert not list(tmp_path.glob("*.partial"))

    @pytest.mark.parametrize("where", ["base", "output", "task"])
    def test_nul_in_a_path_exits_1(self, capsys, tmp_path, trio, where):
        base, m1, m2 = trio
        overrides = {
            "base": {"base": base + "\0"},
            "output": {"output": str(tmp_path / "o\0ut.st")},
            "task": {"tasks": [{"id": "t1", "path": m1}, {"id": "t2", "path": "m\0" + m2}]},
        }[where]
        recipe, _ = self.write_recipe(tmp_path, trio, **overrides)
        code, out, err = run_cli(capsys, "merge", "--recipe", recipe)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "contains a NUL character" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "base.st", "m1.st", "m2.st", "recipe.json"
        ]

    @pytest.mark.parametrize("method", COEFFICIENT_METHODS)
    def test_report_coefficients_carry_the_recipe_method(self, capsys, tmp_path, trio, method):
        recipe, _ = self.write_recipe(tmp_path, trio, method=method)
        code, out, _ = run_cli(capsys, "merge", "--recipe", recipe)
        assert code == 0
        assert json.loads(out)["coefficients"]["method"] == method

    def test_bad_density_exits_1(self, capsys, tmp_path, trio):
        recipe, _ = self.write_recipe(tmp_path, trio, ties_density=1.2)
        code, _, err = run_cli(capsys, "merge", "--recipe", recipe)
        assert code == 1
        assert "density out of range" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ties_density", "0.5"),
            ("dare_p", "0.1"),
            ("fixed_lambda", "1"),
            ("strict_keys", "false"),
            ("seed", True),
            ("ties_density", True),
            ("base", 5),
            ("output", 7),
            pytest.param("fixed_lambda", 10**400, id="fixed_lambda-huge_int"),
        ],
    )
    def test_mistyped_field_exits_1(self, capsys, tmp_path, trio, field, value):
        recipe, _ = self.write_recipe(tmp_path, trio, **{field: value})
        code, out, err = run_cli(capsys, "merge", "--recipe", recipe)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "out.st").exists()

    @pytest.mark.parametrize("key,value", [("id", 5), ("path", None)])
    def test_non_string_task_field_exits_1(self, capsys, tmp_path, trio, key, value):
        _, m1, _ = trio
        task = {"id": "t1", "path": m1} | {key: value}
        recipe, out_path = self.write_recipe(tmp_path, trio, tasks=[task])
        code, out, err = run_cli(capsys, "merge", "--recipe", recipe)
        assert (code, out) == (1, "")
        assert f"task {key} must be a string" in err
        assert not Path(out_path).exists()

    def test_missing_model_file_exits_2(self, capsys, tmp_path, trio):
        base, m1, _ = trio
        recipe, _ = self.write_recipe(
            tmp_path, (base, m1, str(tmp_path / "ghost.st"))
        )
        code, _, _ = run_cli(capsys, "merge", "--recipe", recipe)
        assert code == 2

    def test_repeated_run_byte_identical(self, capsys, tmp_path, trio):
        recipe, out_path = self.write_recipe(tmp_path, trio, seed=5, transform="dare")
        blobs = []
        for _ in range(2):
            code, _, _ = run_cli(capsys, "merge", "--recipe", recipe)
            assert code == 0
            blobs.append(Path(out_path).read_bytes())
        assert blobs[0] == blobs[1]

    def test_invalid_json_exits_1(self, capsys, tmp_path):
        recipe = tmp_path / "recipe.json"
        recipe.write_text("{nope")
        code, _, _ = run_cli(capsys, "merge", "--recipe", str(recipe))
        assert code == 1

    @pytest.mark.parametrize(
        "damage",
        [lambda raw: b"\xff" + raw, lambda raw: b"[" * 200_000 + raw],
        ids=["not_utf8", "deep_nesting"],
    )
    def test_undecodable_recipe_exits_1(self, capsys, tmp_path, trio, damage):
        recipe, out_path = self.write_recipe(tmp_path, trio)
        Path(recipe).write_bytes(damage(Path(recipe).read_bytes()))
        code, out, err = run_cli(capsys, "merge", "--recipe", recipe)
        assert (code, out) == (1, "")
        assert err.startswith("error: recipe is not valid JSON")
        assert not Path(out_path).exists()


# inf and NaN bit patterns, by stored dtype
BAD_BITS = {
    ("F32", "inf"): struct.pack("<I", 0x7F800000),
    ("F32", "nan"): struct.pack("<I", 0x7FC00001),
    ("BF16", "inf"): struct.pack("<H", 0xFF80),
    ("BF16", "nan"): struct.pack("<H", 0x7FC1),
}


class TestLastNodeFaults:
    """A fault in the last node of the last tensor of the last task keeps
    its error type and text, names that file, exits 2 and leaves no output
    and no temp file, however far the merge or the stats walk got."""

    N = 2 * _CHUNK + 9  # "z" splits into three nodes

    def write_family(self, tmp_path, dtype, method, transform):
        rng = np.random.default_rng(31)
        base = {"a": rng.standard_normal((5, 7)), "z": rng.standard_normal(self.N)}
        paths = [write_ckpt(tmp_path / "base.st", base, dtype=dtype)]
        for t in range(2):
            model = {n: v + 0.1 * (t + 1) * rng.standard_normal(v.shape) for n, v in base.items()}
            paths.append(write_ckpt(tmp_path / f"m{t}.st", model, dtype=dtype))
        recipe = tmp_path / "recipe.json"
        recipe.write_text(json.dumps({
            "base": paths[0],
            "tasks": [{"id": f"t{t}", "path": p} for t, p in enumerate(paths[1:])],
            "method": method,
            "transform": transform,
            "output": str(tmp_path / "out.st"),
        }))
        return str(recipe), paths[-1]

    def assert_fails_cleanly(self, capsys, tmp_path, via, recipe, error, message):
        if via == "cli":
            code, out, err = run_cli(capsys, "merge", "--recipe", recipe)
            assert (code, out, err) == (2, "", f"error: {message}\n")
        else:
            with pytest.raises(error) as caught:
                run_recipe(MergeRecipe.from_dict(json.loads(Path(recipe).read_text())))
            assert type(caught.value) is error and str(caught.value) == message
        assert not any(p.name.startswith("out.st") for p in tmp_path.iterdir())

    @pytest.mark.parametrize("via", ["api", "cli"])
    @pytest.mark.parametrize("method,transform",
                             [("metagpt", "none"), ("task_arithmetic_fixed", "dare"),
                              ("metagpt", "ties"), ("task_arithmetic_fixed", "ties")])
    @pytest.mark.parametrize("dtype,kind", sorted(BAD_BITS))
    def test_nonfinite_value(self, capsys, tmp_path, dtype, kind, method, transform, via):
        recipe, last = self.write_family(tmp_path, dtype, method, transform)
        self.store(last, self.N - 1, BAD_BITS[dtype, kind])
        self.assert_fails_cleanly(capsys, tmp_path, via, recipe, ValidationError,
                                  f"{last}: non-finite value in 'z'")

    @pytest.mark.parametrize("via", ["api", "cli"])
    @pytest.mark.parametrize("after_open", [False, True], ids=["before", "after_open"])
    def test_truncated_payload(self, capsys, tmp_path, monkeypatch, after_open, via):
        self.check_truncated(capsys, tmp_path, monkeypatch, after_open, via, "metagpt", "none")

    @pytest.mark.parametrize("via", ["api", "cli"])
    @pytest.mark.parametrize("after_open", [False, True], ids=["before", "after_open"])
    @pytest.mark.parametrize("method", ["metagpt", "task_arithmetic_fixed"])
    def test_truncated_ties_payload(self, capsys, tmp_path, monkeypatch, method, after_open,
                                    via):
        self.check_truncated(capsys, tmp_path, monkeypatch, after_open, via, method, "ties")

    @pytest.mark.parametrize("via", ["api", "cli"])
    @pytest.mark.parametrize("transform", ["none", "dare", "ties"])
    @pytest.mark.parametrize("node", [0, 1], ids=["first", "middle"])
    def test_truncated_after_open_in_an_earlier_node(self, capsys, tmp_path, monkeypatch,
                                                     node, transform, via):
        self.check_truncated(capsys, tmp_path, monkeypatch, True, via, "metagpt", transform,
                             node)

    def check_truncated(self, capsys, tmp_path, monkeypatch, after_open, via, method,
                        transform, node=None):
        recipe, last = self.write_family(tmp_path, "BF16", method, transform)
        # "z" is stored last: cut its last value, or all but one byte of
        # the given node
        size = os.path.getsize(last) - 2
        if node is not None:
            handle = open_checkpoint(last)
            lo, _ = list(split(self.N))[node]
            size = handle.data_start + handle.index["z"].byte_range[0] + 2 * lo + 1

        def truncating_open(path, _open=merge_engine.open_checkpoint):
            handle = _open(path)
            if path == last:
                os.truncate(last, size)
            return handle

        if after_open:
            monkeypatch.setattr(merge_engine, "open_checkpoint", truncating_open)
        else:
            os.truncate(last, size)
        self.assert_fails_cleanly(capsys, tmp_path, via, recipe, FormatError,
                                  f"{last}: truncated payload for 'z'")

    def store(self, path, at, bits):
        """Overwrite the stored value at flat index *at* of "z" in *path*."""
        handle = open_checkpoint(str(path))
        meta = handle.index["z"]
        with open(path, "r+b") as f:
            f.seek(handle.data_start + meta.byte_range[0] + at * DTYPE_SIZES[meta.dtype])
            f.write(bits)

    def spoil(self, path, node):
        """Store a NaN as the first value of "z"'s given node in *path*."""
        lo, _ = list(split(self.N))[node]
        self.store(path, lo, BAD_BITS["BF16", "nan"])

    @pytest.mark.parametrize("transform,named", [("none", 1), ("dare", 1), ("ties", 0)])
    def test_two_faulty_inputs_name_the_first_read(self, capsys, tmp_path, transform, named):
        # task 0's "z" is bad in its last node and task 1's in its first.
        # Node by node, task 1's first node is read before task 0's last;
        # TIES sweeps each task's nodes in a sweep of its own, in task order
        recipe, _ = self.write_family(tmp_path, "BF16", "metagpt", transform)
        models = [tmp_path / f"m{t}.st" for t in range(2)]
        self.spoil(models[0], -1)
        self.spoil(models[1], 0)
        self.assert_fails_cleanly(capsys, tmp_path, "cli", recipe, ValidationError,
                                  f"{models[named]}: non-finite value in 'z'")

    @pytest.mark.parametrize("transform", ["none", "dare", "ties"])
    def test_task_fault_read_before_a_later_base_fault(self, capsys, tmp_path, transform):
        # the base's "z" is bad in its last node and task 0's in its first:
        # task 0's first node is read in the first sweep, before the base's
        # last node, though TIES once decoded the whole base first
        recipe, _ = self.write_family(tmp_path, "BF16", "metagpt", transform)
        self.spoil(tmp_path / "base.st", -1)
        self.spoil(tmp_path / "m0.st", 0)
        self.assert_fails_cleanly(capsys, tmp_path, "cli", recipe, ValidationError,
                                  f"{tmp_path / 'm0.st'}: non-finite value in 'z'")

    @pytest.mark.parametrize("via", ["api", "cli"])
    @pytest.mark.parametrize("method", ["metagpt", "task_arithmetic_fixed"])
    def test_ties_task_truncated_between_its_sweeps(self, capsys, tmp_path, monkeypatch,
                                                     method, via):
        # task 0's "z" is cut once its first sweep has read it whole, before
        # its selection ends, so the read after meets the cut
        recipe, _ = self.write_family(tmp_path, "BF16", method, "ties")
        first = str(tmp_path / "m0.st")
        size = os.path.getsize(first) - 2

        def truncating_finish(select, again, _finish=selection.Selection.finish):
            if select.n == self.N:
                os.truncate(first, size)
            return _finish(select, again)

        monkeypatch.setattr(selection.Selection, "finish", truncating_finish)
        self.assert_fails_cleanly(capsys, tmp_path, via, recipe, FormatError,
                                  f"{first}: truncated payload for 'z'")

    def assert_stats_fails_cleanly(self, capsys, tmp_path, monkeypatch, via, gram, error,
                                   message, cut=None):
        """``taskmerge stats`` of the family, with the Gram matrix if *gram*,
        fails with *error* and *message*. *cut*, a (path, size), truncates
        that file once its handle is open."""
        paths = [str(tmp_path / name) for name in ("base.st", "m0.st", "m1.st")]

        def opened(path, _open=open_checkpoint):
            handle = _open(path)
            if cut is not None and path == cut[0]:
                os.truncate(*cut)
            return handle

        if via == "cli":
            monkeypatch.setattr(cli, "open_checkpoint", opened)
            code, out, err = run_cli(capsys, "stats", *paths, *(["--gram"] if gram else []))
            assert (code, out, err) == (2, "", f"error: {message}\n")
        else:
            handles = [opened(p) for p in paths]
            with pytest.raises(error) as caught:
                compute_stats(handles[0], handles[1:], want_gram=gram)
            assert type(caught.value) is error and str(caught.value) == message

    @pytest.mark.parametrize("via", ["api", "cli"])
    @pytest.mark.parametrize("gram", [False, True], ids=["norms", "gram"])
    @pytest.mark.parametrize("dtype,kind", sorted(BAD_BITS))
    def test_stats_nonfinite_value(self, capsys, tmp_path, monkeypatch, dtype, kind, gram,
                                   via):
        _, last = self.write_family(tmp_path, dtype, "metagpt", "none")
        self.store(last, self.N - 1, BAD_BITS[dtype, kind])
        self.assert_stats_fails_cleanly(capsys, tmp_path, monkeypatch, via, gram,
                                        ValidationError, f"{last}: non-finite value in 'z'")

    @pytest.mark.parametrize("via", ["api", "cli"])
    @pytest.mark.parametrize("gram", [False, True], ids=["norms", "gram"])
    @pytest.mark.parametrize("node", [0, 1], ids=["first", "middle"])
    def test_stats_truncated_after_open(self, capsys, tmp_path, monkeypatch, node, gram, via):
        # all but one byte of the given node of "z", which is stored last
        _, last = self.write_family(tmp_path, "BF16", "metagpt", "none")
        handle = open_checkpoint(last)
        lo, _ = list(split(self.N))[node]
        size = handle.data_start + handle.index["z"].byte_range[0] + 2 * lo + 1
        self.assert_stats_fails_cleanly(capsys, tmp_path, monkeypatch, via, gram, FormatError,
                                        f"{last}: truncated payload for 'z'",
                                        cut=(last, size))

    @pytest.mark.parametrize("via", ["api", "cli"])
    @pytest.mark.parametrize("gram", [False, True], ids=["norms", "gram"])
    def test_stats_two_faulty_inputs_name_the_first_read(self, capsys, tmp_path, monkeypatch,
                                                         gram, via):
        # task 0's "z" is bad in its last node and task 1's in its first:
        # with or without the Gram pairs, stats read node by node
        self.write_family(tmp_path, "BF16", "metagpt", "none")
        self.spoil(tmp_path / "m0.st", -1)
        self.spoil(tmp_path / "m1.st", 0)
        self.assert_stats_fails_cleanly(capsys, tmp_path, monkeypatch, via, gram,
                                        ValidationError,
                                        f"{tmp_path / 'm1.st'}: non-finite value in 'z'")


class TestCorruptedContainer:
    """Any truncation of a small valid container, and any single bit flip in
    its header or payload, leaves every layer that reads it either working
    or failing with FormatError or ValidationError, and a failed merge
    leaves no output and no temp file."""

    @settings(max_examples=150, deadline=None)
    @given(
        dtype=st.sampled_from(["F32", "F16", "BF16"]),
        victim=st.sampled_from(["base.st", "m.st"]),
        damage=st.sampled_from(["cut", "header", "payload"]),
        at=st.integers(0, 2**16),
    )
    # the top exponent bit of the model's first value: a NaN that a
    # one-walk merge meets while it writes
    @example(dtype="BF16", victim="m.st", damage="payload", at=14)
    def test_any_cut_or_bit_flip_fails_cleanly(self, dtype, victim, damage, at):
        # values in [1, 2), whose highest exponent bit is the one not set,
        # so one payload flip in 16 or 32 makes an inf or a NaN
        rng = np.random.default_rng(17)
        base = {"a": 1 + rng.random((3, 4)), "b": 1 + rng.random(5)}
        with tempfile.TemporaryDirectory() as d:
            paths = [write_ckpt(Path(d) / "base.st", base, dtype=dtype),
                     write_ckpt(Path(d) / "m.st", {n: v / 2 + 0.75 for n, v in base.items()},
                                dtype=dtype)]
            raw = bytearray((Path(d) / victim).read_bytes())
            data_start = 8 + int.from_bytes(raw[:8], "little")
            if damage == "cut":
                raw = raw[: at % len(raw)]
            else:
                lo, hi = (0, data_start) if damage == "header" else (data_start, len(raw))
                bit = 8 * lo + at % (8 * (hi - lo))
                raw[bit // 8] ^= 1 << bit % 8
            (Path(d) / victim).write_bytes(raw)

            def clean(step):
                try:
                    return step()
                except (FormatError, ValidationError):
                    return None

            handle = clean(lambda: open_checkpoint(str(Path(d) / victim)))
            for name in handle.index if handle is not None else ():
                clean(lambda: read_tensor(handle, name))
            for gram in (False, True):
                clean(lambda: compute_stats(open_checkpoint(paths[0]),
                                            [open_checkpoint(paths[1])], want_gram=gram))
            # the closed form meets a fault before it writes; the others
            # walk once, writing
            for method in ("metagpt", "task_arithmetic_fixed"):
                for transform in ("none", "ties", "dare"):
                    out = Path(d) / f"{method}-{transform}.st"
                    recipe = MergeRecipe(base=paths[0], tasks=[TaskSpec("t", paths[1])],
                                         output=str(out), method=method, transform=transform)
                    merged = clean(lambda: run_recipe(recipe))
                    assert out.exists() == (merged is not None)
            assert not list(Path(d).glob("*.partial"))


class TestVerify:
    def test_closed_form_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "thm4", "--trials", "20",
                               "--seed", "0")
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == 0
        assert report["suites"][0]["theorem"] == "thm4"

    def test_all_suites_has_six_entries(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--trials", "1")
        assert code == 0
        assert len(json.loads(out)["suites"]) == 6

    def test_unknown_suite_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "thm99")
        assert code == 1

    def test_zero_trials_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "thm1", "--trials", "0")
        assert code == 1

    def test_removed_legacy_indicator_flag_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "thm1", "--trials", "5",
                               "--legacy-indicator")
        assert code == 1
        assert "--legacy-indicator" in err

    def test_more_tasks_than_the_default_dim_range(self, capsys):
        # with no --dim, the drawn dim reaches up to the task count
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--tasks", "129",
                               "--trials", "1")
        assert code == 0
        assert json.loads(out)["violations"] == 0

    def test_dim_tasks_flags(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma1", "--trials", "3",
                               "--dim", "16", "--tasks", "2")
        assert code == 0

    @pytest.mark.parametrize("dim", ["1", "4"])
    def test_small_dim_draws_tasks_it_holds(self, capsys, dim):
        # with no --tasks, the drawn task count never passes --dim
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--trials", "5",
                               "--dim", dim)
        assert code == 0
        assert json.loads(out)["violations"] == 0

    @pytest.mark.parametrize("flags", [("--tasks", "0"), ("--tasks", "-2"), ("--dim", "0"),
                                       ("--dim", "-1")])
    def test_nonpositive_dim_or_tasks_exits_1(self, capsys, flags):
        code, _, err = run_cli(capsys, "verify", "--suite", "thm1", *flags)
        assert code == 1
        assert f"{flags[0]} must be >= 1" in err


class TestContract:
    def test_unknown_flag_rejected(self, capsys, trio):
        base, *_ = trio
        code, _, _ = run_cli(capsys, "inspect", base, "--frobnicate")
        assert code == 1

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_subprocess_entry_point(self, trio):
        base, *_ = trio
        proc = subprocess.run(
            [sys.executable, "-m", "taskmerge", "inspect", base],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["total_params"] == 7

    def test_stdout_is_json_stderr_is_prose(self, capsys, trio):
        base, m1, m2 = trio
        code, out, err = run_cli(capsys, "stats", base, m1, m2)
        json.loads(out)  # must parse
        assert code == 0
