import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from taskmerge import cli, task_vectors

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
        code, out, _ = run_cli(capsys, "coeffs", base, m1, m2, "--method", "fixed",
                               "--lambda", "0.4")
        assert code == 0
        assert json.loads(out)["lambdas"] == [0.4, 0.4]

    def test_weight_average(self, capsys, trio):
        base, m1, m2 = trio
        code, out, _ = run_cli(capsys, "coeffs", base, m1, m2, "--method", "weight-average")
        assert json.loads(out)["lambdas"] == [0.5, 0.5]

    def test_no_inputs_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "coeffs")
        assert code == 1

    def test_norm_free_reads_no_tensor(self, capsys, monkeypatch, trio):
        reads = []

        def counted(handle, name, out=None, _read=task_vectors.read_tensor):
            reads.append(name)
            return _read(handle, name, out=out)

        monkeypatch.setattr(task_vectors, "read_tensor", counted)
        base, m1, m2 = trio
        for method, lambdas in (("weight-average", [0.5, 0.5]), ("fixed", [0.3, 0.3])):
            code, out, _ = run_cli(capsys, "coeffs", base, m1, m2, "--method", method)
            assert code == 0
            assert json.loads(out) == {
                "method": method.replace("-", "_"),
                "tasks": ["m1", "m2"],
                "lambdas": lambdas,
            }
        assert reads == []

    def test_norm_free_still_checks_compatibility(self, capsys, tmp_path, trio):
        base, m1, _ = trio
        short = write_ckpt(tmp_path / "short.st", {"a": np.ones((2, 2))})
        code, _, err = run_cli(capsys, "coeffs", base, m1, short,
                               "--method", "weight-average", "--strict")
        assert code == 2
        assert "key-compatible" in err

    @pytest.mark.parametrize(
        "method,data",
        [
            ("metagpt", {"tasks": ["a"], "sq_norms": [1.0, 0.0]}),
            ("weight-average", {"tasks": ["a", "b"], "sq_norms": [1.0]}),
            ("weight-average", {"tasks": "ab", "sq_norms": [1.0, 2.0]}),
            ("metagpt", {"tasks": ["a", "a"], "sq_norms": [1.0, 2.0]}),
        ],
        ids=["norms_longer", "norms_shorter", "tasks_string", "duplicate_ids"],
    )
    def test_malformed_stats_exit_1(self, capsys, tmp_path, method, data):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "coeffs", "--stats", str(stats), "--method", method)
        assert code == 1
        assert out == ""
        assert err.startswith("error: stats file needs")

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

    def test_merge_succeeds_with_report(self, capsys, tmp_path, trio):
        recipe, out_path = self.write_recipe(tmp_path, trio)
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "merge", "--recipe", recipe,
                               "--report", str(report_path))
        assert code == 0
        report = json.loads(out)
        assert report["coefficients"]["lambdas"] == [0.25, 0.75]
        assert json.loads(report_path.read_text()) == report

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
        ],
    )
    def test_mistyped_field_exits_1(self, capsys, tmp_path, trio, field, value):
        recipe, _ = self.write_recipe(tmp_path, trio, **{field: value})
        code, out, err = run_cli(capsys, "merge", "--recipe", recipe)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "out.st").exists()

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

    def test_legacy_indicator_records_without_asserting(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "thm1", "--trials", "5",
                               "--legacy-indicator")
        assert code == 0
        entry = json.loads(out)["suites"][0]
        assert entry["asserted"] is False

    def test_dim_tasks_flags(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma1", "--trials", "3",
                               "--dim", "16", "--tasks", "2")
        assert code == 0


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
