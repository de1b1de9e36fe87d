"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and asserts the criterion at its stated tolerance.
"""

import json
import math
import time

import numpy as np

from taskmerge import (
    MergeRecipe,
    TaskSpec,
    TaskVectorStats,
    compute_stats,
    cosine_matrix,
    dare_transform,
    metagpt_coefficients,
    open_checkpoint,
    read_tensor,
    run_recipe,
    stats_from_arrays,
)
from taskmerge import theory_lab as tl

from conftest import merge_peak_range, traced_peak, write_ckpt
from dense_reference import reference_merge


def report_line(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_c01_closed_form_matches_grid_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        t_count = int(rng.integers(2, 9))
        m = int(rng.integers(max(8, t_count), 129))
        e = tl.make_ensemble(t_count, m, seed=int(rng.integers(0, 2**63)))
        stats = stats_from_arrays([f"t{i}" for i in range(t_count)], [t.tau for t in e.tasks])
        lambdas = np.array(metagpt_coefficients(stats).lambdas)
        grid = tl.grid_search_lambda(e, step=1e-4)
        worst = max(worst, float(np.max(np.abs(lambdas - grid))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    assert report_line(1, f"closed form vs grid search (worst {worst:.2e}, {elapsed:.1f}s)", ok)


def test_c02_normalization_and_symmetry():
    ok = True
    rng = np.random.default_rng(7)
    for _ in range(200):
        t_count = int(rng.integers(1, 9))
        norms = rng.uniform(1e-3, 1e3, t_count).tolist()
        lambdas = metagpt_coefficients(
            TaskVectorStats([f"t{i}" for i in range(t_count)], norms)
        ).lambdas
        ok &= abs(sum(lambdas) - 1.0) <= 1e-12
    for t_count in range(1, 9):
        lambdas = metagpt_coefficients(
            TaskVectorStats([f"t{i}" for i in range(t_count)], [3.7] * t_count)
        ).lambdas
        ok &= all(abs(lam - 1.0 / t_count) <= 1e-15 * (1.0 / t_count) for lam in lambdas)
    lambdas = metagpt_coefficients(TaskVectorStats(["a", "b", "c"], [1.0, 2.0, 3.0])).lambdas
    ok &= lambdas == [1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0]
    assert report_line(2, "coefficient normalization and symmetry", ok)


def test_c03_bound_dominance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)
    violations = 0
    for _ in range(10_000):
        t_count = int(rng.integers(2, 9))
        m = int(rng.integers(max(8, t_count), 129))
        e = tl.make_ensemble(t_count, m, seed=int(rng.integers(0, 2**63)))
        lam = rng.uniform(0.0, 1.0, t_count)
        for t in range(t_count):
            if tl.exact_tld(e, t, lam) > tl.tld_bound(e, t, lam) + 1e-9:
                violations += 1
        if tl.ald(e, lam) > tl.ald_bound(e, lam) + 1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120.0
    assert report_line(3, f"bound dominance over 1e4 draws ({elapsed:.1f}s)", ok)


def test_c04_loss_difference_equals_quadratic_form():
    rng = np.random.default_rng(271828)
    violations = 0
    worst = 0.0
    for _ in range(1000):
        t_count = int(rng.integers(2, 9))
        m = int(rng.integers(max(8, t_count), 129))
        e = tl.make_ensemble(t_count, m, seed=int(rng.integers(0, 2**63)))
        lam = rng.uniform(0.0, 1.0, t_count)
        for t in range(t_count):
            a, b = tl.exact_tld(e, t, lam), tl.tld_quadratic(e, t, lam)
            # relative 1e-12; 1e-16 absolute slack covers the float-noise
            # floor where the loss difference itself vanishes
            if abs(a - b) > 1e-12 * max(abs(a), abs(b)) + 1e-16:
                violations += 1
            if max(abs(a), abs(b)) > 0:
                worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    ok = violations == 0
    assert report_line(4, f"dual-route loss difference (worst rel {worst:.2e})", ok)


def test_c05_hessian_and_gradient_link():
    rng = np.random.default_rng(999)
    worst_h = 0.0
    worst_g = 0.0
    for trial in range(50):
        t_count = int(rng.integers(1, 7))
        m = int(rng.integers(max(4, t_count), 48))
        e = tl.make_ensemble(t_count, m, seed=int(rng.integers(0, 2**63)))
        t = int(rng.integers(0, t_count))
        res = tl.verify_hessian_identity(e, t, seed=trial)
        worst_h = max(worst_h, res["max_hessian_abs_err"])
        worst_g = max(worst_g, res["grad_link_err"])
    ok = worst_h <= 1e-4 and worst_g <= 1e-14
    assert report_line(
        5, f"hessian outer product (max {worst_h:.2e}) and gradient link ({worst_g:.1e})", ok
    )


def _merge_instance(tmp_path, rng, n_embed=2000, n_big=60_000):
    base = {
        "embed": rng.standard_normal((40, n_embed // 40)),
        "w1": rng.standard_normal((64, 64)),
        "w2": rng.standard_normal(n_big),
        "bias": rng.standard_normal(17),
    }
    base_p = write_ckpt(tmp_path / "base.st", base)
    model_ps = []
    for i in range(3):
        model = {n: v + 0.2 * rng.standard_normal(v.shape) for n, v in base.items()}
        model_ps.append(write_ckpt(tmp_path / f"model{i}.st", model))
    return base_p, model_ps


def test_c06_merge_engine_matches_dense_reference(tmp_path):
    rng = np.random.default_rng(55)
    base_p, model_ps = _merge_instance(tmp_path, rng)
    worst = 0.0
    for method in ("weight_average", "task_arithmetic_fixed", "metagpt"):
        for transform in ("none", "ties", "dare"):
            recipe = MergeRecipe(
                base=base_p,
                tasks=[TaskSpec(f"t{i}", p) for i, p in enumerate(model_ps)],
                output=str(tmp_path / f"out_{method}_{transform}.st"),
                method=method,
                transform=transform,
                ties_density=0.55,
                dare_p=0.5,
                fixed_lambda=0.3,
                seed=1234,
            )
            handle, _ = run_recipe(recipe)
            expect, _ = reference_merge(
                base_p, model_ps, method=method, transform=transform,
                ties_density=0.55, dare_p=0.5, fixed_lambda=0.3, seed=1234,
            )
            for name, ref in expect.items():
                got = read_tensor(handle, name).values
                worst = max(worst, float(np.max(np.abs(got - ref))))
    ok = worst <= 1e-6
    assert report_line(6, f"merge engine vs dense reference (worst {worst:.2e})", ok)


def test_c07_dare_unbiasedness():
    ok = True
    for p in (0.25, 0.5, 0.9):
        # 2% over 1e5 draws is ~2.1 sigma at p=0.9, so the stream key is
        # pinned; a broken rescale factor would miss by far more than 2%
        out = np.ones(100_000)
        dare_transform(out, p, (16, 0, "w"))
        mean = float(np.mean(out))
        ok &= abs(mean - 1.0) <= 0.02
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4096)
    out = v.copy()
    dare_transform(out, 0.0, (0, 0, "w"))
    ok &= np.array_equal(out, v)
    assert report_line(7, "drop-and-rescale unbiasedness and p=0 identity", ok)


def test_c08_degeneracies(tmp_path):
    rng = np.random.default_rng(88)
    base = {"w": rng.standard_normal(512), "v": rng.standard_normal((16, 16))}
    base_p = write_ckpt(tmp_path / "base.st", base)
    fine = {n: v + 0.3 * rng.standard_normal(v.shape) for n, v in base.items()}
    fine_p = write_ckpt(tmp_path / "fine.st", fine)

    # single task, lambda = 1: output reproduces the fine-tuned model exactly
    recipe = MergeRecipe(
        base=base_p, tasks=[TaskSpec("only", fine_p)], output=str(tmp_path / "o1.st"),
        method="task_arithmetic_fixed", fixed_lambda=1.0,
    )
    handle, _ = run_recipe(recipe)
    fine_h = open_checkpoint(fine_p)
    ok = all(
        np.array_equal(read_tensor(handle, n).values, read_tensor(fine_h, n).values)
        for n in base
    )

    # all lambdas zero: output reproduces the base exactly
    recipe = MergeRecipe(
        base=base_p, tasks=[TaskSpec("only", fine_p)], output=str(tmp_path / "o2.st"),
        method="task_arithmetic_fixed", fixed_lambda=0.0,
    )
    handle, _ = run_recipe(recipe)
    base_h = open_checkpoint(base_p)
    ok &= all(
        np.array_equal(read_tensor(handle, n).values, read_tensor(base_h, n).values)
        for n in base
    )

    # ties with density 1 and globally consistent signs = plain task arithmetic
    tvs = [{n: np.abs(rng.standard_normal(v.shape)) + 0.01 for n, v in base.items()}
           for _ in range(3)]
    model_ps = [
        write_ckpt(tmp_path / f"pos{i}.st", {n: base[n] + tv[n] for n in base})
        for i, tv in enumerate(tvs)
    ]
    tasks = [TaskSpec(f"t{i}", p) for i, p in enumerate(model_ps)]
    h_ties, _ = run_recipe(MergeRecipe(
        base=base_p, tasks=tasks, output=str(tmp_path / "o3.st"),
        method="metagpt", transform="ties", ties_density=1.0,
    ))
    h_plain, _ = run_recipe(MergeRecipe(
        base=base_p, tasks=tasks, output=str(tmp_path / "o4.st"),
        method="metagpt", transform="none",
    ))
    for n in base:
        gap = np.max(np.abs(read_tensor(h_ties, n).values - read_tensor(h_plain, n).values))
        ok &= gap <= 1e-7
    assert report_line(8, "degenerate merges reproduce their endpoints", ok)


def test_c09_streaming_fidelity_and_memory(tmp_path):
    rng = np.random.default_rng(303)
    base = {f"layer.{i:02d}": rng.standard_normal(int(rng.integers(50, 900))) for i in range(50)}
    # one tensor of four nodes, so every merge holds full node arrays and
    # its peak is the fixed figure, TIES's included
    base["embed"] = rng.standard_normal((512, 512))
    base_p = write_ckpt(tmp_path / "base.st", base)
    model_ps = []
    diffs = []
    for m in range(3):
        tv = {n: 0.5 * rng.standard_normal(v.shape) for n, v in base.items()}
        model_ps.append(write_ckpt(tmp_path / f"m{m}.st", {n: base[n] + tv[n] for n in base}))
        diffs.append(tv)

    handles = [open_checkpoint(p) for p in model_ps]
    stats = compute_stats(open_checkpoint(base_p), handles)
    ok = True
    for t in range(3):
        # oracle: everything in one flat 64-bit array, reduced sequentially
        model_h = open_checkpoint(model_ps[t])
        base_h = open_checkpoint(base_p)
        flat = np.concatenate([
            read_tensor(model_h, n).values - read_tensor(base_h, n).values
            for n in sorted(base)
        ])
        acc = 0.0
        for x in flat.tolist():
            acc += x * x
        ok &= abs(stats.sq_norms[t] - acc) <= 1e-10 * acc

    for transform in ("none", "ties", "dare"):
        recipe = MergeRecipe(
            base=base_p,
            tasks=[TaskSpec(f"t{i}", p) for i, p in enumerate(model_ps)],
            output=str(tmp_path / f"out_{transform}.st"),
            method="metagpt",
            transform=transform,
        )
        peak = traced_peak(lambda: run_recipe(recipe))
        low, high = merge_peak_range(transform)
        ok &= low <= peak <= high
    assert report_line(9, "streaming stats fidelity and measured memory bound", ok)


def test_c10_determinism(tmp_path):
    rng = np.random.default_rng(606)
    base = {"a": rng.standard_normal(256), "b": rng.standard_normal((8, 8))}
    base_p = write_ckpt(tmp_path / "base.st", base)
    model_ps = [
        write_ckpt(tmp_path / f"m{i}.st",
                   {n: v + 0.1 * rng.standard_normal(v.shape) for n, v in base.items()})
        for i in range(2)
    ]
    recipe = MergeRecipe(
        base=base_p,
        tasks=[TaskSpec(f"t{i}", p) for i, p in enumerate(model_ps)],
        output=str(tmp_path / "out.st"),
        method="metagpt",
        transform="dare",
        dare_p=0.3,
        seed=777,
    )
    blobs, reports = [], []
    for _ in range(2):
        _, rep = run_recipe(recipe)
        blobs.append((tmp_path / "out.st").read_bytes())
        reports.append(rep.to_json())
    ok = blobs[0] == blobs[1] and reports[0] == reports[1]
    assert report_line(10, "identical recipe and seed give identical bytes", ok)


def test_c11_orthogonality_diagnostic(tmp_path):
    # constructed orthogonal task vectors: disjoint supports across tensors
    dim = 300
    base = {f"block{i}": np.zeros(dim) for i in range(3)}
    base_p = write_ckpt(tmp_path / "base.st", base)
    rng = np.random.default_rng(2)
    model_ps = []
    for t in range(3):
        model = {n: v.copy() for n, v in base.items()}
        model[f"block{t}"] = rng.standard_normal(dim)  # support only on its own block
        model_ps.append(write_ckpt(tmp_path / f"m{t}.st", model))
    stats = compute_stats(
        open_checkpoint(base_p), [open_checkpoint(p) for p in model_ps], want_gram=True
    )
    cos = cosine_matrix(stats).values
    off = np.max(np.abs(cos - np.eye(3)))
    ok = off <= 1e-9

    # random directions in dim 1e6 concentrate near orthogonality
    worst = 0.0
    for seed in range(100):
        u, v = np.random.default_rng(seed).standard_normal((2, 1_000_000))
        c = cosine_matrix(stats_from_arrays(["u", "v"], [u, v], want_gram=True)).values[0, 1]
        worst = max(worst, abs(float(c)))
    ok &= worst < 0.005
    assert report_line(
        11, f"orthogonality diagnostic (constructed {off:.1e}, random {worst:.2e})", ok
    )
