import math
import tracemalloc

import numpy as np
import pytest

from taskmerge import ValidationError, theory_lab
from taskmerge.coefficients import weight_average_coefficients
from taskmerge.theory_lab import (
    QuadraticEnsemble,
    QuadraticTask,
    ald,
    ald_bound,
    ald_lambda_term,
    closed_form_lambda,
    exact_loss,
    exact_tld,
    grid_search_lambda,
    h_vector,
    make_correlated_ensemble,
    make_ensemble,
    merged_theta,
    run_suite,
    run_suites,
    tld_bound,
    tld_quadratic,
    verify_hessian_identity,
)


def manual_ensemble(theta0, taus, deltas):
    tasks = [
        QuadraticTask(theta=theta0 + tau, tau=tau, delta=float(d), g=float(d) * tau)
        for tau, d in zip(taus, deltas)
    ]
    return QuadraticEnsemble(np.asarray(theta0, dtype=np.float64), tasks)


def axes_ensemble(norms, deltas=None, dim=None):
    """Orthogonal ensemble on scaled unit axes with the given squared norms."""
    t_count = len(norms)
    dim = dim or t_count
    deltas = deltas or [1.0] * t_count
    taus = []
    for t, n in enumerate(norms):
        tau = np.zeros(dim)
        tau[t] = math.sqrt(n)
        taus.append(tau)
    return manual_ensemble(np.zeros(dim), taus, deltas)


class TestMakeEnsemble:
    def test_plane_orthogonality(self):
        e = make_ensemble(2, 2, seed=0)
        u = np.array([t.tau / math.sqrt(t.sq_norm) for t in e.tasks])
        assert np.max(np.abs(u @ u.T - np.eye(2))) <= 1e-12

    def test_single_task(self):
        e = make_ensemble(1, 5, seed=1)
        assert e.num_tasks == 1 and e.dim == 5

    def test_fixed_seed_reproducible(self):
        a = make_ensemble(5, 64, seed=7)
        b = make_ensemble(5, 64, seed=7)
        np.testing.assert_array_equal(a.theta0, b.theta0)
        for ta, tb in zip(a.tasks, b.tasks):
            np.testing.assert_array_equal(ta.tau, tb.tau)
            assert ta.delta == tb.delta

    def test_too_many_tasks(self):
        with pytest.raises(ValidationError):
            make_ensemble(5, 4, seed=0)

    @pytest.mark.parametrize("num_tasks,dim", [(0, 4), (4, 4)])
    def test_correlated_task_count_out_of_range(self, num_tasks, dim):
        with pytest.raises(ValidationError, match="shared component"):
            make_correlated_ensemble(num_tasks, dim, seed=0, pairwise_cos=0.5)

    def test_invariants(self):
        e = make_ensemble(4, 32, seed=3)
        u = np.array([t.tau / math.sqrt(t.sq_norm) for t in e.tasks])
        assert np.max(np.abs(u @ u.T - np.eye(4))) <= 1e-12
        for t, task in enumerate(e.tasks):
            np.testing.assert_allclose(task.g, task.delta * task.tau, rtol=1e-14)
            assert exact_loss(e, t, task.theta) == 0.0
        assert e.delta0 == max(t.delta for t in e.tasks)

    def test_norm_and_delta_ranges_respected(self):
        e = make_ensemble(6, 40, seed=9, delta_range=(1.5, 1.6), norm_range=(2.0, 2.1))
        for task in e.tasks:
            assert 1.5 <= task.delta <= 1.6
            assert 2.0 <= math.sqrt(task.sq_norm) <= 2.1

    @pytest.mark.parametrize("build", [
        lambda **kw: make_ensemble(3, 8, 0, **kw),
        lambda **kw: make_correlated_ensemble(3, 8, 0, 0.5, **kw),
    ], ids=["orthogonal", "correlated"])
    def test_nonpositive_ranges_rejected(self, build):
        with pytest.raises(ValidationError, match="must be positive"):
            build(delta_range=(-2, -1), norm_range=(0, 0))

    def test_correlated_construction_hits_target(self):
        e = make_correlated_ensemble(4, 32, seed=11, pairwise_cos=0.5)
        for i in range(4):
            for j in range(i + 1, 4):
                ti, tj = e.tasks[i].tau, e.tasks[j].tau
                c = float(ti @ tj) / math.sqrt((ti @ ti) * (tj @ tj))
                assert c == pytest.approx(0.5, abs=1e-9)


class TestExactLoss:
    def test_zero_at_minimizer(self):
        e = make_ensemble(3, 8, seed=2)
        for t in range(3):
            assert exact_loss(e, t, e.tasks[t].theta) == 0.0

    def test_unit_direction_displacement(self):
        e = axes_ensemble([1.0], dim=2)
        theta = e.tasks[0].theta + 2.0 * np.array([1.0, 0.0])
        assert exact_loss(e, 0, theta) == 2.0


class TestMergedThetaAndH:
    def test_all_zero_lambdas_give_base(self):
        e = make_ensemble(3, 8, seed=6)
        np.testing.assert_array_equal(merged_theta(e, np.zeros(3)), e.theta0)

    def test_single_task_full_coefficient(self):
        e = make_ensemble(1, 4, seed=7)
        np.testing.assert_allclose(merged_theta(e, np.ones(1)), e.tasks[0].theta, rtol=1e-15)

    def test_h_zero_when_own_lambda_is_one(self):
        e = make_ensemble(3, 8, seed=8)
        lam = np.array([0.0, 1.0, 0.0])
        assert np.linalg.norm(h_vector(e, 1, lam)) == 0.0

    def test_h_single_task_zero_lambda(self):
        e = make_ensemble(1, 4, seed=9)
        np.testing.assert_array_equal(h_vector(e, 0, np.zeros(1)), -e.tasks[0].tau)

    def test_h_equals_merged_minus_finetuned(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            e = make_ensemble(int(rng.integers(1, 6)), 16, seed=trial)
            lam = rng.uniform(0, 1, e.num_tasks)
            merged = merged_theta(e, lam)
            for t in range(e.num_tasks):
                gap = np.linalg.norm((merged - e.tasks[t].theta) - h_vector(e, t, lam))
                assert gap < 1e-12


class TestExactTld:
    def test_zero_when_merged_equals_finetuned(self):
        e = make_ensemble(3, 8, seed=11)
        lam = np.array([0.0, 0.0, 1.0])
        assert exact_tld(e, 2, lam) == 0.0

    def test_two_task_orthogonal_hand_value(self):
        e = axes_ensemble([1.0, 1.0])
        lam = np.array([0.5, 0.5])
        assert exact_tld(e, 0, lam) == pytest.approx(0.125, rel=1e-12)

    def test_dual_route_agreement(self):
        rng = np.random.default_rng(12)
        for trial in range(300):
            e = make_ensemble(int(rng.integers(2, 9)), int(rng.integers(8, 65)), seed=trial)
            lam = rng.uniform(0, 1, e.num_tasks)
            for t in range(e.num_tasks):
                a, b = exact_tld(e, t, lam), tld_quadratic(e, t, lam)
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)) + 1e-16


class TestTldBound:
    def test_hand_value_dominates(self):
        e = axes_ensemble([1.0, 1.0])
        lam = np.array([0.5, 0.5])
        assert tld_bound(e, 0, lam) == pytest.approx(0.25, rel=1e-12)
        assert exact_tld(e, 0, lam) <= tld_bound(e, 0, lam)

    def test_tight_at_corner(self):
        e = make_ensemble(3, 12, seed=13)
        lam = np.array([0.0, 0.0, 1.0])
        assert tld_bound(e, 2, lam) == 0.0
        assert exact_tld(e, 2, lam) == 0.0

    def test_randomized_dominance(self):
        rng = np.random.default_rng(14)
        for trial in range(1000):
            e = make_ensemble(int(rng.integers(2, 9)), int(rng.integers(8, 65)), seed=trial)
            lam = rng.uniform(0, 1, e.num_tasks)
            for t in range(e.num_tasks):
                assert exact_tld(e, t, lam) <= tld_bound(e, t, lam) + 1e-9


class TestAld:
    def test_single_task_full_lambda_zero(self):
        e = make_ensemble(1, 4, seed=16)
        assert ald(e, np.ones(1)) == 0.0

    def test_symmetric_under_permutation(self):
        e = axes_ensemble([2.0, 2.0, 2.0], deltas=[1.3, 1.3, 1.3])
        lam = np.array([0.1, 0.5, 0.9])
        vals = {ald(e, lam[list(p)]) for p in
                [(0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]}
        assert max(vals) - min(vals) < 1e-12

    def test_randomized_dominance(self):
        rng = np.random.default_rng(17)
        for trial in range(1000):
            e = make_ensemble(int(rng.integers(2, 9)), int(rng.integers(8, 65)), seed=trial)
            lam = rng.uniform(0, 1, e.num_tasks)
            assert ald(e, lam) <= ald_bound(e, lam) + 1e-9


class TestAldLambdaTerm:
    def test_zero_for_single_task_full_lambda(self):
        e = make_ensemble(1, 4, seed=18)
        assert ald_lambda_term(e, 0, 1.0) == 0.0

    def test_hand_value(self):
        e = axes_ensemble([1.0, 2.0, 3.0])
        assert ald_lambda_term(e, 2, 0.5) == pytest.approx(2.25, rel=1e-12)

    def test_array_of_candidates_matches_each_float(self):
        e = make_ensemble(4, 16, seed=25)
        grid = np.linspace(0.0, 1.0, 101)
        for t in range(4):
            expected = [ald_lambda_term(e, t, float(lam)) for lam in grid]
            np.testing.assert_array_equal(ald_lambda_term(e, t, grid), expected)

    def test_vertex_matches_closed_form(self):
        rng = np.random.default_rng(19)
        for trial in range(50):
            e = make_ensemble(int(rng.integers(2, 7)), 24, seed=trial)
            closed = closed_form_lambda(e)
            grid = grid_search_lambda(e, step=1e-4)
            assert np.max(np.abs(closed - grid)) <= 1e-4

    def test_sum_dominates_scaled_ald(self):
        rng = np.random.default_rng(20)
        for trial in range(200):
            e = make_ensemble(int(rng.integers(2, 7)), 24, seed=trial)
            lam = rng.uniform(0, 1, e.num_tasks)
            total = sum(ald_lambda_term(e, t, float(lam[t])) for t in range(e.num_tasks))
            assert ald(e, lam) <= total + 1e-9


class TestGridSearch:
    def test_equal_norms_give_uniform(self):
        e = axes_ensemble([2.0] * 4, deltas=[1.7] * 4)
        lam = grid_search_lambda(e, step=1e-4)
        np.testing.assert_allclose(lam, 0.25, atol=1e-4)

    def test_one_two_three(self):
        e = axes_ensemble([1.0, 2.0, 3.0])
        lam = grid_search_lambda(e, step=1e-4)
        np.testing.assert_allclose(lam, [1 / 6, 1 / 3, 1 / 2], atol=1e-4)

    def test_nested_grids_converge_monotonically(self):
        e = make_ensemble(4, 16, seed=21)
        closed = closed_form_lambda(e)
        errs = []
        for step in (1 / 10, 1 / 20, 1 / 40, 1 / 80, 1 / 160):
            errs.append(np.max(np.abs(grid_search_lambda(e, step) - closed)))
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse + 1e-15

    def test_step_validation(self):
        e = make_ensemble(2, 4, seed=22)
        with pytest.raises(ValidationError):
            grid_search_lambda(e, step=0.5)


class TestHessianIdentity:
    def test_outer_product_on_plane(self):
        e = manual_ensemble(np.zeros(2), [np.array([1.0, 0.0])], [2.0])
        res = verify_hessian_identity(e, 0)
        # finite differences must recover [[4, 0], [0, 0]]
        assert res["max_hessian_abs_err"] < 1e-6
        assert res["grad_link_err"] == 0.0

    def test_gradient_scale_link_exact(self):
        e = make_ensemble(3, 16, seed=23)
        for t in range(3):
            assert verify_hessian_identity(e, t)["grad_link_err"] == 0.0

    def test_fifty_random_ensembles(self):
        rng = np.random.default_rng(24)
        for trial in range(50):
            e = make_ensemble(int(rng.integers(1, 6)), int(rng.integers(4, 40)), seed=trial)
            t = int(rng.integers(0, e.num_tasks))
            res = verify_hessian_identity(e, t, seed=trial)
            assert res["max_hessian_abs_err"] < 1e-4

    def test_sampling_memory_is_linear_in_dim(self):
        # m(m+1)/2 = 2,001,000 candidate pairs; listing them all took 183 MiB
        e = make_ensemble(1, 2000, seed=0)
        tracemalloc.start()
        try:
            verify_hessian_identity(e, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSuites:
    @pytest.mark.parametrize("name", ["lemma1", "thm1", "thm2", "thm3", "thm4", "hessian"])
    def test_all_suites_pass(self, name):
        entry = run_suite(name, trials=25, seed=100)
        assert entry["violations"] == 0
        assert entry["trials"] == 25

    def test_thm4_checks_the_engine_closed_form(self, monkeypatch):
        # weight averaging misses the vertex whenever the norms differ, so a
        # thm4 that runs the engine's function fails every trial with it
        monkeypatch.setattr(theory_lab, "metagpt_coefficients",
                            lambda stats: weight_average_coefficients(stats.task_ids))
        assert run_suite("thm4", trials=5, seed=0)["violations"] == 5

    def test_run_suites_aggregates(self):
        report = run_suites(["thm1", "thm4"], trials=5, seed=0)
        assert len(report["suites"]) == 2
        assert report["violations"] == 0

    def test_reproducible(self):
        a = run_suite("thm2", trials=10, seed=5)
        b = run_suite("thm2", trials=10, seed=5)
        assert a == b

    def test_unknown_suite(self):
        with pytest.raises(ValidationError, match="unknown suite"):
            run_suite("thm99", trials=1, seed=0)

    def test_fixed_dim_and_tasks(self):
        entry = run_suite("thm1", trials=5, seed=1, dim=16, tasks=3)
        assert entry["violations"] == 0


@pytest.mark.parametrize("entry_point", [
    lambda **kw: run_suite("thm1", **kw),
], ids=["run_suite"])
@pytest.mark.parametrize("kwargs,match", [
    ({"trials": 0, "seed": 0}, "must be an integer"),
    ({"trials": 1, "seed": -1}, "must be an integer"),
    ({"trials": 1, "seed": 1.5}, "must be an integer"),
    ({"trials": 1, "seed": "0"}, "must be an integer"),
    ({"trials": 1, "seed": True}, "must be an integer"),
    ({"trials": 1, "seed": 0, "dim": 4, "tasks": 6}, "need 1 <= T <= m"),
], ids=["zero-trials", "negative-seed", "float-seed", "str-seed", "bool-seed",
        "more-tasks-than-dim"])
def test_lab_entry_points_reject_bad_trials_and_seed(entry_point, kwargs, match):
    with pytest.raises(ValidationError, match=match):
        entry_point(**kwargs)
