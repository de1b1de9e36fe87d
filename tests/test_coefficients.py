import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taskmerge import (
    CoefficientSet,
    RecipeError,
    TaskVectorStats,
    ValidationError,
    coefficients_from_dict,
    fixed_coefficients,
    metagpt_coefficients,
    weight_average_coefficients,
)
from taskmerge.coefficients import COEFFICIENT_METHODS


def stats_of(norms):
    return TaskVectorStats(task_ids=[f"t{i}" for i in range(len(norms))], sq_norms=list(norms))


class TestClosedForm:
    def test_equal_norms_split_evenly(self):
        assert metagpt_coefficients(stats_of([4.0, 4.0])).lambdas == [0.5, 0.5]

    def test_one_two_three(self):
        lambdas = metagpt_coefficients(stats_of([1.0, 2.0, 3.0])).lambdas
        assert lambdas == [1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0]
        assert lambdas[1] == 1.0 / 3.0
        assert lambdas[2] == 0.5

    def test_matches_grid_search_oracle(self):
        from taskmerge.theory_lab import QuadraticEnsemble, QuadraticTask, grid_search_lambda

        norms = [1.0, 2.0, 3.0]
        theta0 = np.zeros(3)
        tasks = []
        for t, n in enumerate(norms):
            tau = np.zeros(3)
            tau[t] = math.sqrt(n)
            tasks.append(QuadraticTask(theta=theta0 + tau, tau=tau, delta=1.0, g=tau))
        e = QuadraticEnsemble(theta0, tasks)
        grid = grid_search_lambda(e, step=1e-4)
        lambdas = metagpt_coefficients(stats_of(norms)).lambdas
        assert np.max(np.abs(np.array(lambdas) - grid)) <= 1e-4

    def test_zero_norm_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            metagpt_coefficients(stats_of([1.0, 0.0]))

    def test_negative_norm_named(self):
        with pytest.raises(ValidationError, match=r"negative squared norm.*\['t0'\]"):
            metagpt_coefficients(stats_of([-1.0, 2.0]))

    def test_negative_zero_norm_is_degenerate(self):
        with pytest.raises(ValidationError, match=r"degenerate task vector \(zero norm\): \['t1'\]"):
            metagpt_coefficients(stats_of([1.0, -0.0]))

    @pytest.mark.parametrize("norms,bad", [([1e-320, 1e300], "['t0']"),
                                           ([1e300, 5e-324, 1e-320, 1.0], "['t1', 't2']")])
    def test_underflowing_coefficient_named(self, norms, bad):
        with pytest.raises(ValidationError, match="underflows to 0") as err:
            metagpt_coefficients(stats_of(norms))
        assert str(err.value).endswith(bad)

    @pytest.mark.parametrize(
        "norms,match",
        [([math.nan, 1.0], "non-finite"), ([1.0, math.inf], "non-finite"),
         ([1e308, 1e308], "float64 range")],
    )
    def test_unusable_norms_rejected(self, norms, match):
        with pytest.raises(ValidationError, match=match):
            metagpt_coefficients(stats_of(norms))

    def test_no_tasks_rejected(self):
        with pytest.raises(ValidationError):
            metagpt_coefficients(TaskVectorStats(task_ids=[], sq_norms=[]))

    def test_single_task_gets_one(self):
        assert metagpt_coefficients(stats_of([7.5])).lambdas == [1.0]

    def test_carries_stats_digest(self):
        stats = stats_of([1.0, 2.0])
        assert metagpt_coefficients(stats).source_stats_digest == stats.digest()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=8),
        st.floats(1e-3, 1e3),
    )
    def test_normalization_and_scale_invariance(self, norms, scale):
        a = metagpt_coefficients(stats_of(norms)).lambdas
        b = metagpt_coefficients(stats_of([scale * n for n in norms])).lambdas
        assert abs(sum(a) - 1.0) <= 1e-12
        for x, y in zip(a, b):
            assert x == pytest.approx(y, rel=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=8))
    @example(norms=[1e6, 1e6, 999999.9999999999])
    def test_monotone_in_norms(self, norms):
        # Each lambda is one correctly rounded division by the same total:
        # the order always holds, but squared norms an ulp or two apart can
        # round to the same lambda. Apart by more than 2**-50 relative, the
        # exact quotients differ by more than both roundings and stay strict.
        lambdas = metagpt_coefficients(stats_of(norms)).lambdas
        for i in range(len(norms)):
            for j in range(len(norms)):
                if norms[i] > norms[j]:
                    assert lambdas[i] >= lambdas[j]
                if norms[i] > norms[j] * (1.0 + 2.0**-50):
                    assert lambdas[i] > lambdas[j]

    def test_equal_norms_degenerate_to_weight_average(self):
        for t in range(1, 9):
            lambdas = metagpt_coefficients(stats_of([2.5] * t)).lambdas
            for lam in lambdas:
                assert lam == pytest.approx(1.0 / t, rel=1e-15)


class TestBaselines:
    def test_fixed_point_three(self):
        assert fixed_coefficients(["a", "b", "c"], 0.3).lambdas == [0.3, 0.3, 0.3]

    def test_weight_average_quarters(self):
        assert weight_average_coefficients(list("abcd")).lambdas == [0.25] * 4

    def test_single_task_identity(self):
        coeffs = fixed_coefficients(["only"], 1.0)
        assert coeffs.lambdas == [1.0]

    def test_default_value(self):
        assert fixed_coefficients(["a"]).lambdas == [0.3]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            fixed_coefficients(["a"], float("inf"))


class TestSerialization:
    def test_roundtrip(self):
        coeffs = metagpt_coefficients(stats_of([1.0, 3.0]))
        data = json.loads(coeffs.to_json())
        back = coefficients_from_dict(data)
        assert back.lambdas == coeffs.lambdas
        assert back.method == "metagpt"
        assert back.source_stats_digest == coeffs.source_stats_digest

    def test_unknown_method_becomes_external(self):
        # "fixed" is the label older files gave task arithmetic
        for method in ("mystery", "fixed"):
            back = coefficients_from_dict({"method": method, "tasks": ["a"], "lambdas": [0.4]})
            assert back.method == "external"

    def test_labels_are_the_recipe_methods_and_external(self):
        assert fixed_coefficients(["a"]).method == "task_arithmetic_fixed"
        assert weight_average_coefficients(["a"]).method == "weight_average"
        for label in (*COEFFICIENT_METHODS, "external"):
            spec = {"method": label, "tasks": ["a"], "lambdas": [1.0]}
            assert coefficients_from_dict(spec).to_dict() == spec

    @pytest.mark.parametrize(
        "spec",
        [
            {"tasks": "ab", "lambdas": [0.5, 0.5]},
            {"tasks": [1, 2], "lambdas": [0.5, 0.5]},
            {"tasks": ["a", "b"], "lambdas": "12"},
            {"tasks": ["a"], "lambdas": [True]},
            {"tasks": ["a"], "lambdas": ["0.5"]},
            {"tasks": ["a"], "lambdas": [10**400]},
            {"tasks": ["a"], "lambdas": [0.5], "source_stats_digest": 5},
            {"lambdas": [0.5]},
            ["a"],
        ],
        ids=["tasks_string", "integer_ids", "lambdas_string", "bool_lambda",
             "string_lambda", "huge_int_lambda", "digest_not_string", "no_tasks",
             "not_an_object"],
    )
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(RecipeError, match="^bad coefficient spec: "):
            coefficients_from_dict(spec)

    def test_metagpt_invariants_enforced_on_import(self):
        with pytest.raises(ValidationError):
            coefficients_from_dict({"method": "metagpt", "tasks": ["a", "b"], "lambdas": [0.9, 0.9]})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            CoefficientSet(["a", "b"], [0.3], "task_arithmetic_fixed")

    def test_duplicate_task_ids_rejected(self):
        # two coefficients under one id could not be told apart
        with pytest.raises(ValidationError, match="unique"):
            CoefficientSet(["a", "a"], [0.3, 0.3], "task_arithmetic_fixed")
        with pytest.raises(ValidationError, match="unique"):
            coefficients_from_dict({"method": "external", "tasks": ["x", "x"],
                                    "lambdas": [0.5, 0.25]})
