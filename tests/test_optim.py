import dataclasses
import math

import numpy as np
import pytest

from skelrefine import optim
from skelrefine.errors import ConfigurationError, TrainingDivergedError
from skelrefine.optim import (
    HISTORY_SIZE,
    MAX_LINE_SEARCH_EVALS,
    WOLFE_C1,
    WOLFE_C2,
    OptimizerSpec,
    _Point,
    _strong_wolfe,
    minimize,
    real_number,
    whole_count,
)


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def objective(x):
        d = x - center
        return float(d @ d), 2.0 * d

    return objective


def rosenbrock(x):
    a, b = 1.0, 100.0
    f = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
    g = np.array(
        [
            -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] ** 2),
            2.0 * b * (x[1] - x[0] ** 2),
        ]
    )
    return f, g


class TestLbfgs:
    def test_quadratic_converges(self):
        result = minimize(quadratic([3.0, -2.0, 0.5]), np.zeros(3))
        assert result.converged
        assert np.max(np.abs(result.x - [3.0, -2.0, 0.5])) < 1e-6

    def test_rosenbrock_converges(self):
        result = minimize(rosenbrock, np.array([-1.2, 1.0]), OptimizerSpec(max_iterations=200))
        assert np.max(np.abs(result.x - 1.0)) < 1e-5

    def test_losses_non_increasing(self):
        losses = []
        minimize(
            rosenbrock,
            np.array([-1.2, 1.0]),
            OptimizerSpec(max_iterations=100),
            callback=lambda i, f, x: losses.append(f),
        )
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_callback_sees_initial_point_and_each_iterate(self):
        seen = []
        result = minimize(
            quadratic([1.0]),
            np.zeros(1),
            OptimizerSpec(max_iterations=50),
            callback=lambda i, f, x: seen.append(i),
        )
        assert seen == list(range(result.iterations + 1))

    def test_already_converged_stops_immediately(self):
        result = minimize(quadratic([0.0, 0.0]), np.zeros(2))
        assert result.converged
        assert result.iterations == 0

    def test_deterministic(self):
        a = minimize(rosenbrock, np.array([-1.2, 1.0]), OptimizerSpec(max_iterations=60))
        b = minimize(rosenbrock, np.array([-1.2, 1.0]), OptimizerSpec(max_iterations=60))
        assert np.array_equal(a.x, b.x)
        assert a.loss == b.loss

    def test_non_finite_start_raises(self):
        def bad(x):
            return float("nan"), np.zeros_like(x)

        with pytest.raises(TrainingDivergedError):
            minimize(bad, np.zeros(2))

    def test_divergence_reports_iteration(self):
        # a quadratic with its minimum at 2 that drops to -inf past 0.5: the
        # first line search accepts the -inf point
        def cliff(x):
            if x[0] > 0.5:
                return -math.inf, np.zeros_like(x)
            return float((x[0] - 2.0) ** 2), 2.0 * (x - 2.0)

        with pytest.raises(TrainingDivergedError) as err:
            minimize(cliff, np.zeros(1))
        assert err.value.iteration == 1

    def test_retry_steps_along_the_gradient_it_searched(self):
        # an ill-conditioned quadratic whose loss reads +inf throughout
        # iteration 2's quasi-Newton search (one bracketing evaluation and
        # a full zoom), so that the search fails and is retried along -g
        def true_objective(x):
            return float(x[0] ** 2 + 10.0 * x[1] ** 2), np.array([2.0 * x[0], 20.0 * x[1]])

        n_failing = 1 + MAX_LINE_SEARCH_EVALS
        evaluated = []
        accepted = []
        evals_at = []  # evaluations made when each iterate was accepted

        def objective(x):
            evaluated.append(x.copy())
            f, g = true_objective(x)
            if len(accepted) == 2 and len(evaluated) <= evals_at[1] + n_failing:
                return math.inf, g
            return f, g

        def callback(i, f, x):
            accepted.append((f, x.copy()))
            evals_at.append(len(evaluated))

        minimize(objective, np.array([1.0, 1.0]), OptimizerSpec(max_iterations=3),
                 callback=callback)
        assert len(accepted) == 4
        for f, x in accepted:
            assert f == true_objective(x)[0]
        x1 = accepted[1][1]
        steepest = -true_objective(x1)[1]
        retry = evaluated[evals_at[1] + n_failing:evals_at[2]]
        assert retry
        for point in retry:
            step = point - x1
            cos = step @ steepest / (np.linalg.norm(step) * np.linalg.norm(steepest))
            assert cos == pytest.approx(1.0, abs=1e-12)


    def test_history_keeps_the_latest_pairs_up_to_its_size(self, monkeypatch):
        # a 30-dimensional quadratic with spread curvatures runs long enough
        # to fill the curvature history and keep it full
        scales = np.linspace(1.0, 50.0, 30)

        def objective(x):
            return float(scales @ (x * x)), 2.0 * scales * x

        lengths = []
        two_loop = optim._two_loop

        def recording(g, history):
            lengths.append(len(history))
            return two_loop(g, history)

        monkeypatch.setattr(optim, "_two_loop", recording)
        minimize(objective, np.ones(30), OptimizerSpec(max_iterations=25))
        assert lengths[:HISTORY_SIZE + 1] == list(range(HISTORY_SIZE + 1))
        assert max(lengths) == HISTORY_SIZE
        assert len(lengths) > HISTORY_SIZE + 1


def _line(objective, x, direction):
    """evaluate() for _strong_wolfe along direction from x, counting calls."""
    calls = []

    def evaluate(alpha):
        calls.append(alpha)
        f, g = objective(x + alpha * direction)
        return _Point(alpha, f, g, float(g @ direction))

    return evaluate, calls


class TestStrongWolfe:
    @pytest.mark.parametrize("alpha_init", [1e-4, 1.0, 1e3],
                             ids=["expands", "unit", "zooms"])
    def test_accepted_step_meets_both_conditions(self, alpha_init):
        x = np.array([-1.2, 1.0])
        f0, g0 = rosenbrock(x)
        direction = -g0
        slope0 = float(g0 @ direction)
        evaluate, _ = _line(rosenbrock, x, direction)
        point = _strong_wolfe(evaluate, f0, slope0, alpha_init)
        assert point is not None and point.alpha > 0.0
        assert point.f <= f0 + WOLFE_C1 * point.alpha * slope0
        assert abs(point.slope) <= -WOLFE_C2 * slope0

    def test_gives_up_after_the_bracket_and_zoom_budgets(self):
        def nowhere_finite(x):
            return math.inf, np.ones_like(x)

        x = np.zeros(2)
        evaluate, calls = _line(nowhere_finite, x, -np.ones(2))
        assert _strong_wolfe(evaluate, 1.0, -2.0, 1.0) is None
        assert len(calls) == 1 + MAX_LINE_SEARCH_EVALS

    def test_nan_counts_as_no_decrease(self):
        # the quadratic's minimum at 2 lies past a region where the loss
        # reads NaN; the search must settle on a finite step short of it
        def nan_past_one(x):
            if x[0] > 1.0:
                return math.nan, np.full_like(x, math.nan)
            return float((x[0] - 2.0) ** 2), 2.0 * (x - 2.0)

        x = np.zeros(1)
        f0, g0 = nan_past_one(x)
        evaluate, _ = _line(nan_past_one, x, -g0)
        point = _strong_wolfe(evaluate, f0, float(g0 @ -g0), 1.0)
        assert point is not None
        assert math.isfinite(point.f) and point.f < f0
        assert 0.0 < point.alpha * 4.0 <= 1.0


class TestSpecValidation:
    def test_the_iteration_budget_is_the_only_setting(self):
        names = [field.name for field in dataclasses.fields(OptimizerSpec)]
        assert names == ["method", "max_iterations"]

    @pytest.mark.parametrize("name, value", [
        ("HISTORY_SIZE", 10), ("GRAD_TOLERANCE", 1e-9), ("LOSS_TOLERANCE", 1e-14),
        ("WOLFE_C1", 1e-4), ("WOLFE_C2", 0.9), ("MAX_LINE_SEARCH_EVALS", 25),
    ])
    def test_fixed_settings_keep_their_former_defaults(self, name, value):
        # trained weights stay bit-identical only while these hold
        assert getattr(optim, name) == value

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            OptimizerSpec(method="adam")

    def test_gradient_descent_is_not_a_method(self):
        with pytest.raises(ConfigurationError):
            OptimizerSpec(method="gd")
        with pytest.raises(TypeError):
            OptimizerSpec(learning_rate=0.1)

    def test_bad_iteration_count_rejected(self):
        with pytest.raises(ConfigurationError):
            OptimizerSpec(max_iterations=0)

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 2.5), ("max_iterations", True), ("max_iterations", "3"),
    ])
    def test_counts_must_be_whole_numbers_of_at_least_one(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            OptimizerSpec(**{field: value})

    def test_integral_counts_become_ints(self):
        spec = OptimizerSpec(max_iterations=3.0)
        assert spec.max_iterations == 3
        assert type(spec.max_iterations) is int


class TestWholeCount:
    def test_minimum_is_inclusive(self):
        assert whole_count(0, "seed", minimum=0) == 0
        assert whole_count(7.0, "window_length") == 7

    @pytest.mark.parametrize("raw", [-1, 0.5, True, False, "0", None])
    def test_rejects_what_is_not_a_whole_number_from_the_minimum(self, raw):
        with pytest.raises(ConfigurationError, match="seed"):
            whole_count(raw, "seed", minimum=0)


class TestRealNumber:
    def test_returns_a_float(self):
        assert real_number(0.05, "theta") == 0.05
        assert type(real_number(30, "frame_rate_hz")) is float
        assert real_number(-2, "x") == -2.0

    @pytest.mark.parametrize("raw", [
        math.nan, math.inf, -math.inf, 10**400, True, False, "0.05", None, [0.05],
    ], ids=["nan", "inf", "-inf", "huge_int", "true", "false", "string", "null", "list"])
    def test_rejects_what_is_not_a_finite_number(self, raw):
        with pytest.raises(ConfigurationError, match="theta must be a finite number"):
            real_number(raw, "theta")
