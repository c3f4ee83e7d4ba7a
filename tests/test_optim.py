import math

import numpy as np
import pytest

from skelrefine.errors import ConfigurationError, TrainingDivergedError
from skelrefine.optim import MinimizeResult, OptimizerSpec, minimize


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
        spec = OptimizerSpec(max_iterations=200, grad_tolerance=1e-8)
        result = minimize(rosenbrock, np.array([-1.2, 1.0]), spec)
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


class TestSpecValidation:
    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            OptimizerSpec(method="adam")

    def test_gradient_descent_is_not_a_method(self):
        with pytest.raises(ConfigurationError):
            OptimizerSpec(method="gd")
        with pytest.raises(TypeError):
            OptimizerSpec(learning_rate=0.1)

    def test_bad_wolfe_constants_rejected(self):
        with pytest.raises(ConfigurationError):
            OptimizerSpec(wolfe_c1=0.95, wolfe_c2=0.9)

    def test_bad_iteration_count_rejected(self):
        with pytest.raises(ConfigurationError):
            OptimizerSpec(max_iterations=0)

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 2.5), ("history_size", 2.5), ("history_size", 0),
        ("max_line_search_evals", 0), ("max_line_search_evals", True),
        ("max_iterations", "3"),
    ])
    def test_counts_must_be_whole_numbers_of_at_least_one(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            OptimizerSpec(**{field: value})

    @pytest.mark.parametrize("field", ["grad_tolerance", "loss_tolerance", "wolfe_c1",
                                       "wolfe_c2"])
    @pytest.mark.parametrize("value", ["x", None, math.nan, math.inf, False])
    def test_tolerances_and_wolfe_constants_must_be_finite_numbers(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            OptimizerSpec(**{field: value})

    def test_integral_counts_become_ints(self):
        spec = OptimizerSpec(max_iterations=3.0, history_size=4.0)
        assert (spec.max_iterations, spec.history_size) == (3, 4)
        assert type(spec.max_iterations) is int
