"""Deterministic full-batch minimizer.

Limited-memory BFGS with a strong-Wolfe line search. It records every
accepted iterate through a callback and is bit-reproducible for a fixed
starting point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, TrainingDivergedError

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


def whole_count(raw, what: str) -> int:
    """A whole number of at least 1: a JSON integer, or a number with an
    integral value."""
    whole = isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    if isinstance(raw, bool) or not whole or raw < 1:
        raise ConfigurationError(f"{what} must be a whole number of at least 1, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class OptimizerSpec:
    """Knobs for minimize(); defaults suit sum-of-squares network training.

    method: "lbfgs", the only method; kept so that configs may name it.
    grad_tolerance: stop when the max-abs gradient entry falls below this.
    loss_tolerance: stop when the relative per-step loss decrease falls
        below this.
    """

    method: str = "lbfgs"
    max_iterations: int = 200
    history_size: int = 10
    grad_tolerance: float = 1e-9
    loss_tolerance: float = 1e-14
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    max_line_search_evals: int = 25

    def __post_init__(self):
        if self.method != "lbfgs":
            raise ConfigurationError(f"unknown optimizer method {self.method!r}")
        for name in ("max_iterations", "history_size", "max_line_search_evals"):
            object.__setattr__(self, name, whole_count(getattr(self, name), f"optimizer {name}"))
        for name in ("grad_tolerance", "loss_tolerance", "wolfe_c1", "wolfe_c2"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ConfigurationError(f"optimizer {name} must be a finite number, got {value!r}")
        if not (0.0 < self.wolfe_c1 < self.wolfe_c2 < 1.0):
            raise ConfigurationError("need 0 < wolfe_c1 < wolfe_c2 < 1")


@dataclass
class MinimizeResult:
    x: np.ndarray
    loss: float
    gradient_inf_norm: float
    iterations: int
    n_evaluations: int
    converged: bool
    message: str


class _Point(NamedTuple):
    """One line-search evaluation along the current direction."""

    alpha: float
    f: float
    g: np.ndarray
    slope: float  # directional derivative g . d


def _finite(f: float) -> float:
    # NaN must lose every comparison in the line search; +inf already does
    return math.inf if math.isnan(f) else f


def _cubic_step(a: float, fa: float, da: float, b: float, fb: float, db: float):
    """Minimizer of the cubic matching values and slopes at a and b."""
    if a == b:
        return None
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if not math.isfinite(disc) or disc < 0.0:
        return None
    d2 = math.copysign(math.sqrt(disc), b - a)
    denom = db - da + 2.0 * d2
    if denom == 0.0 or not math.isfinite(denom):
        return None
    step = b - (b - a) * (db + d2 - d1) / denom
    return step if math.isfinite(step) else None


def _zoom(
    evaluate: Callable[[float], _Point],
    lo: _Point,
    hi: _Point,
    f0: float,
    slope0: float,
    c1: float,
    c2: float,
    max_iters: int,
) -> _Point | None:
    """Shrink a bracketing interval until a strong-Wolfe point is found.

    lo always satisfies the sufficient-decrease condition. Returns the best
    sufficient-decrease point if the curvature condition never triggers.
    """
    for _ in range(max_iters):
        width = hi.alpha - lo.alpha
        if abs(width) <= 1e-14 * max(1.0, abs(lo.alpha)):
            break
        alpha = _cubic_step(lo.alpha, lo.f, lo.slope, hi.alpha, hi.f, hi.slope)
        inner_lo = min(lo.alpha, hi.alpha) + 0.1 * abs(width)
        inner_hi = max(lo.alpha, hi.alpha) - 0.1 * abs(width)
        if alpha is None or not (inner_lo <= alpha <= inner_hi):
            alpha = 0.5 * (lo.alpha + hi.alpha)
        cand = evaluate(alpha)
        if _finite(cand.f) > f0 + c1 * alpha * slope0 or _finite(cand.f) >= lo.f:
            hi = cand
        else:
            if abs(cand.slope) <= -c2 * slope0:
                return cand
            if cand.slope * (hi.alpha - lo.alpha) >= 0.0:
                hi = lo
            lo = cand
    if lo.alpha > 0.0 and lo.f < f0:
        return lo
    return None


def _strong_wolfe(
    evaluate: Callable[[float], _Point],
    f0: float,
    slope0: float,
    alpha_init: float,
    c1: float,
    c2: float,
    max_evals: int,
) -> _Point | None:
    """Bracket-and-zoom line search enforcing the strong Wolfe conditions."""
    prev = _Point(0.0, f0, None, slope0)
    alpha = alpha_init
    for i in range(max_evals):
        cand = evaluate(alpha)
        f_cand = _finite(cand.f)
        if f_cand > f0 + c1 * alpha * slope0 or (i > 0 and f_cand >= prev.f):
            return _zoom(evaluate, prev, cand, f0, slope0, c1, c2, max_evals)
        if abs(cand.slope) <= -c2 * slope0:
            return cand
        if cand.slope >= 0.0:
            return _zoom(evaluate, cand, prev, f0, slope0, c1, c2, max_evals)
        prev = cand
        alpha = 2.0 * alpha
    return None


def minimize(
    objective: Objective,
    x0: np.ndarray,
    spec: OptimizerSpec | None = None,
    callback: Callable[[int, float, np.ndarray], None] | None = None,
) -> MinimizeResult:
    """Minimize objective(x) -> (loss, gradient) from x0.

    The callback, when given, receives (iteration, loss, x) for the starting
    point (iteration 0) and for every accepted iterate. Raises
    TrainingDivergedError if an accepted loss turns non-finite.
    """
    spec = spec or OptimizerSpec()
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = objective(x)
    evals = 1
    if not math.isfinite(f):
        raise TrainingDivergedError(0, "initial loss is not finite")
    if callback is not None:
        callback(0, f, x)

    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    converged = False
    message = "iteration limit reached"
    iteration = 0

    for iteration in range(1, spec.max_iterations + 1):
        g_inf = float(np.max(np.abs(g)))
        if g_inf <= spec.grad_tolerance:
            converged = True
            message = "gradient tolerance reached"
            iteration -= 1
            break

        direction = _two_loop(g, s_hist, y_hist, rho_hist)
        if float(direction @ g) >= 0.0:
            # stale curvature pairs; fall back to steepest descent
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()
            direction = -g
        alpha_init = 1.0 if s_hist else min(1.0, 1.0 / max(g_inf, 1e-12))

        def evaluate(alpha, _d=direction):
            nonlocal evals
            fx, gx = objective(x + alpha * _d)
            evals += 1
            return _Point(alpha, fx, gx, float(gx @ _d))

        slope0 = float(g @ direction)
        accepted = _strong_wolfe(
            evaluate, f, slope0, alpha_init, spec.wolfe_c1, spec.wolfe_c2,
            spec.max_line_search_evals,
        )
        if accepted is None and s_hist:
            # retry once along the raw gradient before giving up
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()
            direction = -g
            slope0 = float(g @ direction)
            accepted = _strong_wolfe(
                evaluate, f, slope0, min(1.0, 1.0 / max(g_inf, 1e-12)),
                spec.wolfe_c1, spec.wolfe_c2, spec.max_line_search_evals,
            )
        if accepted is None:
            message = "line search found no acceptable step"
            iteration -= 1
            break
        if not math.isfinite(accepted.f):
            raise TrainingDivergedError(iteration)

        x_new = x + accepted.alpha * direction
        s = x_new - x
        y = accepted.g - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > spec.history_size:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)

        f_prev, x, f, g = f, x_new, accepted.f, accepted.g
        if callback is not None:
            callback(iteration, f, x)
        if f_prev - f <= spec.loss_tolerance * max(1.0, abs(f_prev)):
            converged = True
            message = "loss change below tolerance"
            break

    return MinimizeResult(
        x=x,
        loss=f,
        gradient_inf_norm=float(np.max(np.abs(g))),
        iterations=iteration,
        n_evaluations=evals,
        converged=converged,
        message=message,
    )


def _two_loop(g, s_hist, y_hist, rho_hist) -> np.ndarray:
    """Two-loop recursion: approximate -H g from stored curvature pairs."""
    q = -g.copy()
    if not s_hist:
        return q
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    gamma = float(s_hist[-1] @ y_hist[-1]) / float(y_hist[-1] @ y_hist[-1])
    q *= gamma
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q
