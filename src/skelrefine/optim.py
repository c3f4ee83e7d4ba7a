"""Deterministic full-batch minimizer.

Limited-memory BFGS with a strong-Wolfe line search (Nocedal & Wright,
Algorithms 7.4 and 3.5). It records every accepted iterate through a
callback and is bit-reproducible for a fixed starting point; its vector
dot products are numpy sums, so the BLAS thread count does not enter. The
iteration budget is the only setting; the rest is fixed:

* HISTORY_SIZE: curvature pairs kept for the two-loop recursion.
* GRAD_TOLERANCE: stop when the max-abs gradient entry falls below this.
* LOSS_TOLERANCE: stop when the relative per-step loss decrease falls below
  this.
* WOLFE_C1, WOLFE_C2: the sufficient-decrease and curvature constants.
* MAX_LINE_SEARCH_EVALS: evaluations allowed to bracket a step, and again
  to zoom in on it.

When a quasi-Newton search finds no step, the search is retried once along
the raw gradient with the curvature history dropped.

whole_count and real_number, kept here beside the one spec they check,
read every number of a config, a corpus manifest or a checkpoint; a real
number must lie within skeleton.VALUE_LIMIT.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, TrainingDivergedError
from .skeleton import VALUE_LIMIT

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]

HISTORY_SIZE = 10
GRAD_TOLERANCE = 1e-9
LOSS_TOLERANCE = 1e-14
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
MAX_LINE_SEARCH_EVALS = 25


def whole_count(raw, what: str, minimum: int = 1) -> int:
    """A whole number of at least minimum: a JSON integer, or a number with
    an integral value."""
    whole = isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    if isinstance(raw, bool) or not whole or raw < minimum:
        raise ConfigurationError(
            f"{what} must be a whole number of at least {minimum}, got {raw!r}"
        )
    return int(raw)


def real_number(raw, what: str) -> float:
    """A real within ±VALUE_LIMIT as a float: a JSON integer or number, not
    a boolean."""
    # an int compares exactly, so one too large for a float fails too, as NaN does
    if isinstance(raw, (int, float)) and not isinstance(raw, bool) and abs(raw) <= VALUE_LIMIT:
        return float(raw)
    raise ConfigurationError(f"{what} must be a finite number within ±{VALUE_LIMIT:g}: {raw!r}")


@dataclass(frozen=True)
class OptimizerSpec:
    """The iteration budget of minimize().

    method: "lbfgs", the only method; kept so that configs may name it.
    """

    method: str = "lbfgs"
    max_iterations: int = 200

    def __post_init__(self):
        if self.method != "lbfgs":
            raise ConfigurationError(f"unknown optimizer method {self.method!r}")
        object.__setattr__(self, "max_iterations",
                           whole_count(self.max_iterations, "optimizer max_iterations"))


@dataclass
class MinimizeResult:
    x: np.ndarray
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


def _dot(v: np.ndarray, w: np.ndarray) -> float:
    """v . w as a numpy sum, whose order does not depend on the BLAS thread
    count, as a BLAS dot's does for long vectors. Like the BLAS dot, it
    overflows to inf without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.add.reduce(v * w))


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
) -> _Point | None:
    """Shrink a bracketing interval until a strong-Wolfe point is found.

    lo always satisfies the sufficient-decrease condition. Returns the best
    sufficient-decrease point if the curvature condition never triggers.
    """
    for _ in range(MAX_LINE_SEARCH_EVALS):
        width = hi.alpha - lo.alpha
        if abs(width) <= 1e-14 * max(1.0, abs(lo.alpha)):
            break
        alpha = _cubic_step(lo.alpha, lo.f, lo.slope, hi.alpha, hi.f, hi.slope)
        inner_lo = min(lo.alpha, hi.alpha) + 0.1 * abs(width)
        inner_hi = max(lo.alpha, hi.alpha) - 0.1 * abs(width)
        if alpha is None or not (inner_lo <= alpha <= inner_hi):
            alpha = 0.5 * (lo.alpha + hi.alpha)
        cand = evaluate(alpha)
        if _finite(cand.f) > f0 + WOLFE_C1 * alpha * slope0 or _finite(cand.f) >= lo.f:
            hi = cand
        else:
            if abs(cand.slope) <= -WOLFE_C2 * slope0:
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
) -> _Point | None:
    """Bracket-and-zoom line search enforcing the strong Wolfe conditions."""
    prev = _Point(0.0, f0, None, slope0)
    alpha = alpha_init
    for i in range(MAX_LINE_SEARCH_EVALS):
        cand = evaluate(alpha)
        f_cand = _finite(cand.f)
        if f_cand > f0 + WOLFE_C1 * alpha * slope0 or (i > 0 and f_cand >= prev.f):
            return _zoom(evaluate, prev, cand, f0, slope0)
        if abs(cand.slope) <= -WOLFE_C2 * slope0:
            return cand
        if cand.slope >= 0.0:
            return _zoom(evaluate, cand, prev, f0, slope0)
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

    # curvature pairs (s, y, 1 / s.y), oldest first
    history: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=HISTORY_SIZE)
    converged = False
    message = "iteration limit reached"
    iteration = 0

    def evaluate(alpha: float) -> _Point:
        # reads the current iterate and search direction when called
        nonlocal evals
        fx, gx = objective(x + alpha * direction)
        evals += 1
        return _Point(alpha, fx, gx, _dot(gx, direction))

    for iteration in range(1, spec.max_iterations + 1):
        g_inf = float(np.max(np.abs(g)))
        if g_inf <= GRAD_TOLERANCE:
            converged = True
            message = "gradient tolerance reached"
            iteration -= 1
            break

        direction = _two_loop(g, history)
        if _dot(direction, g) >= 0.0:
            # stale curvature pairs; fall back to steepest descent
            history.clear()
            direction = -g
        while True:
            alpha_init = 1.0 if history else min(1.0, 1.0 / max(g_inf, 1e-12))
            accepted = _strong_wolfe(evaluate, f, _dot(g, direction), alpha_init)
            if accepted is not None or not history:
                break
            # retry once along the raw gradient before giving up
            history.clear()
            direction = -g
        if accepted is None:
            message = "line search found no acceptable step"
            iteration -= 1
            break
        if not math.isfinite(accepted.f):
            raise TrainingDivergedError(iteration)

        x_new = x + accepted.alpha * direction
        s = x_new - x
        y = accepted.g - g
        sy = _dot(s, y)
        if sy > 1e-10 * math.sqrt(_dot(s, s)) * math.sqrt(_dot(y, y)):
            history.append((s, y, 1.0 / sy))

        f_prev, x, f, g = f, x_new, accepted.f, accepted.g
        if callback is not None:
            callback(iteration, f, x)
        if f_prev - f <= LOSS_TOLERANCE * max(1.0, abs(f_prev)):
            converged = True
            message = "loss change below tolerance"
            break

    return MinimizeResult(
        x=x,
        iterations=iteration,
        n_evaluations=evals,
        converged=converged,
        message=message,
    )


def _two_loop(g, history) -> np.ndarray:
    """Two-loop recursion: approximate -H g from stored curvature pairs."""
    q = -g.copy()
    if not history:
        return q
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * _dot(s, q)
        q -= a * y
        alphas.append(a)
    s, y, _ = history[-1]
    gamma = _dot(s, y) / _dot(y, y)
    q *= gamma
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * _dot(y, q)
        q += (a - b) * s
    return q
