import math
import random
from operator import mul

from relegas import LightConeError, PairThresholdError, derive_point


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1e-300, abs(want))


def draw_valid_point(rng: random.Random, a_max: float = 3.0, b_max: float = 3.0,
                     c2_margin: float = 1e-3):
    """Rejection-sample an (a, b) point away from the light cone and the
    pair threshold."""
    while True:
        a = rng.uniform(0.01, a_max)
        b = rng.uniform(0.01, b_max)
        c2 = a * a - b * b
        if abs(c2) < c2_margin or abs(c2 - 1.0) < c2_margin:
            continue
        try:
            return derive_point(a, b)
        except (LightConeError, PairThresholdError):
            continue


def biquadratic(p) -> tuple[float, float, float]:
    """(fA, fB, fC) of the master integrals' denominator fC t**4 + fB t**2 + fA at p."""
    a2, d2 = p.a * p.a, p.d2
    return (d2 + 1.0) ** 2 - 4.0 * a2, -2.0 * (d2 * (d2 + 1.0) - 2.0 * a2), d2 * d2


def complex_rel_err(got: complex, want: complex) -> float:
    return abs(got - want) / max(1e-300, abs(want))


def assert_finite(x: float) -> None:
    assert math.isfinite(x)


def per_node(f):
    """An integrate_adaptive integrand from a function of one abscissa.

    The engine calls its integrand once per level with nodes xs and
    weights ws; this evaluates f at each node and returns the weighted
    sum of each component, added in node order.
    """

    def level(xs, ws):
        vals = [f(x) for x in xs]
        if isinstance(vals[0], tuple):
            return tuple(sum(map(mul, ws, col)) for col in zip(*vals))
        return sum(map(mul, ws, vals))

    return level
