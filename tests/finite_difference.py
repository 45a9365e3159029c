"""Richardson-refined finite differences, the tests' derivative reference."""

from typing import Callable


def finite_difference_slope(f: Callable[[float], float], x0: float, h: float = 1e-5) -> float:
    """Richardson-refined central difference for f'(x0).

    The plain central difference has O(h^2) error; combining step h with
    step h/2 cancels that term and leaves O(h^4), which matters when the
    result is compared against analytic slopes at 1e-6 scale.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    d1 = (f(x0 + h) - f(x0 - h)) / (2.0 * h)
    d2 = (f(x0 + h / 2.0) - f(x0 - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def finite_difference_curvature(f: Callable[[float], float], x0: float, h: float = 1e-3) -> float:
    """Richardson-refined second difference for f''(x0)."""
    if h <= 0:
        raise ValueError("h must be positive")
    c1 = (f(x0 + h) - 2.0 * f(x0) + f(x0 - h)) / (h * h)
    half = h / 2.0
    c2 = (f(x0 + half) - 2.0 * f(x0) + f(x0 - half)) / (half * half)
    return (4.0 * c2 - c1) / 3.0
