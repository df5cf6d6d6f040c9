"""Student-t and F distribution functions built on the regularized
incomplete beta function.

The incomplete beta is evaluated with the classic continued fraction
(modified Lentz method), switching to the symmetric complement at
``x > (a + 1) / (a + b + 2)`` where the fraction converges fastest.
Absolute error is well below 1e-12 over the degrees of freedom used here.
"""

from __future__ import annotations

import math

from .errors import DomainError, InvalidDfError, InvalidInputError

__all__ = ["reg_inc_beta", "t_cdf", "f_cdf"]

_MAX_ITER = 300
_EPS = 1e-16
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, Lentz's method."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # the even step's term, then the odd step's, which judges convergence
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    return h


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Parameters
    ----------
    x : float in [0, 1]
    a, b : positive floats

    Raises
    ------
    DomainError
        If x is outside [0, 1] or a, b are not positive.
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if a <= 0 or b <= 0:
        raise DomainError(f"a and b must be > 0, got a={a}, b={b}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(x: float, df: int) -> float:
    """Cumulative distribution function of Student's t with ``df`` degrees
    of freedom.

    Uses ``I_z(df/2, 1/2)`` with ``z = df / (df + x^2)``; by symmetry
    ``t_cdf(0, df) == 0.5`` and ``t_cdf(-x, df) == 1 - t_cdf(x, df)``.
    """
    if df < 1 or int(df) != df:
        raise InvalidDfError(f"df must be a positive integer, got {df}")
    if math.isnan(x):
        raise InvalidInputError("x is NaN")
    if x == 0.0:
        return 0.5
    z = df / (df + x * x)
    tail = 0.5 * reg_inc_beta(z, df / 2.0, 0.5)
    return 1.0 - tail if x > 0 else tail


def f_cdf(x: float, df1: int, df2: int) -> float:
    """Cumulative distribution function of the F distribution.

    ``I_{df1 x / (df1 x + df2)}(df1/2, df2/2)`` for x > 0; 0 at x <= 0 is
    rejected because a variance ratio is strictly positive.
    """
    if df1 < 1 or df2 < 1 or int(df1) != df1 or int(df2) != df2:
        raise InvalidInputError(f"degrees of freedom must be positive integers, got {df1}, {df2}")
    if not (x > 0) or math.isinf(x):
        raise InvalidInputError(f"x must be a finite positive real, got {x}")
    z = df1 * x / (df1 * x + df2)
    return reg_inc_beta(z, df1 / 2.0, df2 / 2.0)
