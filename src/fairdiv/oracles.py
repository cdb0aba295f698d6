"""Independent verification machinery: closed-form tail bounds and
exhaustive-search baselines.

Transcendental evaluation policy: natural logarithm and exponential run on
``decimal`` contexts (correctly rounded per IBM's specification) at 45
working digits, with the rounding direction chosen so the returned value is
conservative for the inequality it will be used in.  Results are reported at
30 significant digits.  No transcendental value ever feeds an allocation
decision; they appear only in probability bounds.
"""

from __future__ import annotations

from decimal import ROUND_CEILING, ROUND_DOWN, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .core import Allocation, Instance, _shown
from .errors import DomainError, InstanceTooLargeError, InvariantError
from .metrics import ENUMERATION_GUARD, _check_alpha, prop1_ratio

REPORT_DIGITS = 30
_WORK_DIGITS = REPORT_DIGITS + 15
_UP = Context(prec=_WORK_DIGITS, rounding=ROUND_CEILING)
_DOWN = Context(prec=_WORK_DIGITS, rounding=ROUND_FLOOR)


def _decimal_up(x: Fraction) -> Decimal:
    return _UP.divide(Decimal(x.numerator), Decimal(x.denominator))


def rand_alpha_bound(n: int, delta: Fraction) -> Decimal:
    """The PROP1 factor 27 / (128 ln(n/delta)) the uniform rule guarantees
    with probability 1 - delta against a non-adaptive adversary.

    Natural log (the tail derivation needs exp(-ln(n/delta)) = delta/n).
    Rounded toward zero at 30 significant digits, so the returned factor
    never exceeds the true one.
    """
    if n < 2:
        raise DomainError("need at least 2 agents")
    if not 0 < delta < 1:
        raise DomainError(f"failure probability {_shown(delta)} outside (0, 1)")
    log_up = _UP.ln(_decimal_up(Fraction(n) / delta))
    alpha_down = _DOWN.divide(Decimal(27), _UP.multiply(Decimal(128), log_up))
    return Context(prec=REPORT_DIGITS, rounding=ROUND_DOWN).plus(alpha_down)


def bernstein_tail(variance_bound: Fraction, term_bound: Fraction, deviation: Fraction) -> Decimal:
    """Upper bound exp(-t^2 / (2 sigma^2 + 2 b t / 3)) on the upper tail,
    for variance bound sigma^2, per-term upper deviation b and threshold t
    above the mean.

    The exponent is exact rational arithmetic; only the final exp is rounded,
    upward, so the result is a true upper bound.
    """
    if variance_bound < 0 or term_bound <= 0 or deviation <= 0:
        raise DomainError("need sigma^2 >= 0, b > 0 and t > 0")
    t, s2, b = deviation, variance_bound, term_bound
    exponent = -(t * t) / (2 * s2 + Fraction(2, 3) * b * t)
    tail_up = _UP.exp(_decimal_up(exponent))
    return Context(prec=REPORT_DIGITS, rounding=ROUND_CEILING).plus(tail_up)


def rand_tail_certificate(n: int, delta: Fraction) -> tuple[Decimal, Fraction, bool]:
    """Instantiate the tail bound with the factor from ``rand_alpha_bound``
    and report (tail upper bound, delta/n, bound holds).

    When every good is worth less than alpha T / n to the agent, T its total
    value, the others' share has variance at most alpha T^2 / n^2, per-term
    deviation at most alpha T / n, and threshold (1 - alpha) T / n above its
    mean.  The exponent is scale-free in T, so T is fixed at 1.
    """
    alpha = Fraction(rand_alpha_bound(n, delta))
    tail = bernstein_tail(alpha / (n * n), alpha / n, (1 - alpha) / n)
    threshold = delta / n
    return tail, threshold, Fraction(tail) <= threshold


class RandMoments(NamedTuple):
    """Exact moments of the others'-share variable under the uniform rule."""

    mean: Fraction
    variance: Fraction


def analytic_moments(inst: Instance, agent: int) -> RandMoments:
    """Mean (n-1)/n v_i(G) and variance (n-1)/n^2 sum_j v_i(g_j)^2 of the
    value received by the other agents when every good lands uniformly."""
    inst._check_agent(agent)
    n = inst.n
    row = inst.values[agent - 1]
    mean = Fraction(n - 1, n) * sum(row, Fraction(0))
    variance = Fraction(n - 1, n * n) * sum((v * v for v in row), Fraction(0))
    return RandMoments(mean, variance)


def small_goods_variance_bound(inst: Instance, agent: int, alpha: Fraction) -> bool | None:
    """Check variance <= alpha v_i(G)^2 / n^2 under the small-goods premise.

    Returns None when the premise fails (some good is worth more than
    alpha v_i(G) / n to the agent), otherwise whether the bound holds; the
    bound always holds for such rows, so False indicates a regression.
    """
    inst._check_agent(agent)
    _check_alpha(alpha)
    row = inst.values[agent - 1]
    total = sum(row, Fraction(0))
    n = inst.n
    if row and max(row) > alpha * total / n:
        return None
    return analytic_moments(inst, agent).variance <= alpha * total * total / (n * n)


# ---------------------------------------------------------------------------
# Offline optimum by exhaustive search
# ---------------------------------------------------------------------------


def best_allocation_search(inst: Instance) -> tuple[Allocation, Fraction]:
    """Allocation maximizing the PROP1 ratio, by enumerating all n^m of them.

    For goods the ratio 1 is always reached: round robin is EF1, and EF1
    implies PROP1.  So the first allocation in ``itertools.product`` order
    with ratio 1 is returned, and ``InvariantError`` raised if none is.
    Instances above the enumeration guard are refused.
    """
    n, m = inst.n, inst.m
    if n**m > ENUMERATION_GUARD:
        raise InstanceTooLargeError(f"{n}^{m} allocations exceed {ENUMERATION_GUARD}")
    for owners in product(range(1, n + 1), repeat=m):
        alloc = Allocation(owners)
        ratio = prop1_ratio(inst, alloc)
        if ratio == 1:
            return alloc, ratio
    raise InvariantError(f"no allocation of {m} goods to {n} agents reaches PROP1 ratio 1")
