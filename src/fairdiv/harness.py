"""Experiment orchestration: Monte Carlo validation of the uniform rule's
tail guarantee, adversary-versus-allocator campaigns, and the potential
surface grid export.

Reproducibility rules: every randomized experiment takes a master seed;
per-trial seeds derive from it and the trial index alone, so reports are
identical across runs and independent of scheduling.
"""

from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from . import adversaries as adv
from .algorithms import Greedy3Allocator, RandAllocator, make_allocator, run
from .core import Instance, instance_from_rows, instance_to_json, parse_rational
from .errors import DomainError, InstanceTooLargeError, InvariantError
from .metrics import (
    check_alpha_ef1,
    check_alpha_mms,
    check_alpha_propx,
    check_alpha_prop1,
    prop1_ratio,
)
from .oracles import rand_alpha_bound


def equal_goods_instance(n: int, m: int, value: Fraction = Fraction(1)) -> Instance:
    """m identical goods worth ``value`` to every agent.

    The default stress instance for Monte Carlo runs: all goods small and
    equal maximizes the variance of an agent's missed share relative to the
    single-witness-good escape hatch.
    """
    return instance_from_rows([[value] * m for _ in range(n)])


def derive_trial_seed(master_seed: int, index: int) -> int:
    """Stable per-trial seed from the master seed and trial index."""
    digest = hashlib.sha256(f"{master_seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def instance_descriptor(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "m": inst.m,
        "sha256": hashlib.sha256(instance_to_json(inst).encode()).hexdigest(),
    }


@dataclass(frozen=True)
class MonteCarloReport:
    n: int
    delta: Fraction
    alpha_used: Fraction  # the guaranteed factor, truncated toward zero
    alpha_used_text: str
    trials: int
    failures: int
    empirical_failure_rate: Fraction
    seed: int
    instance: dict


def montecarlo_rand(
    inst: Instance, delta: Fraction, trials: int, master_seed: int
) -> MonteCarloReport:
    """Count how often the uniform rule misses its guaranteed PROP1 factor.

    The instance is committed before any randomness (a non-adaptive
    adversary).  Each trial replays ``RandAllocator`` with a derived seed and
    checks the final allocation against the factor from ``rand_alpha_bound``
    in exact arithmetic; the inner loop works on pre-scaled integers but
    draws the identical owner sequence the allocator would.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    n, m = inst.n, inst.m
    alpha_text = rand_alpha_bound(n, delta)
    alpha = Fraction(alpha_text)
    weights = []
    totals = []
    for row in inst.values:
        scale = lcm(*(v.denominator for v in row)) if row else 1
        weights.append([int(v * scale) for v in row])
        totals.append(sum(weights[-1]))
    p, q = alpha.numerator, alpha.denominator

    failures = 0
    for trial in range(trials):
        rng = random.Random(derive_trial_seed(master_seed, trial))
        owners = [rng.randrange(n) for _ in range(m)]
        for i in range(n):
            held = 0
            outside = 0
            wi = weights[i]
            for t, o in enumerate(owners):
                w = wi[t]
                if o == i:
                    held += w
                elif w > outside:
                    outside = w
            # alpha <= 1 < n, so an agent holding everything passes automatically
            if n * q * (held + outside) < p * totals[i]:
                failures += 1
                break
    return MonteCarloReport(
        n=n,
        delta=delta,
        alpha_used=alpha,
        alpha_used_text=str(alpha_text),
        trials=trials,
        failures=failures,
        empirical_failure_rate=Fraction(failures, trials),
        seed=master_seed,
        instance=instance_descriptor(inst),
    )


def montecarlo_rand_reference(
    inst: Instance, delta: Fraction, trials: int, master_seed: int
) -> MonteCarloReport:
    """Same experiment through the full allocator-and-metrics path.

    Slow; exists so tests can confirm the optimized loop and the reference
    route produce identical reports.
    """
    alpha_text = rand_alpha_bound(inst.n, delta)
    alpha = Fraction(alpha_text)
    failures = 0
    for trial in range(trials):
        allocator = RandAllocator(inst.n, derive_trial_seed(master_seed, trial))
        trace = run(allocator, inst)
        if not check_alpha_prop1(inst, trace.allocation, alpha).satisfied:
            failures += 1
    return MonteCarloReport(
        n=inst.n,
        delta=delta,
        alpha_used=alpha,
        alpha_used_text=str(alpha_text),
        trials=trials,
        failures=failures,
        empirical_failure_rate=Fraction(failures, trials),
        seed=master_seed,
        instance=instance_descriptor(inst),
    )


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

CAMPAIGN_COLUMNS = [
    "construction",
    "allocator",
    "n",
    "alpha",
    "notion",
    "repetition",
    "steps",
    "prop1_ratio",
    "prop1_ratio_float",
    "ratio_below_target",
    "prop1_at_inv_n",
    "alpha_ef1",
    "alpha_mms",
    "alpha_propx",
    "assertions_passed",
]


def _flag(value: bool | None) -> str:
    return "" if value is None else ("true" if value else "false")


def campaign(items: Sequence[dict]) -> list[dict]:
    """Run adversary-versus-allocator pairings and tabulate the verdicts.

    Each item names a construction ("greedy1", "greedy2", "greedy3",
    "miv-impossibility") with its parameters; see the README for the exact
    schema.  One output row per repetition, with blank cells where a verdict
    does not apply (for example MMS when the instance exceeds the
    enumeration guard).
    """
    rows = []
    for k, item in enumerate(items, start=1):
        if not isinstance(item, dict) or "construction" not in item or "alpha" not in item:
            raise DomainError(f"campaign row {k} needs a 'construction' and an 'alpha'")
        construction = item["construction"]
        n = int(item.get("n", 2))
        alpha = parse_rational(item["alpha"])
        repetitions = int(item.get("repetitions", 1))
        for rep in range(repetitions):
            rows.append(_campaign_row(construction, n, alpha, rep, item))
    return rows


def _campaign_row(construction: str, n: int, alpha: Fraction, rep: int, item: dict) -> dict:
    row = {c: "" for c in CAMPAIGN_COLUMNS}
    row.update(
        construction=construction,
        allocator="",
        n=str(n),
        alpha=str(alpha),
        notion=item.get("notion", ""),
        repetition=str(rep),
    )
    assertions: bool | None = True
    try:
        if construction in adv.STATIC_CONSTRUCTIONS:
            build, verify = adv.STATIC_CONSTRUCTIONS[construction]
            inst = build(n, alpha)
            row["allocator"] = construction
            trace = run(make_allocator(construction, n), inst)
            ratio = prop1_ratio(inst, trace.allocation)
            row["steps"] = str(inst.m)
            _fill_ratio(row, ratio)
            row["ratio_below_target"] = _flag(ratio < alpha)
            verify(trace, alpha)
        elif construction == "greedy3":
            max_steps = int(item.get("max_steps", 10**6))
            adversary = adv.Greedy3Adversary(alpha, max_steps, n)
            allocator = Greedy3Allocator(n)
            row["allocator"] = "greedy3"
            result = adv.run_adaptive(adversary, allocator)
            row["steps"] = str(result.trace.instance.m)
            _fill_ratio(row, result.achieved_ratio)
            # a too-small step budget shows up here, not as an invariant breach
            row["ratio_below_target"] = _flag(result.achieved_ratio < alpha)
        elif construction == "miv-impossibility":
            notion = item.get("notion", "ef1")
            allocator_name = item.get("allocator", "miv")
            row["allocator"] = allocator_name
            row["notion"] = notion
            adversary = adv.MivImpossibilityAdversary(n, alpha, notion)
            seed = item.get("seed")
            if seed is not None:
                seed = derive_trial_seed(int(seed), rep)
            allocator = make_allocator(allocator_name, n, seed)
            result = adv.run_adaptive(adversary, allocator)
            inst, alloc = result.trace.instance, result.trace.allocation
            row["steps"] = str(inst.m)
            _fill_ratio(row, result.achieved_ratio)
            row["prop1_at_inv_n"] = _flag(
                check_alpha_prop1(inst, alloc, Fraction(1, n)).satisfied
            )
            row["alpha_ef1"] = _flag(check_alpha_ef1(inst, alloc, alpha).satisfied)
            row["alpha_propx"] = _flag(check_alpha_propx(inst, alloc, alpha).satisfied)
            try:
                row["alpha_mms"] = _flag(check_alpha_mms(inst, alloc, alpha).satisfied)
            except InstanceTooLargeError:
                row["alpha_mms"] = ""
        else:
            raise DomainError(f"unknown construction {construction!r}")
    except InvariantError:
        assertions = False
    row["assertions_passed"] = _flag(assertions)
    return row


def _fill_ratio(row: dict, ratio: Fraction) -> None:
    row["prop1_ratio"] = str(ratio)
    row["prop1_ratio_float"] = repr(float(ratio))


def write_campaign_csv(rows: Sequence[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CAMPAIGN_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def read_campaign_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Potential surface grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialCell:
    a: Fraction
    ya: Fraction  # the product bundle-value * a, the surface's second axis
    phi: Fraction | None  # None where the denominator is not positive
    valid: bool


@dataclass(frozen=True)
class PotentialGrid:
    n: int
    a_values: tuple[Fraction, ...]
    ya_values: tuple[Fraction, ...]
    cells: tuple[PotentialCell, ...]  # a-major order


def _samples(lo: Fraction, hi: Fraction, resolution: int) -> tuple[Fraction, ...]:
    if resolution < 1:
        raise DomainError("resolution must be at least 1")
    if hi < lo:
        raise DomainError("empty range")
    if resolution == 1:
        return (lo,)
    step = (hi - lo) / (resolution - 1)
    return tuple(lo + k * step for k in range(resolution))


def potential_grid(
    n: int,
    a_range: tuple[Fraction, Fraction],
    ya_range: tuple[Fraction, Fraction],
    resolution: int,
) -> PotentialGrid:
    """Sample phi(a, ya) = a / ((n^2+n+1) a + n^2 ya - 1) on a rational grid.

    Cells where the denominator is not positive are flagged invalid rather
    than silently dropped; the pole line sits at a = (1 - n^2 ya)/(n^2+n+1).
    """
    if n < 2:
        raise DomainError("need at least 2 agents")
    if a_range[0] <= 0:
        raise DomainError("a must be positive")
    if ya_range[0] < 0:
        raise DomainError("the bundle product axis must be non-negative")
    a_values = _samples(a_range[0], a_range[1], resolution)
    ya_values = _samples(ya_range[0], ya_range[1], resolution)
    coef = n * n + n + 1
    cells = []
    for a in a_values:
        for ya in ya_values:
            denom = coef * a + n * n * ya - 1
            if denom > 0:
                cells.append(PotentialCell(a, ya, a / denom, True))
            else:
                cells.append(PotentialCell(a, ya, None, False))
    return PotentialGrid(n, a_values, ya_values, tuple(cells))


POTENTIAL_GRID_COLUMNS = ["a", "a_float", "ya_product", "ya_float", "phi", "phi_float", "valid"]


def write_potential_grid_csv(grid: PotentialGrid, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(POTENTIAL_GRID_COLUMNS)
        for cell in grid.cells:
            writer.writerow(
                [
                    str(cell.a),
                    repr(float(cell.a)),
                    str(cell.ya),
                    repr(float(cell.ya)),
                    "" if cell.phi is None else str(cell.phi),
                    "" if cell.phi is None else repr(float(cell.phi)),
                    "true" if cell.valid else "false",
                ]
            )
