"""Output checks written from the definitions, independent of ``fairdiv.metrics``.

``check(job, code, stderr)`` verifies a job's exit code and output and
returns the number of goods the job carried.  It raises ``CheckFailed``
with a one-line reason otherwise.  PROP1 values follow fairdiv's
conventions: an agent holding every good, or valuing every good at zero, is
vacuously satisfied and its value prints as ``inf``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

INF = None  # a vacuously satisfied agent's running value


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _fmt(value) -> str:
    return "inf" if value is INF else str(value)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_allocation(path: str, owners: list[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"owner": owners}, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------------


def _fsum(values) -> Fraction:
    """Exact sum over a common denominator (one division instead of one per term)."""
    values = list(values)
    if not values:
        return Fraction(0)
    den = math.lcm(*(v.denominator for v in values))
    return Fraction(sum(v.numerator * (den // v.denominator) for v in values), den)


def _bundles(values, owners):
    """Per agent: (value held, total value, goods outside the bundle)."""
    out = []
    for i, row in enumerate(values, start=1):
        held = _fsum(v for v, o in zip(row, owners) if o == i)
        outside = [t for t, o in enumerate(owners) if o != i]
        out.append((held, _fsum(row), outside))
    return out


def prop1(values, owners) -> tuple[list, Fraction]:
    """Final running PROP1 values and the PROP1 ratio of an allocation.

    A running value is (v_i(A_i) + best outside good) / v_i(G), with the
    outside good counting 0 when the agent holds everything, and INF when
    v_i(G) = 0.  The ratio is min(1, n * min) over the agents that do not
    hold everything and value something.
    """
    running, finite = [], []
    for row, (held, total, outside) in zip(values, _bundles(values, owners)):
        value = INF if total == 0 else (held + max((row[t] for t in outside), default=0)) / total
        running.append(value)
        if outside and value is not INF:
            finite.append(value)
    return running, Fraction(1) if not finite else min(Fraction(1), len(values) * min(finite))


def _check_owners(owners, n: int, m: int) -> None:
    _require(isinstance(owners, list) and len(owners) == m, f"owner list does not cover {m} goods")
    _require(all(isinstance(o, int) and 1 <= o <= n for o in owners), "owner outside 1..n")


def _lpt_floor(row, n: int) -> Fraction:
    """Smallest part of a largest-first greedy n-partition: a lower bound on MMS."""
    parts = [Fraction(0)] * n
    for v in sorted(row, reverse=True):
        parts[parts.index(min(parts))] += v
    return min(parts)


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def _close(reported: str, exact: Decimal, rel: str) -> bool:
    with localcontext() as ctx:
        ctx.prec = 60
        return abs(Decimal(reported) - exact) <= abs(exact) * Decimal(rel)


def _rand_alpha(n: int, delta: Fraction) -> Decimal:
    """27 / (128 ln(n/delta)) at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(27) / (Decimal(128) * _decimal(Fraction(n) / delta).ln())


def _bernstein(variance: Fraction, term: Fraction, deviation: Fraction) -> Decimal:
    exponent = -(deviation * deviation) / (2 * variance + Fraction(2, 3) * term * deviation)
    with localcontext() as ctx:
        ctx.prec = 60
        return _decimal(exponent).exp()


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------


def _run(job) -> int:
    """Check a ``run`` trace and write its allocation for the ``metrics`` job that follows."""
    spec, d = job.spec, _load(job.out)
    values = spec["values"]
    n, m = len(values), len(values[0])
    owners = d["owners"]
    _check_owners(owners, n, m)
    running, ratio = prop1(values, owners)
    _require(d["prop1_ratio"] == str(ratio), "reported PROP1 ratio differs from the owners'")
    _require(d["algo"] == spec["rule"].split("_")[0], "algo field does not echo the rule")
    final = [row[-1] for row in d["alpha"]]
    _require(all(len(row) == m for row in d["alpha"]), "running values do not cover every good")
    _require(final == [_fmt(v) for v in running], "final running values are wrong")
    if spec["rule"] == "miv":
        _require(ratio >= Fraction(1, n), f"miv ended at {ratio}, below 1/n")
        phi = [Fraction(p) for p in d["phi_total"]]
        _require(len(phi) == m + 1 and phi[0] == Fraction(1, n + 1), "potential log has the wrong shape")
        _require(all(b <= a for a, b in zip(phi, phi[1:])), "potential increased")
    elif spec["rule"] == "miv_robust":
        alpha, eps = Fraction(1, n), spec["epsilon"]
        beta = alpha * (1 - eps) / (1 - alpha * eps / n)
        _require(ratio >= beta, f"robust miv ended at {ratio}, below its factor {beta}")
    _write_allocation(spec["allocation"], owners)
    return m


def _metrics(job) -> int:
    spec, d = job.spec, _load(job.out)
    values = spec["values"]
    n, m = len(values), len(values[0])
    owners = _load(spec["allocation"])["owner"]
    bundles = _bundles(values, owners)
    report = d["prop1"]
    _require(report["ratio"] == str(prop1(values, owners)[1]), "PROP1 ratio is wrong")
    for i, (entry, row, (held, total, outside)) in enumerate(zip(report["per_agent"], values, bundles), 1):
        _require(entry["agent"] == i, "per-agent entries out of order")
        if not outside:
            _require(entry["witness"] == "self" and entry["value"] == "inf", f"agent {i} holds all: bad witness")
            continue
        g = entry["witness"]
        _require(isinstance(g, int) and 1 <= g <= m and owners[g - 1] != i, f"agent {i}: witness not outside")
        _require(row[g - 1] == max(row[t] for t in outside), f"agent {i}: witness is not the best outside good")
        value = INF if total == 0 else (held + row[g - 1]) / total
        _require(entry["value"] == _fmt(value), f"agent {i}: witness value is wrong")
        _require(entry["satisfied"] == ((held + row[g - 1]) * n >= total), f"agent {i}: verdict is wrong")
    _require(report["satisfied_at_alpha"] == all(a["satisfied"] for a in report["per_agent"]), "PROP1 verdict")
    if "ef1" in spec["checks"]:
        _check_ef1(d["ef1"], values, owners, bundles)
    if "propx" in spec["checks"]:
        _check_propx(d["propx"], values, owners, bundles)
    if "mms" in spec["checks"]:
        _check_mms(d["mms"], values, bundles)
    return m


def _ef1_violation(values, owners, bundles, i: int, j: int) -> bool:
    theirs = [v for v, o in zip(values[i - 1], owners) if o == j]
    return bool(theirs) and bundles[i - 1][0] < _fsum(theirs) - max(theirs)


def _check_ef1(ef1: dict, values, owners, bundles) -> None:
    n = len(values)
    if ef1["witness"] is None:
        _require(ef1["satisfied"], "EF1 unsatisfied without a witness")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                _require(i == j or not _ef1_violation(values, owners, bundles, i, j), f"EF1 fails for {i}->{j}")
    else:
        i, j = ef1["witness"]["envier"], ef1["witness"]["envied"]
        _require(not ef1["satisfied"] and i != j, "EF1 witness with a satisfied verdict")
        _require(_ef1_violation(values, owners, bundles, i, j), "EF1 witness pair does not violate EF1")


def _propx_violation(values, bundles, i: int):
    """Index of the least valuable outside good if it fails PROPX for agent i."""
    row, (held, total, outside) = values[i - 1], bundles[i - 1]
    if not outside:
        return None
    g = min(outside, key=lambda t: (row[t], t))
    return g + 1 if (held + row[g]) * len(values) < total else None


def _check_propx(propx: dict, values, owners, bundles) -> None:
    if propx["witness"] is None:
        _require(propx["satisfied"], "PROPX unsatisfied without a witness")
        _require(all(_propx_violation(values, bundles, i) is None for i in range(1, len(values) + 1)),
                 "PROPX fails for some agent")
    else:
        i, g = propx["witness"]["agent"], propx["witness"]["good"]
        _require(not propx["satisfied"] and owners[g - 1] != i, "PROPX witness good is held")
        row, (held, total, _) = values[i - 1], bundles[i - 1]
        _require((held + row[g - 1]) * len(values) < total, "PROPX witness does not violate PROPX")


def _check_mms(mms: dict, values, bundles) -> None:
    n = len(values)
    shares = [Fraction(v) for v in mms["per_agent"]]
    for i, (row, share, (held, total, _)) in enumerate(zip(values, shares, bundles), 1):
        _require(_lpt_floor(row, n) <= share <= total / n, f"agent {i}: MMS outside its bounds")
    held = [b[0] for b in bundles]
    violating = next((i for i in range(1, n + 1) if held[i - 1] < shares[i - 1]), None)
    _require(mms["violating_agent"] == violating, "MMS witness is wrong")
    _require(mms["satisfied_at_alpha"] == (violating is None), "MMS verdict is wrong")
    ratios = [h / s for h, s in zip(held, shares) if s != 0]
    _require(mms["ratio"] == str(min([Fraction(1), *ratios])), "MMS ratio is wrong")


def _best_alloc(job) -> int:
    d, values = _load(job.out), job.spec["values"]
    _check_owners(d["owner"], len(values), len(values[0]))
    ratio = prop1(values, d["owner"])[1]
    # A PROP1 allocation always exists for goods (round robin is EF1).
    _require(ratio == 1 and d["prop1_ratio"] == "1", f"best allocation reaches only {ratio}")
    return len(values[0])


def _adversary(job) -> int:
    spec, d = job.spec, _load(job.out)
    n, alpha, target = spec["n"], spec["alpha"], spec["target"]
    values = [[Fraction(v) for v in row] for row in d["instance"]["values"]]
    m = len(values[0])
    owners = d["trace"]["owners"]
    _check_owners(owners, n, m)
    running, ratio = prop1(values, owners)
    _require(d["steps"] == m and d["target_reached"] is True, "target not reached")
    _require(d["achieved_prop1_ratio"] == str(ratio), "achieved ratio differs from the owners'")
    _require(ratio < alpha, f"ratio {ratio} not below the target {alpha}")
    final = [row[-1] for row in d["trace"]["alpha"]]
    _require(final == [_fmt(v) for v in running], "final running values are wrong")
    if target == "greedy1":
        _require(m == math.floor(1 + 2 * (n / alpha - 1)) + 1, "greedy1 horizon is wrong")
        _require(2 not in owners, "agent 2 received a good under greedy1")
    elif target == "greedy2":
        _require(m == math.floor(2 * n / alpha) + 1, "greedy2 horizon is wrong")
        _require(owners[0] == 1 and 1 not in owners[1:], "agent 1 received a later good under greedy2")
    else:
        _require(1 <= d["cycles"] <= d["certified_cycles_bound"], "cycle count outside its certified bound")
    return m


def _impossibility_steps(n: int, alpha: Fraction) -> int:
    return math.ceil(Fraction(n) / alpha) + n + 2


def _campaign(job, code: int) -> int:
    with open(job.out, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    items = job.spec["rows"]
    expected = [item for item in items for _ in range(int(item.get("repetitions", 1)))]
    _require(len(rows) == len(expected), "campaign row count is wrong")
    _require(code == (2 if any(r["assertions_passed"] == "false" for r in rows) else 0),
             f"exit code {code} does not match the rows' assertion verdicts")
    goods = 0
    for row, item in zip(rows, expected):
        _require(row["construction"] == item["construction"], "campaign rows out of order")
        n, alpha = int(item.get("n", 2)), Fraction(item["alpha"])
        if row["assertions_passed"] == "false":
            # The impossibility construction pins good 1 to agent 1, which
            # only lowest-index tie-breaking guarantees; the uniform rule may
            # place it elsewhere, and the row then records the breach.
            _require(item.get("allocator") == "rand" and row["steps"] == "", "assertions failed")
            continue
        _require(row["assertions_passed"] == "true", "assertion verdict missing")
        ratio = Fraction(row["prop1_ratio"])
        _require(row["prop1_ratio_float"] == repr(float(ratio)), "float ratio column is wrong")
        if item["construction"] == "miv-impossibility":
            _require(int(row["steps"]) == _impossibility_steps(n, alpha), "impossibility horizon is wrong")
            _require(row["alpha_ef1"] == "false" and row["alpha_mms"] in ("false", ""), "EF1/MMS not defeated")
            if item["allocator"] == "miv":
                _require(row["prop1_at_inv_n"] == "true", "miv missed 1/n-PROP1")
        else:
            _require(row["ratio_below_target"] == "true" and ratio < alpha, "ratio not below the target")
        goods += int(row["steps"])
    return goods


def _montecarlo(job) -> int:
    spec, d = job.spec, _load(job.out)
    values = spec["values"]
    n, m = len(values), len(values[0])
    trials = spec["trials"]
    _require(d["trials"] == trials and 0 <= d["failures"] <= trials, "failures outside 0..trials")
    rate = Fraction(d["failures"], trials)
    _require(d["empirical_failure_rate"] == str(rate), "failure rate is wrong")
    _require(d["within_delta"] == (rate <= spec["delta"]), "within_delta verdict is wrong")
    _require(Decimal(d["alpha_used"]) <= _rand_alpha(n, spec["delta"]), "alpha_used above the true factor")
    with open(spec["instance_path"], "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    _require(d["instance"] == {"n": n, "m": m, "sha256": digest}, "instance descriptor is wrong")
    return trials * m


def _rand_alpha_check(job) -> int:
    d, spec = _load(job.out), job.spec
    exact = _rand_alpha(spec["n"], spec["delta"])
    _require(Decimal(d["alpha"]) <= exact and _close(d["alpha"], exact, "1e-28"), "rand-alpha is wrong")
    return 0


def _bernstein_check(job) -> int:
    d, spec = _load(job.out), job.spec
    if "n" in spec:
        n, delta = spec["n"], spec["delta"]
        alpha = Fraction(_rand_alpha(n, delta))
        exact = _bernstein(alpha / (n * n), alpha / n, (1 - alpha) / n)
        _require(_close(d["tail_upper_bound"], exact, "1e-26"), "Bernstein tail is wrong")
        _require(d["threshold_delta_over_n"] == str(delta / n), "threshold is wrong")
        _require(d["holds"] == (Fraction(d["tail_upper_bound"]) <= delta / n), "holds verdict is wrong")
    else:
        exact = _bernstein(spec["variance_bound"], spec["term_bound"], spec["deviation"])
        # the exponent is exact here, so only the 60-digit rounding of exp separates the two
        _require(Decimal(d["tail_upper_bound"]) >= exact or _close(d["tail_upper_bound"], exact, "1e-55"),
                 "tail is not an upper bound")
        _require(_close(d["tail_upper_bound"], exact, "1e-28"), "Bernstein tail is wrong")
    return 0


def _moments(job) -> int:
    d, spec = _load(job.out), job.spec
    values, agent, alpha = spec["values"], spec["agent"], spec["alpha"]
    n, row = len(values), values[spec["agent"] - 1]
    total = _fsum(row)
    variance = Fraction(n - 1, n * n) * _fsum(v * v for v in row)
    _require(d["agent"] == agent and d["mean"] == str(Fraction(n - 1, n) * total), "mean is wrong")
    _require(d["variance"] == str(variance), "variance is wrong")
    premise = max(row) <= alpha * total / n
    _require(d["small_goods_premise"] == premise, "small-goods premise is wrong")
    bound = variance <= alpha * total * total / (n * n) if premise else None
    _require(d["variance_bound_holds"] == bound, "variance bound verdict is wrong")
    return len(row)


def _error(stderr: str) -> int:
    lines = stderr.strip().splitlines()
    _require(len(lines) == 1 and lines[0].startswith("fairdiv: error: "), "not a one-line error message")
    return 0


_CHECKS = {
    "run": _run,
    "metrics": _metrics,
    "best-alloc": _best_alloc,
    "adversary": _adversary,
    "montecarlo": _montecarlo,
    "rand-alpha": _rand_alpha_check,
    "bernstein": _bernstein_check,
    "moments": _moments,
}


def check(job, code: int, stderr: str) -> int:
    """Verify a job's exit code and output; return the goods it carried."""
    try:
        if job.kind == "campaign":
            return _campaign(job, code)
        _require(code == job.expect_exit, f"exit code {code}, expected {job.expect_exit}")
        if job.kind == "error":
            return _error(stderr)
        _require(not stderr.strip(), "unexpected output on stderr")
        return _CHECKS[job.kind](job)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        raise CheckFailed(f"malformed output: {type(exc).__name__}: {exc}") from None
