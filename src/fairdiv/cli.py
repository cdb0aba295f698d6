"""``fairdiv`` command line: one binary over all module entry points.

Exit codes: 0 success, 1 domain or usage error, 2 exact-invariant breach
(for example, a potential increase or an adversary observing a choice its
construction forbids).  All JSON output has sorted keys and no timestamps,
so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import adversaries as adv
from . import harness, metrics, oracles
from .algorithms import ALLOCATORS, Greedy3Allocator, RobustifiedAllocator, make_allocator, run
from .core import (
    Predictions,
    _dumps,
    _loads,
    format_rational,
    instance_to_json,
    load_allocation,
    load_instance,
    load_predictions,
    parse_rational,
    perfect_predictions,
)
from .errors import FairdivError, InvariantError, ParseError

USAGE_EXIT = 1
INVARIANT_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except FairdivError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _write(path: str | None, payload: str) -> None:
    if path is None:
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def build_parser() -> _Parser:
    parser = _Parser(prog="fairdiv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="evaluate fairness checks on an allocation")
    p.add_argument("--instance", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--check", default="prop1,ef1,propx")
    p.add_argument("--alpha", type=_rational, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("run", help="stream an instance through an online allocator")
    p.add_argument("--algo", required=True, choices=ALLOCATORS)
    p.add_argument("--instance", required=True)
    p.add_argument("--predictions", default=None)
    p.add_argument("--epsilon", type=_rational, default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("adversary", help="generate and run a lower-bound construction")
    p.add_argument(
        "--target",
        required=True,
        choices=["greedy1", "greedy2", "greedy3", "miv-impossibility"],
    )
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--notion", choices=["ef1", "mms", "propx"], default="ef1")
    p.add_argument("--max-steps", type=int, default=10**6)
    p.add_argument("--allocator", choices=ALLOCATORS, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("oracle", help="closed-form bounds and exhaustive baselines")
    p.add_argument("--op", required=True, choices=["rand-alpha", "bernstein", "moments", "best-alloc"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--delta", type=_rational, default=None)
    p.add_argument("--variance-bound", type=_rational, default=None)
    p.add_argument("--term-bound", type=_rational, default=None)
    p.add_argument("--deviation", type=_rational, default=None)
    p.add_argument("--instance", default=None)
    p.add_argument("--agent", type=int, default=None)
    p.add_argument("--alpha", type=_rational, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("montecarlo", help="tail-guarantee validation of the uniform rule")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("campaign", help="run a batch of adversary-vs-allocator pairings")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("potential-grid", help="export the potential surface as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a-min", type=_rational, default=Fraction(1, 50))
    p.add_argument("--a-max", type=_rational, default=Fraction(1))
    p.add_argument("--ya-min", type=_rational, default=Fraction(0))
    p.add_argument("--ya-max", type=_rational, default=Fraction(2))
    p.add_argument("--resolution", type=int, default=25)
    p.add_argument("--out", required=True)

    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_metrics(args) -> int:
    inst = load_instance(args.instance)
    alloc = load_allocation(args.allocation)
    checks = tuple(c.strip() for c in args.check.split(",") if c.strip())
    report = metrics.build_fairness_report(inst, alloc, checks, args.alpha)
    payload: dict = {"alpha": None if args.alpha is None else str(args.alpha)}
    if report.prop1 is not None:
        payload["prop1"] = {
            "ratio": str(report.prop1_ratio),
            "satisfied_at_alpha": report.prop1.satisfied,
            "per_agent": [
                {
                    "agent": a.agent,
                    "value": format_rational(a.value),
                    "witness": a.witness,
                    "satisfied": a.satisfied,
                }
                for a in report.prop1.agents
            ],
        }
    if report.ef1 is not None:
        payload["ef1"] = {
            "satisfied": report.ef1.satisfied,
            "witness": None
            if report.ef1.witness is None
            else {"envier": report.ef1.witness.envier, "envied": report.ef1.witness.envied},
        }
    if report.propx is not None:
        payload["propx"] = {
            "satisfied": report.propx.satisfied,
            "witness": None
            if report.propx.witness is None
            else {"agent": report.propx.witness.agent, "good": report.propx.witness.good},
        }
    if report.mms is not None:
        payload["mms"] = {
            "ratio": format_rational(report.mms_ratio),
            "satisfied_at_alpha": report.mms.satisfied,
            "per_agent": [str(v) for v in report.mms.mms],
            "violating_agent": report.mms.witness,
        }
    _write(args.out, _dumps(payload))
    return 0


def _make_allocator(args, n: int):
    if args.algo == "rand" and args.seed is None:
        raise FairdivError("--algo rand requires --seed")
    allocator = make_allocator(args.algo, n, args.seed)
    if args.predictions is None and args.epsilon is None:
        return allocator
    if args.algo != "miv":
        raise FairdivError("--predictions/--epsilon only apply to --algo miv")
    if args.predictions is not None:
        pred = load_predictions(args.predictions)
    else:
        pred = perfect_predictions(n)
    if args.epsilon is not None:
        pred = Predictions(pred.p, args.epsilon)
    return RobustifiedAllocator(allocator, pred)


def _trace_payload(trace) -> dict:
    payload = {
        "owners": list(trace.owners),
        "alpha": [[format_rational(v) for v in row] for row in trace.alpha],
    }
    if trace.potential is not None:
        payload["phi_total"] = [str(v) for v in trace.potential]
    return payload


def _cmd_run(args) -> int:
    inst = load_instance(args.instance)
    allocator = _make_allocator(args, inst.n)
    trace = run(allocator, inst)
    payload = _trace_payload(trace)
    payload["prop1_ratio"] = str(metrics.prop1_ratio(inst, trace.allocation))
    payload["algo"] = args.algo
    _write(args.out, _dumps(payload))
    return 0


def _cmd_adversary(args) -> int:
    alpha = args.alpha
    if args.allocator is not None and args.target != "miv-impossibility":
        raise FairdivError("--allocator only applies to --target miv-impossibility")
    if args.target in adv.STATIC_CONSTRUCTIONS:
        build, verify = adv.STATIC_CONSTRUCTIONS[args.target]
        inst = build(args.n, alpha)
        trace = run(make_allocator(args.target, inst.n), inst)
        verify(trace, alpha)
        result_bits = {"target_reached": True, "cycles": None}
    elif args.target == "greedy3":
        adversary = adv.Greedy3Adversary(alpha, args.max_steps, args.n)
        predicted = adversary.predicted_cycles_bound()
        result = adv.run_adaptive(adversary, Greedy3Allocator(args.n))
        trace = result.trace
        inst = trace.instance
        result_bits = {
            "target_reached": result.target_reached,
            "cycles": result.cycles,
            "certified_cycles_bound": predicted,
        }
    else:
        adversary = adv.MivImpossibilityAdversary(args.n, alpha, args.notion)
        allocator_name = args.allocator or "miv"
        result = adv.run_adaptive(adversary, make_allocator(allocator_name, args.n))
        trace = result.trace
        inst = trace.instance
        alloc = trace.allocation
        result_bits = {
            "target_reached": True,
            "allocator": allocator_name,
            "alpha_ef1": metrics.check_alpha_ef1(inst, alloc, alpha).satisfied,
            "alpha_propx": metrics.check_alpha_propx(inst, alloc, alpha).satisfied,
            "alpha_mms": metrics.check_alpha_mms(inst, alloc, alpha).satisfied,
            "prop1_at_inv_n": metrics.check_alpha_prop1(inst, alloc, Fraction(1, args.n)).satisfied,
        }
    payload = {
        "target": args.target,
        "alpha": str(alpha),
        "instance": json.loads(instance_to_json(inst)),
        "trace": _trace_payload(trace),
        "achieved_prop1_ratio": str(metrics.prop1_ratio(inst, trace.allocation)),
        "steps": inst.m,
    }
    payload.update(result_bits)
    _write(args.out, _dumps(payload))
    return 0


def _cmd_oracle(args) -> int:
    if args.op == "rand-alpha":
        if args.n is None or args.delta is None:
            raise FairdivError("rand-alpha needs --n and --delta")
        value = oracles.rand_alpha_bound(args.n, args.delta)
        payload = {"op": "rand-alpha", "n": args.n, "delta": str(args.delta), "alpha": str(value)}
    elif args.op == "bernstein":
        if args.n is not None and args.delta is not None:
            tail, threshold, holds = oracles.rand_tail_certificate(args.n, args.delta)
            payload = {
                "op": "bernstein",
                "n": args.n,
                "delta": str(args.delta),
                "tail_upper_bound": str(tail),
                "threshold_delta_over_n": str(threshold),
                "holds": holds,
            }
        else:
            if None in (args.variance_bound, args.term_bound, args.deviation):
                raise FairdivError(
                    "bernstein needs either --n/--delta or all of "
                    "--variance-bound/--term-bound/--deviation"
                )
            params = oracles.BernsteinParams(
                args.variance_bound, args.term_bound, args.deviation, Fraction(0)
            )
            payload = {
                "op": "bernstein",
                "tail_upper_bound": str(oracles.bernstein_tail(params)),
            }
    elif args.op == "moments":
        if args.instance is None or args.agent is None:
            raise FairdivError("moments needs --instance and --agent")
        inst = load_instance(args.instance)
        moments = oracles.analytic_moments(inst, args.agent)
        payload = {
            "op": "moments",
            "agent": args.agent,
            "mean": str(moments.mean),
            "variance": str(moments.variance),
        }
        if args.alpha is not None:
            holds = oracles.small_goods_variance_bound(inst, args.agent, args.alpha)
            payload["small_goods_premise"] = holds is not None
            payload["variance_bound_holds"] = holds
    else:  # best-alloc
        if args.instance is None:
            raise FairdivError("best-alloc needs --instance")
        inst = load_instance(args.instance)
        alloc, ratio = oracles.best_allocation_search(inst)
        payload = {
            "op": "best-alloc",
            "owner": list(alloc.owner),
            "prop1_ratio": str(ratio),
        }
    _write(args.out, _dumps(payload))
    return 0


def _cmd_montecarlo(args) -> int:
    inst = load_instance(args.instance)
    if inst.n != args.n:
        raise FairdivError(f"--n {args.n} does not match the instance's {inst.n} agents")
    report = harness.montecarlo_rand(inst, args.delta, args.trials, args.seed)
    payload = {
        "n": report.n,
        "delta": str(report.delta),
        "alpha_used": report.alpha_used_text,
        "trials": report.trials,
        "failures": report.failures,
        "empirical_failure_rate": str(report.empirical_failure_rate),
        "seed": report.seed,
        "instance": report.instance,
        "within_delta": report.empirical_failure_rate <= report.delta,
    }
    _write(args.out, _dumps(payload))
    return 0


def _cmd_campaign(args) -> int:
    config = _loads(args.config)
    items = config.get("rows", []) if isinstance(config, dict) else config
    if not isinstance(items, list):
        raise ParseError(f"{args.config}: expected a list of rows or an object with a 'rows' list")
    rows = harness.campaign(items)
    harness.write_campaign_csv(rows, args.out)
    if any(r["assertions_passed"] == "false" for r in rows):
        return INVARIANT_EXIT
    return 0


def _cmd_potential_grid(args) -> int:
    grid = harness.potential_grid(
        args.n, (args.a_min, args.a_max), (args.ya_min, args.ya_max), args.resolution
    )
    harness.write_potential_grid_csv(grid, args.out)
    return 0


_COMMANDS = {
    "metrics": _cmd_metrics,
    "run": _cmd_run,
    "adversary": _cmd_adversary,
    "oracle": _cmd_oracle,
    "montecarlo": _cmd_montecarlo,
    "campaign": _cmd_campaign,
    "potential-grid": _cmd_potential_grid,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return _COMMANDS[args.command](args)
    except FairdivError as exc:
        print(f"fairdiv: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except InvariantError as exc:
        print(f"fairdiv: invariant breach: {exc}", file=sys.stderr)
        return INVARIANT_EXIT


if __name__ == "__main__":
    sys.exit(main())
