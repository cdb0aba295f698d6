"""``fairdiv`` command line: one binary over all module entry points.

Exit codes: 0 success, 1 domain or usage error, 2 exact-invariant breach
(for example, a potential increase or an adversary observing a choice its
construction forbids).  All JSON output has sorted keys and no timestamps,
so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from . import adversaries as adv
from . import harness, metrics, oracles
from .algorithms import ALLOCATORS, RobustifiedAllocator, make_allocator, run
from .core import (
    Predictions,
    _Encoded,
    _pieces,
    _reading,
    _shown,
    format_ratio,
    instance_to_json,
    load_allocation,
    load_instance,
    load_predictions,
    parse_rational,
    perfect_predictions,
)
from .errors import DomainError, FairdivError, InvariantError

USAGE_EXIT = 1
INVARIANT_EXIT = 2
#: The names ``metrics --check`` takes, comma-separated.
CHECKS = ("prop1", "ef1", "propx", "mms")
#: The flags each ``oracle --op`` reads besides ``--out``; bernstein reads one group or the other.
ORACLE_FLAGS = {"rand-alpha": [("--n", "--delta")], "moments": [("--instance", "--agent", "--alpha")],
                "bernstein": [("--n", "--delta"), ("--variance-bound", "--term-bound", "--deviation")],
                "best-alloc": [("--instance",)]}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to the usage and exit code 2
        self.exit(USAGE_EXIT, f"fairdiv: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except FairdivError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int(text: str) -> int:
    """argparse's ``type=int``, quoting a refused value through ``_shown``."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from None


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {_shown(text)}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _write(path: str | None, payload) -> None:
    """The one place an output file is opened: UTF-8, line endings as built, only once ``payload``
    (a str, or a payload for ``_pieces``) is encoded, in unjoined pieces.  A failed write is a ``FairdivError``."""
    pieces = [payload] if isinstance(payload, str) else _pieces(payload)
    try:
        if path is not None:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
            return
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # here, not at exit, where a failure is no longer caught
    except OSError as exc:
        raise FairdivError(f"cannot write {'standard output' if path is None else path}: {exc}") from None


@cache
def build_parser() -> _Parser:
    """The one parser of a process: ``parse_args`` leaves it unchanged."""
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
    p.add_argument("--target", required=True, choices=adv.CONSTRUCTIONS)
    p.add_argument("--n", type=_int, default=2)
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--max-steps", type=_int, default=adv.MAX_STEPS)
    # no --seed here: a rand victim runs through a campaign row that carries one
    p.add_argument("--allocator", choices=[a for a in ALLOCATORS if a != "rand"], default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("oracle", help="closed-form bounds and exhaustive baselines")
    p.add_argument("--op", required=True, choices=["rand-alpha", "bernstein", "moments", "best-alloc"])
    p.add_argument("--n", type=_int, default=None)
    p.add_argument("--delta", type=_rational, default=None)
    p.add_argument("--variance-bound", type=_rational, default=None)
    p.add_argument("--term-bound", type=_rational, default=None)
    p.add_argument("--deviation", type=_rational, default=None)
    p.add_argument("--instance", default=None)
    p.add_argument("--agent", type=_int, default=None)
    p.add_argument("--alpha", type=_rational, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("montecarlo", help="tail-guarantee validation of the uniform rule")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--trials", type=_int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("campaign", help="run a batch of adversary-vs-allocator pairings")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_metrics(args) -> int:
    checks = {c.strip() for c in args.check.split(",")} - {""}
    unknown = checks - set(CHECKS)
    if unknown:
        raise DomainError(f"unknown checks: {sorted(unknown)}")
    if not checks:
        raise DomainError(f"--check names no check; choose from {', '.join(CHECKS)}")
    # without --alpha the exact notions are checked
    alpha = Fraction(1) if args.alpha is None else args.alpha
    inst = load_instance(args.instance)
    alloc = load_allocation(args.allocation)
    payload: dict = {"alpha": args.alpha}
    if "prop1" in checks:
        prop1 = metrics.check_alpha_prop1(inst, alloc, alpha)
        payload["prop1"] = {"ratio": metrics.prop1_ratio(inst, alloc), "satisfied_at_alpha": prop1.satisfied,
                            "per_agent": [a._asdict() for a in prop1.agents]}
    for name, check_alpha in (("ef1", metrics.check_alpha_ef1), ("propx", metrics.check_alpha_propx)):
        if name in checks:
            check = check_alpha(inst, alloc, alpha)
            witness = None if check.witness is None else check.witness._asdict()
            payload[name] = {"satisfied": check.satisfied, "witness": witness}
    if "mms" in checks:
        mms = metrics.check_alpha_mms(inst, alloc, alpha)
        payload["mms"] = {"ratio": mms.ratio, "satisfied_at_alpha": mms.satisfied, "per_agent": mms.mms,
                          "violating_agent": mms.witness}
    _write(args.out, payload)
    return 0


def _make_allocator(args, n: int):
    """The rule ``run`` streams through: under ``--predictions``/``--epsilon``,
    MIV with those predictions."""
    if args.seed is not None and args.algo != "rand":
        raise FairdivError("--seed only applies to --algo rand")
    if args.predictions is None and args.epsilon is None:
        return make_allocator(args.algo, n, args.seed)
    if args.algo != "miv":
        raise FairdivError("--predictions/--epsilon only apply to --algo miv")
    pred = perfect_predictions(n) if args.predictions is None else load_predictions(args.predictions)
    if args.epsilon is not None:
        pred = Predictions(pred.p, args.epsilon)
    return RobustifiedAllocator(n, pred)


def _trace_payload(trace) -> dict:
    """The owners and each agent's running values, a row built as it is
    written; a value that holds still along a run is shared by its goods."""
    def alpha(i: int) -> list[str]:
        row: list[str] = []
        for nums, dens, k in trace.alpha(i):
            row += map(format_ratio, nums, dens) if len(nums) == k else [format_ratio(nums[0], dens[0])] * k
        return row
    payload = {"owners": trace.owners, "alpha": map(alpha, range(trace.state.n))}
    if trace.potential is not None:
        payload["phi_total"] = trace.potential
    return payload


def _cmd_run(args) -> int:
    inst = load_instance(args.instance)
    allocator = _make_allocator(args, inst.n)
    trace = run(allocator, inst)
    payload = _trace_payload(trace)
    payload["prop1_ratio"] = allocator.state.ratio()
    payload["algo"] = args.algo
    if args.algo == "miv":  # the 1/n-PROP1 guarantee rests on this contract
        payload["prediction_contract_met"] = all(allocator.seen_max)
    _write(args.out, payload)
    return 0


def _cmd_adversary(args) -> int:
    result = adv.run_construction(
        args.target, args.n, args.alpha, max_steps=args.max_steps, allocator=args.allocator
    )
    inst = result.trace.instance
    payload = {
        "target": args.target,
        "alpha": args.alpha,
        "instance": _Encoded(instance_to_json(inst)),
        "trace": _trace_payload(result.trace),
        "achieved_prop1_ratio": result.achieved_ratio,
        "steps": inst.m,
        "target_reached": result.target_reached,
        **result.fields,
    }
    _write(args.out, payload)
    return 0


def _cmd_oracle(args) -> int:
    groups = ORACLE_FLAGS[args.op]
    given = ["--" + k.replace("_", "-") for k, v in vars(args).items()
             if v is not None and k not in ("command", "op", "out")]
    if unread := [flag for flag in given if not any(flag in group for group in groups)]:
        raise FairdivError(f"--op {args.op} does not take {'/'.join(unread)}")
    if sum(any(flag in group for flag in given) for group in groups) > 1:
        raise FairdivError(f"--op {args.op} takes {' or '.join(map('/'.join, groups))}, not both")
    if args.op == "rand-alpha":
        if args.n is None or args.delta is None:
            raise FairdivError("rand-alpha needs --n and --delta")
        payload = {"n": args.n, "delta": args.delta, "alpha": oracles.rand_alpha_bound(args.n, args.delta)}
    elif args.op == "bernstein":
        if args.n is not None and args.delta is not None:
            tail, threshold, holds = oracles.rand_tail_certificate(args.n, args.delta)
            payload = {"n": args.n, "delta": args.delta, "tail_upper_bound": tail,
                       "threshold_delta_over_n": threshold, "holds": holds}
        else:
            if None in (args.variance_bound, args.term_bound, args.deviation):
                raise FairdivError("bernstein needs either --n/--delta or all of "
                                   "--variance-bound/--term-bound/--deviation")
            tail = oracles.bernstein_tail(args.variance_bound, args.term_bound, args.deviation)
            payload = {"tail_upper_bound": tail}
    elif args.op == "moments":
        if args.instance is None or args.agent is None:
            raise FairdivError("moments needs --instance and --agent")
        inst = load_instance(args.instance)
        payload = {"agent": args.agent, **oracles.analytic_moments(inst, args.agent)._asdict()}
        if args.alpha is not None:
            holds = oracles.small_goods_variance_bound(inst, args.agent, args.alpha)
            payload["small_goods_premise"] = holds is not None
            payload["variance_bound_holds"] = holds
    else:  # best-alloc
        if args.instance is None:
            raise FairdivError("best-alloc needs --instance")
        alloc, ratio = oracles.best_allocation_search(load_instance(args.instance))
        payload = {"owner": list(alloc.owner), "prop1_ratio": ratio}
    _write(args.out, {"op": args.op, **payload})
    return 0


def _cmd_montecarlo(args) -> int:
    inst = load_instance(args.instance)
    if inst.n != args.n:
        raise FairdivError(f"--n {args.n} does not match the instance's {inst.n} agents")
    report = harness.montecarlo_rand(inst, args.delta, args.trials, args.seed)
    within_delta = report.empirical_failure_rate <= report.delta
    _write(args.out, {**report._asdict(), "within_delta": within_delta})
    return 0


def _cmd_campaign(args) -> int:
    with _reading(args.config, "rows") as config:
        rows = harness.campaign(config["rows"])
    _write(args.out, harness.campaign_csv(rows))
    return INVARIANT_EXIT if any(r["assertions_passed"] == "false" for r in rows) else 0


_COMMANDS = {
    "metrics": _cmd_metrics,
    "run": _cmd_run,
    "adversary": _cmd_adversary,
    "oracle": _cmd_oracle,
    "montecarlo": _cmd_montecarlo,
    "campaign": _cmd_campaign,
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
    except MemoryError:  # a size that passes every check but does not fit, such as n agents' lists
        print("fairdiv: error: out of memory", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
