"""Experiment orchestration: Monte Carlo validation of the uniform rule's
tail guarantee, and adversary-versus-allocator campaigns written as CSV.

Reproducibility rules: every randomized experiment takes a master seed;
per-trial seeds derive from it and the trial index alone, so reports are
identical across runs and independent of scheduling.
"""

from __future__ import annotations

import io
import os
import random
import sys
from contextlib import suppress
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, compress
from typing import NamedTuple, Sequence

from . import adversaries as adv
from .core import Instance, _as_int, _shown, format_rational, instance_to_json, parse_rational
from .errors import DomainError, FairdivError, InvariantError, ParseError
from .oracles import rand_alpha_bound


def derive_trial_seed(master_seed: int, index: int) -> int:
    """Stable per-trial seed from the master seed and trial index."""
    import hashlib  # here, not at the top: only campaigns and Monte Carlo need it

    digest = hashlib.sha256(f"{master_seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def instance_descriptor(inst: Instance) -> dict:
    import hashlib

    return {
        "n": inst.n,
        "m": inst.m,
        "sha256": hashlib.sha256(instance_to_json(inst).encode()).hexdigest(),
    }


class MonteCarloReport(NamedTuple):
    n: int
    delta: Fraction
    alpha_used: Decimal  # the guaranteed factor, truncated toward zero
    trials: int
    failures: int
    empirical_failure_rate: Fraction
    seed: int
    instance: dict


def montecarlo_rand(
    inst: Instance, delta: Fraction, trials: int, master_seed: int
) -> MonteCarloReport:
    """Count how often the uniform rule misses its guaranteed PROP1 factor.

    The instance is committed before any randomness (a non-adaptive adversary).
    Each trial replays ``RandAllocator`` with a derived seed, checking the final
    allocation against ``rand_alpha_bound``'s factor p/q exactly, on the integer
    rows of ``inst.scaled``: agent i passes iff n q (held + outside) >= p total_i.
    One ``getrandbits(32*K)`` call draws its owners: CPython's ``randrange(n)``
    keeps the top k = n.bit_length() bits of a 32-bit word and rejects values
    >= n, so the K words' top bytes, shifted right by 8 - k and less the
    rejects, are the allocator's owners.  That rests on CPython, not on the
    ``random`` docs, and needs owners in a byte: n <= 255.  One generator is
    reseeded per trial; ``seed(s)`` leaves the state of a fresh ``Random(s)``.

    The check rarely looks at a value.  Weights are non-negative, and an agent
    holding c < m goods may add its best outside good: c + 1 of its weights,
    worth at least its row's c + 1 smallest.  So ``enough_i``, the least c with
    n q times that sum >= p total_i, settles an agent holding that many goods on
    ``owners.count(i)`` alone; holding all m it passes too, as alpha <= 1 < n.
    An agent below it sums its bundle and passes if n q held >= p total_i; only
    then is its best outside good taken, which is >= 0, so each exit is exact.

    A large run counts its trials in ``_parts`` processes; a trial's seed rests
    on its index alone, so the report does not depend on the split.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    n, m = inst.n, inst.m
    if n > 255:
        raise DomainError(f"montecarlo takes at most 255 agents, got {n}")
    alpha_used = rand_alpha_bound(n, delta)
    p, q = Fraction(alpha_used).as_integer_ratio()
    nq = n * q
    agents = []
    for i, (_, row) in enumerate(inst.scaled):
        limit = p * sum(row)
        enough = next((c for c, low in enumerate(accumulate(sorted(row))) if nq * low >= limit), 0)
        own, other = bytes(o == i for o in range(256)), bytes(o != i for o in range(256))
        agents.append((i, enough, row, own, other, limit))
    draw = _owner_draw(n, m)

    def count(trials_range: range) -> int:
        failures, rng = 0, random.Random()
        for trial in trials_range:
            rng.seed(derive_trial_seed(master_seed, trial))
            owners = draw(rng)
            for i, enough, row, own, other, limit in agents:
                if owners.count(i) >= enough:
                    continue
                held = nq * sum(compress(row, owners.translate(own)))
                if held < limit and held + nq * max(compress(row, owners.translate(other))) < limit:
                    failures += 1
                    break
        return failures

    parts = _parts(trials, m)
    failures = count(range(trials)) if parts < 2 else _count_in_parts(count, trials, parts)
    return MonteCarloReport(
        n=n,
        delta=delta,
        alpha_used=alpha_used,
        trials=trials,
        failures=failures,
        empirical_failure_rate=Fraction(failures, trials),
        seed=master_seed,
        instance=instance_descriptor(inst),
    )


#: Trials times goods that each process must have to count for a split to
#: pay: a fork, the child's copy-on-write faults, its exit and its reap cost
#: 2-3 ms, and on 200-good rows (about 20 us a trial) a two-way split broke
#: even with one process at 300 to 400 trials (Python 3.11, 2-CPU Linux VM).
WORK_PER_PROCESS = 40_000


def _parts(trials: int, m: int) -> int:
    """How many processes count the trials: one per CPU this process may use,
    each with at least ``WORK_PER_PROCESS``, and 1 where ``os.fork`` is
    missing or another thread runs, since a fork copies only the calling one."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    threading = sys.modules.get("threading")  # not imported here: a check must not load it
    if threading is not None and threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), trials * m // WORK_PER_PROCESS, trials) or 1


def _count_in_parts(count, trials: int, parts: int) -> int:
    """``count(range(trials))``, split into ``parts`` contiguous ranges: this
    process counts the first, and a forked child counts each other range and
    writes its count to a pipe.  A range whose child could not start, failed
    or wrote nothing is counted here, so the sum never depends on the split.
    Every child is reaped before this returns, and killed first if a count
    here raises."""
    bounds = [trials * j // parts for j in range(parts + 1)]
    here, children = [range(bounds[1])], []  # children: (pid, read end, range)
    try:
        for part in map(range, bounds[1:], bounds[2:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                os.close(read)
                os.close(write)
                here.append(part)
                continue
            if pid == 0:  # the child leaves by os._exit, never into the caller's stack
                try:
                    os.write(write, b"%d" % count(part))
                finally:  # after a raise, with no count written
                    os._exit(0)
            os.close(write)
            children.append((pid, read, part))
        failures = sum(map(count, here))
        while children:
            pid, read, part = children[-1]
            written = b""
            while chunk := os.read(read, 64):
                written += chunk
            os.waitpid(pid, 0)
            children.pop()
            os.close(read)
            failures += int(written) if written else count(part)  # one write under PIPE_BUF: all or nothing
    except BaseException:
        import signal  # here, not at the top: start-up need not load it

        for pid, read, _ in children:
            # a raise can land between a reap and its pop: a reaped pid is skipped,
            # and an unreaped one cannot be reused, so the kill reaches this child
            with suppress(ChildProcessError):
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            os.close(read)
        raise
    return failures


def _owner_draw(n: int, m: int):
    """rng -> bytes([rng.randrange(n) for _ in range(m)]), as ``montecarlo_rand`` explains."""
    shift = 8 - n.bit_length()
    table, delete = bytes(b >> shift for b in range(256)), bytes(range(n << shift, 256))
    words = (m << 8 - shift) // n + m // 4 + 16  # with m // 4 + 16 to spare, one call nearly always

    def draw(rng: random.Random) -> bytes:
        owners = b""
        while len(owners) < m:
            owners += rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4].translate(table, delete)
        return owners[:m]
    return draw


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

#: The notion labels an impossibility row can carry.  The construction
#: reports every verdict whatever its label, so the label changes no cell
#: but ``notion``.
NOTIONS = ("ef1", "mms", "propx")

#: The keys a campaign row may carry.
ROW_KEYS = {"construction", "alpha", "n", "repetitions", "max_steps", "seed", "allocator", "notion"}

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


def campaign(items: Sequence[dict]) -> list[dict]:
    """Run adversary-versus-allocator pairings and tabulate the verdicts.

    Each item names a construction ("greedy1", "greedy2", "greedy3",
    "miv-impossibility") with its parameters; see the README for the exact
    schema.  Every item is parsed and checked before any runs, so a bad item
    fails the batch before it does any work.  One output row per repetition,
    with blank cells where a verdict does not apply (for example MMS when the
    instance exceeds the enumeration guard).
    """
    checked = []
    for k, item in enumerate(items, start=1):
        if not isinstance(item, dict) or "construction" not in item or "alpha" not in item:
            raise DomainError(f"campaign row {k} needs a 'construction' and an 'alpha'")
        try:  # every refusal names its row
            if unknown := sorted(item.keys() - ROW_KEYS):
                raise DomainError(f"unknown keys {unknown}")
            alpha = parse_rational(item["alpha"])
            n, repetitions, max_steps = (
                _integer(key, item.get(key, default))
                for key, default in (("n", 2), ("repetitions", 1), ("max_steps", adv.MAX_STEPS))
            )
            if repetitions < 0:
                raise DomainError("'repetitions' must not be negative")
            seed = None if item.get("seed") is None else _integer("seed", item["seed"])
            construction = item["construction"]
            allocator, _ = adv.check_construction(
                construction, n, alpha, max_steps=max_steps, allocator=item.get("allocator"), seed=seed
            )
            notion = item.get("notion")
            if construction != "miv-impossibility":
                if notion is not None:
                    raise DomainError(f"{construction} reports no fairness notion, got {_shown(notion)}")
            elif notion is None:
                notion = "ef1"
            elif notion not in NOTIONS:
                raise DomainError(f"unknown fairness notion {_shown(notion)}; choose from {NOTIONS}")
        except FairdivError as exc:
            raise type(exc)(f"campaign row {k}: {exc}") from None
        checked.append(((construction, allocator, notion, n, alpha, max_steps, seed), repetitions))
    return [_campaign_row(*row, rep) for row, repetitions in checked for rep in range(repetitions)]


def _integer(key: str, value) -> int:
    """A campaign row's integer field; ``2`` and ``"2"`` both read as 2."""
    try:
        return _as_int(parse_rational(value), key)
    except ParseError:
        raise ParseError(f"{key!r} must be an integer, got {_shown(value)}") from None


def _campaign_row(
    construction: str, allocator: str, notion: str | None, n: int, alpha: Fraction,
    max_steps: int, seed, rep: int,
) -> dict:
    row = {c: "" for c in CAMPAIGN_COLUMNS}
    row.update(
        construction=construction,
        allocator=allocator,
        n=str(n),
        alpha=format_rational(alpha),
        notion=notion or "",
        repetition=str(rep),
    )
    seed = None if seed is None else derive_trial_seed(seed, rep)
    try:
        result = adv.run_construction(
            construction, n, alpha, max_steps=max_steps, allocator=allocator, seed=seed
        )
    except InvariantError:
        row["assertions_passed"] = "false"
        return row
    ratio = result.achieved_ratio
    row.update(
        steps=str(result.trace.instance.m),
        prop1_ratio=format_rational(ratio),
        prop1_ratio_float=repr(float(ratio)),  # a ratio in [0, 1]: never past the float range
        assertions_passed="true",
    )
    row.update(
        (key, "" if value is None else ("true" if value else "false"))
        for key, value in result.verdicts.items()
    )
    return row


def campaign_csv(rows: Sequence[dict]) -> str:
    """The rows under a header, in csv's default dialect (CRLF line endings)."""
    import csv  # here, not at the top: only campaigns write CSV

    out = io.StringIO()
    csv.writer(out).writerows([CAMPAIGN_COLUMNS, *([row[c] for c in CAMPAIGN_COLUMNS] for row in rows)])
    return out.getvalue()
