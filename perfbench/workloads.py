"""The three benchmark workloads: seeded operations and their checks.

Each workload turns a seed into a fixed cycle of operations.  The timed
loop repeats the cycle, so every operation of a run is one of the cycle's;
the `sweep` and `lab` cycles are about as long as a run, because their ops
differ in cost with their inputs and a run should draw many distinct ones.
A traced pass over the first ``TRACED_OPS`` ops does the same work on
every run with that seed.  An operation returns what its check needs; the check runs
outside the timed region and compares against :mod:`oracles`, never
against pinchcert itself.  :class:`Runner` is the single closed-loop client
that runs, times and checks the operations.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from pinchcert import param_search as ps
from pinchcert import report_cli as rc
from pinchcert import shrinker_bridge as sb
from pinchcert.exact_poly import IntervalQ, SignCertificate

import oracles

F = Fraction

#: operations per cycle
CERTIFY_CYCLE = 20
SWEEP_LEFT_T_PER_OP = 4      # 25 ops cover the 100 default t values once
SWEEP_RIGHT_T_PER_OP = 20    # 5 ops cover them once
LAB_DEGREES = (2, 3, 4, 5, 6)
SWEEP_PASSES = 4             # default sweeps per cycle, each cut anew
LAB_DRAWS = 20               # sample seeds per degree in one cycle

#: ops at the head of the cycle that a traced pass runs
TRACED_OPS = {"certify": CERTIFY_CYCLE, "sweep": 25, "lab": len(LAB_DEGREES)}

CLASSIFY_QUERIES_PER_OP = 64
LAB_SAMPLES = 100
LAB_STEP = 1e-3

DEFAULT_T = tuple(range(1, 101))                    # t = k/200
DEFAULT_W = ps.default_config("left").w_grid        # 101 points


@dataclass
class Outcome:
    """What one operation produced, for the check after it."""

    reports: list = field(default_factory=list)     # CertificationReport
    replays_ok: bool = True
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    """One seeded operation: ``run(tracer)`` is timed, ``check`` is not."""

    label: str
    run: Callable[..., Outcome]   # takes the tracer
    check: Callable[[Outcome], list[str]]


def _reload(report) -> dict:
    return json.loads(report.to_json_str())


def _replay_all(data: dict) -> bool:
    return all(
        SignCertificate.from_json(entry["certificate"]).replay()
        for entry in data["certificates"]
    )


def _interval(data: dict, label: str) -> tuple[Fraction, Fraction]:
    for entry in data["enclosures"]:
        if entry["label"] == label:
            lo, hi = entry["interval"]
            return F(lo), F(hi)
    raise KeyError(f"report has no enclosure {label!r}")


def _report_problems(report) -> list[str]:
    if report.all_passed:
        return []
    return [f"{report.command}: failing checks {report.failing()}"]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _certify_op(queries) -> Op:
    def run(tracer) -> Outcome:
        report = rc.cmd_certify()
        report.render_markdown()
        with tracer.step("report_cli.replay"):
            data = _reload(report)
            replays_ok = _replay_all(data)
        verdicts = []
        for (lo, hi, nonvanishing, parallel), _ in queries:
            data_in = sb.ShrinkerPinchData(lo, hi, nonvanishing, parallel)
            verdicts.append(sb.classify(data_in).verdict)
        return Outcome(reports=[report], replays_ok=replays_ok,
                       extra={"json": data, "verdicts": verdicts})

    def check(out: Outcome) -> list[str]:
        problems = _report_problems(out.reports[0])
        if not out.replays_ok:
            problems.append("certify: a reloaded certificate failed replay")
        data = out.extra["json"]
        lo, hi = _interval(data, "theta1-root")
        b_lo, b_hi = oracles.THETA1_BRACKET
        if not b_lo < lo <= hi < b_hi:
            problems.append(f"certify: theta1 enclosure [{lo}, {hi}] leaves (1.7075, 1.7076)")
        lo, hi = _interval(data, "theta2-root")
        b_lo, b_hi = oracles.THETA2_QUARTER_BRACKET
        if not b_lo < lo <= hi < b_hi:
            problems.append(f"certify: theta2 enclosure [{lo}, {hi}] leaves (1.7852, 1.7853)")
        for (query, want), got in zip(queries, out.extra["verdicts"]):
            if got != want:
                problems.append(f"classify{query}: got {got}, expected {want}")
        return problems

    return Op("certify", run, check)


def certify_cycle(seed: int) -> list[Op]:
    rng = random.Random(f"certify/{seed}")
    return [
        _certify_op(oracles.classify_queries(rng, CLASSIFY_QUERIES_PER_OP))
        for _ in range(CERTIFY_CYCLE)
    ]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _threshold_from_json(data: dict) -> ps.ThresholdEnclosure:
    def opt(q):
        return None if q is None else F(q)

    return ps.ThresholdEnclosure(
        side=data["side"],
        t=F(data["t"]),
        w=F(data["w"]),
        enclosure=IntervalQ.from_json(data["enclosure"]),
        certificate=SignCertificate.from_json(data["certificate"]),
        degenerate=data["degenerate"],
        support=tuple(SignCertificate.from_json(c) for c in data["support"]),
        phi_lo=opt(data["phi_lo"]),
        phi_hi=opt(data["phi_hi"]),
    )


def _sweep_request(tracer, side: str, config: ps.SweepConfig):
    report = rc.cmd_optimize(side, config)
    with tracer.step("report_cli.replay"):
        data = _reload(report)
        best = _threshold_from_json(data["inputs"]["optimum"]["best"])
        replays_ok = ps.replay_threshold(best) and _replay_all(data)
    return report, data, replays_ok


def _check_left(data: dict, config: ps.SweepConfig) -> list[str]:
    optimum = data["inputs"]["optimum"]
    lo = float(F(optimum["threshold"][0]))
    hi = float(F(optimum["threshold"][1]))
    grid_best = oracles.left_grid_optimum(config.t_grid, config.w_grid)
    problems = []
    if lo < grid_best - oracles.ENCLOSURE_SLACK:
        problems.append(f"left sweep: threshold {lo} weaker than grid optimum {grid_best}")
    at_best = oracles.left_thresholds([F(optimum["best_t"])], [F(optimum["best_w"])])[0]
    if not lo - oracles.FLOAT_SLACK <= at_best <= hi + oracles.FLOAT_SLACK:
        problems.append(f"left sweep: enclosure [{lo}, {hi}] misses {at_best}")
    return problems


def _check_right(data: dict, config: ps.SweepConfig) -> list[str]:
    optimum = data["inputs"]["optimum"]
    lo = float(F(optimum["threshold"][0]))
    hi = float(F(optimum["threshold"][1]))
    grid_best = oracles.right_grid_optimum(config.t_grid)
    problems = []
    if hi > grid_best + oracles.ENCLOSURE_SLACK:
        problems.append(f"right sweep: threshold {hi} weaker than grid optimum {grid_best}")
    at_best = oracles.right_threshold(F(optimum["best_t"]))
    if not lo - oracles.FLOAT_SLACK <= at_best <= hi + oracles.FLOAT_SLACK:
        problems.append(f"right sweep: enclosure [{lo}, {hi}] misses {at_best}")
    return problems


def _sweep_op(left_ks, right_ks) -> Op:
    left = ps.SweepConfig(
        t_grid=tuple(F(k, 200) for k in left_ks), w_grid=DEFAULT_W,
        refinement_rounds=1,
    )
    right = ps.SweepConfig(
        t_grid=tuple(F(k, 200) for k in right_ks), w_grid=(oracles.DOMAIN_HI,),
        refinement_rounds=2,
    )

    def run(tracer) -> Outcome:
        l_report, l_data, l_ok = _sweep_request(tracer, "left", left)
        r_report, r_data, r_ok = _sweep_request(tracer, "right", right)
        return Outcome(reports=[l_report, r_report], replays_ok=l_ok and r_ok,
                       extra={"left": l_data, "right": r_data})

    def check(out: Outcome) -> list[str]:
        problems = []
        for report in out.reports:
            problems += _report_problems(report)
        if not out.replays_ok:
            problems.append("sweep: threshold or certificate replay failed")
        problems += _check_left(out.extra["left"], left)
        problems += _check_right(out.extra["right"], right)
        return problems

    return Op(f"sweep left t={list(left_ks)}", run, check)


def sweep_cycle(seed: int) -> list[Op]:
    """The default left and right sweeps, each cut into 25 ops, SWEEP_PASSES times.

    Every pass cuts the 100 default t values by a fresh seeded permutation,
    so one pass is the traffic of the two default sweeps.  An op's cost
    depends on which t values it gets (from about 0.6 to 1.2 times the
    typical op), so a cycle of several passes keeps a run's median and
    tail from hanging on one seed's 25 subsets.
    """
    rng = random.Random(f"sweep/{seed}")
    n_left = len(DEFAULT_T) // SWEEP_LEFT_T_PER_OP
    n_right = len(DEFAULT_T) // SWEEP_RIGHT_T_PER_OP
    ops = []
    for _ in range(SWEEP_PASSES):
        left_perm = list(DEFAULT_T)
        rng.shuffle(left_perm)
        right_perm = list(DEFAULT_T)
        rng.shuffle(right_perm)
        for i in range(n_left):
            left_ks = sorted(left_perm[i * SWEEP_LEFT_T_PER_OP:(i + 1) * SWEEP_LEFT_T_PER_OP])
            j = i % n_right
            right_ks = sorted(right_perm[j * SWEEP_RIGHT_T_PER_OP:(j + 1) * SWEEP_RIGHT_T_PER_OP])
            ops.append(_sweep_op(left_ks, right_ks))
    return ops


# ---------------------------------------------------------------------------
# lab
# ---------------------------------------------------------------------------


def _lab_op(s: int, sample_seed: int) -> Op:
    def run(tracer) -> Outcome:
        return Outcome(reports=[rc.cmd_lab(s, LAB_SAMPLES, sample_seed, LAB_STEP)])

    def check(out: Outcome) -> list[str]:
        report = out.reports[0]
        problems = _report_problems(report)
        stats = report.scans[0]["summary"]["S"]
        want = oracles.calabi_S(s)
        for key in ("min", "max"):
            got = float(stats[key])
            if abs(got - want) > oracles.LAB_S_TOLERANCE:
                problems.append(f"lab s={s}: S {key} {got} differs from {want}")
        return problems

    return Op(f"lab s={s} seed={sample_seed}", run, check)


def lab_cycle(seed: int) -> list[Op]:
    """Degrees 2..6 in turn, each with LAB_DRAWS sample seeds per cycle.

    The median op is one of degree 4, so a run's median rests on a fifth
    of its ops; distinct sample seeds keep those from being a few repeated
    draws.  The degrees stay interleaved, so a run that ends mid-cycle
    still has each degree in equal share.
    """
    rng = random.Random(f"lab/{seed}")
    return [_lab_op(s, rng.randrange(2**31))
            for _ in range(LAB_DRAWS) for s in LAB_DEGREES]


CYCLES = {"certify": certify_cycle, "sweep": sweep_cycle, "lab": lab_cycle}


def report_digest(outcome: Outcome) -> str:
    """sha256 over the op's reports with ``wall_time_ms`` stripped."""
    h = hashlib.sha256()
    for report in outcome.reports:
        h.update(report.to_json_str(strip_wall_time=True).encode())
    return h.hexdigest()


class Runner:
    """Runs ops from the cycle, times them and checks every result."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}

    def run(self, index: int, tracer) -> float:
        """Op ``index`` of the repeated cycle; returns its latency in seconds.

        The check and the report digest run after the timed region, and
        outside the tracer's op, so they add to no metric.
        """
        op = self.ops[index % len(self.ops)]
        self.attempted += 1
        try:
            with tracer.op(index):
                started = time.perf_counter()
                outcome = op.run(tracer)
                elapsed = time.perf_counter() - started
            problems = op.check(outcome)
            if index < len(self.ops):
                self.digests.setdefault(index, report_digest(outcome))
        except Exception:  # the loop must go on; the failure is counted and shown
            traceback.print_exc()
            self.failed += 1
            return math.nan
        if problems:
            self.failed += 1
            print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in sorted(self.digests):
            h.update(self.digests[i].encode())
        return h.hexdigest()
