"""Command-line front end: certification suites, sweeps, scans, classification.

Every subcommand produces a :class:`CertificationReport` whose JSON form
contains each certificate verbatim, once, in its top-level ``certificates``
list (tables cite them by label), so a report can be re-verified offline
by replaying that list.  The markdown summary is rendered from the
same structures, never from side channels.

Exit codes: 0 all certified / in tolerance, 1 certification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import MAX_SAMPLES, REPORT_SCHEMA, FrameDegeneracyError, __version__
from . import param_search as ps
from . import pinching_bounds as pb
from . import shrinker_bridge as sb
from .exact_poly import (
    ExactPolyError,
    IntervalQ,
    Polynomial,
    SignCertificate,
    _ratio_str,
    certify_sign_on_interval,
    count_roots,
    isolate_counted_root,
    rat,
    rat_str,
    sign_at,
)

F = Fraction

EXIT_OK = 0
EXIT_CERTIFICATION_FAILURE = 1
EXIT_USAGE = 2

_INFINITY = float("inf")

#: the decimal brackets :func:`cmd_certify` checks θ1's and θ2(1/4)'s roots
#: against, parsed once
_THETA1_BRACKET = (rat("1.7075"), rat("1.7076"))
_THETA2_BRACKET = (rat("1.7852"), rat("1.7853"))


def _json_scalar(value) -> str:
    """JSON text of a leaf other than a string, as :mod:`json` writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(value, pad: str, out: list[str]) -> None:
    """Append the JSON text of ``value``, nested at indent ``pad``, to ``out``.

    A plain recursive function, not a closure, so a call leaves no
    reference cycle behind for the garbage collector.  A container writes
    its entries of exact type ``str`` itself, without a call; a subclass of
    ``str`` takes the ``isinstance`` path, as in json.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        lead = "{\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(lead)
            lead = sep
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            item = value[key]
            if type(item) is str:
                out.append(encode_basestring_ascii(item))
            else:
                _write_json(item, inner, out)
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        lead = "[\n" + inner
        for item in value:
            out.append(lead)
            lead = sep
            if type(item) is str:
                out.append(encode_basestring_ascii(item))
            else:
                _write_json(item, inner, out)
        out.append("\n" + pad + "]")
    else:
        out.append(_json_scalar(value))


def json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    With an indent, :mod:`json` leaves its C encoder for a pure-Python one
    built of nested closures, which is about twice as slow and leaves
    reference cycles behind on every call.  This writer escapes strings
    with json's C ``encode_basestring_ascii`` and writes numbers, ``null``
    and the booleans exactly as json does.  Unlike json it takes only
    string keys, raising ``TypeError`` on any other; a self-containing
    value raises ``RecursionError`` instead of json's ``ValueError``.
    """
    out: list[str] = []
    _write_json(value, "", out)
    return "".join(out)


@dataclass
class Check:
    """One named pass/fail fact with its exact evidence values."""

    label: str
    passed: bool
    details: dict


@dataclass
class CertificationReport:
    command: str
    inputs: dict
    checks: list[Check] = field(default_factory=list)
    certificates: list[dict] = field(default_factory=list)   # {label, certificate}
    enclosures: list[dict] = field(default_factory=list)     # {label, interval}
    scans: list[dict] = field(default_factory=list)
    verdicts: list[dict] = field(default_factory=list)
    wall_time_ms: int = 0
    toolkit_version: str = __version__
    schema: str = REPORT_SCHEMA

    def add_certificate(self, label: str, cert: SignCertificate) -> None:
        self.certificates.append({"label": label, "certificate": cert.to_json()})

    def add_enclosure(self, label: str, interval: IntervalQ) -> None:
        self.enclosures.append({"label": label, "interval": interval.to_json()})

    def add_check(self, label: str, passed: bool, **details) -> None:
        self.checks.append(Check(label=label, passed=bool(passed), details=details))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list[str]:
        return [c.label for c in self.checks if not c.passed]

    def replay_certificates(self) -> bool:
        return all(
            SignCertificate.from_json(entry["certificate"]).replay()
            for entry in self.certificates
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "toolkit_version": self.toolkit_version,
            "command": self.command,
            "inputs": self.inputs,
            "checks": [
                {"label": c.label, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
            "certificates": self.certificates,
            "enclosures": self.enclosures,
            "scans": self.scans,
            "verdicts": self.verdicts,
            "wall_time_ms": self.wall_time_ms,
        }

    def to_json_str(self, strip_wall_time: bool = False) -> str:
        data = self.to_json_dict()
        if strip_wall_time:
            data.pop("wall_time_ms")
        return json_text(data)

    def render_markdown(self) -> str:
        lines = [
            f"# pinchcert report: {self.command}",
            "",
            f"- schema: `{self.schema}`, toolkit {self.toolkit_version}",
            f"- result: **{'all certified' if self.all_passed else 'FAILED: ' + ', '.join(self.failing())}**",
            "",
        ]
        if self.checks:
            lines += ["| check | status | details |", "|---|---|---|"]
            for c in self.checks:
                detail = "; ".join(f"{k}={v}" for k, v in sorted(c.details.items()))
                lines.append(f"| {c.label} | {'pass' if c.passed else 'FAIL'} | {detail} |")
            lines.append("")
        if self.enclosures:
            lines += ["| enclosure | lo | hi | lo (approx) | hi (approx) |", "|---|---|---|---|---|"]
            for e in self.enclosures:
                lo, hi = e["interval"]
                lines.append(
                    f"| {e['label']} | {lo} | {hi} | "
                    f"{float(rat(lo)):.12g} | {float(rat(hi)):.12g} |"
                )
            lines.append("")
        for scan in self.scans:
            lines.append(f"## scan: {scan.get('label', '')}")
            lines.append("```")
            lines.append(scan.get("table", ""))
            lines.append("```")
            lines.append("")
        for verdict in self.verdicts:
            lines.append(
                f"- verdict: **{verdict['verdict']}** "
                f"(case {verdict.get('theorem_case')}), {verdict.get('model')}"
            )
        lines.append(f"- certificates embedded: {len(self.certificates)}")
        return "\n".join(lines)


def _approx(q: Fraction) -> str:
    return f"{float(q):.12g}"


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def cmd_certify() -> CertificationReport:
    """The fixed certification suite for every constant the toolkit asserts.

    Every check is exact.  ``smax-threshold-identity`` compares
    smax_numerator() with N + x*D as polynomials, so with D > 0
    (``gap-denominator-positive``) it proves smax(w) = w + gap(w) at every w
    in [5/3, 9/5].  Each embedded certificate is replayed once, from its
    JSON form.
    """
    report = CertificationReport(command="certify", inputs={})
    domain = pb.PINCH_DOMAIN

    # (name, certificate cubic, extra check details, decimal bracket, sign
    # of the cubic at the bracket's lower end)
    thresholds = (
        ("theta1", pb.theta1(), {}, _THETA1_BRACKET, -1),
        ("theta2", pb.theta2(F(1, 4)), {"t": "1/4"}, _THETA2_BRACKET, 1),
    )
    enclosures = []
    for name, p, details, (a, b), lower_sign in thresholds:
        n, cert_n = count_roots(p, domain)
        report.add_certificate(f"{name}-root-count", cert_n)
        report.add_check(f"{name}-unique-root", n == 1, count=n, **details)

        enc, cert_e = isolate_counted_root(cert_n, ps.DEFAULT_ISOLATION_WIDTH)
        report.add_certificate(f"{name}-enclosure", cert_e)
        report.add_enclosure(f"{name}-root", enc)
        report.add_check(
            f"{name}-bracket",
            sign_at(p, a) == lower_sign == -sign_at(p, b) and a < enc.lo and enc.hi < b,
            value_at_lower=rat_str(p(a)),
            value_at_upper=rat_str(p(b)),
            enclosure_lo=rat_str(enc.lo),
            enclosure_hi=rat_str(enc.hi),
        )
        enclosures.append(enc)
    enc1, enc2 = enclosures

    monotone_cert = certify_sign_on_interval(
        pb.gap_derivative_numerator(), domain, "negative"
    )
    report.add_certificate("gap-bound-decreasing", monotone_cert)
    report.add_certificate("legacy-radicand-positive", pb.legacy_radicand_certificate())
    report.add_certificate("gap-denominator-positive", pb.denominator_positive_certificate())
    # every certificate is embedded now: each replays once, from its JSON
    # form, for both gap-bound-decreasing and certificate-replay
    replayed = {
        entry["label"]: SignCertificate.from_json(entry["certificate"]).replay()
        for entry in report.certificates
    }
    report.add_check("gap-bound-decreasing", replayed["gap-bound-decreasing"],
                     claim="N'D - ND' < 0 on [5/3, 9/5]")

    y = pb.gap_lower_bound(F(17853, 10000))
    report.add_check(
        "gap-at-17853",
        y > F(4565, 10**6) > F(1, 220),
        value=rat_str(y),
        exceeds="4565/1000000",
        oscillation_bound="1/220",
    )

    legacy_beaten = []
    for k in range(1, 10):
        w = F(125 + k, 75)  # 5/3 + (k/10)(2/15)
        legacy_beaten.append(pb.compare_legacy_to_new(w) == -1)
    report.add_check(
        "legacy-bound-dominated-9pts", all(legacy_beaten),
        points=9, stronger_at=sum(legacy_beaten),
    )

    smax = pb.smax_numerator()
    n_plus_xd = pb.gap_numerator() + Polynomial.x() * pb.gap_denominator()
    report.add_check(
        "smax-threshold-identity", smax == n_plus_xd,
        smax_numerator=smax.to_json(),
        n_plus_x_times_d=n_plus_xd.to_json(),
        requires="D > 0 on [5/3, 9/5], by gap-denominator-positive",
    )

    scale_ok = (
        4 * sb.LOWER_THRESHOLD_SHRINKER == _THETA1_BRACKET[0]
        and 4 * sb.UPPER_THRESHOLD_SHRINKER == _THETA2_BRACKET[1]
        and 4 * sb.OSCILLATION_SHRINKER == sb.OSCILLATION_SPHERICAL
    )
    report.add_check(
        "shrinker-scale-consistency", scale_ok,
        lower="4 * 683/1600 = 1.7075", upper="4 * 17853/40000 = 1.7853",
        oscillation="4 * 1/880 = 1/220",
    )

    report.add_check("certificate-replay", all(replayed.values()),
                     certificates=len(report.certificates))

    # (name, cited certificate labels, root enclosure, parameters in sorted
    # order, conclusion); each row cites its certificates by label
    rows = (
        ("lower endpoint rigidity", ("theta1-root-count", "theta1-enclosure"), enc1,
         (("t", "1/2"), ("w", "5/3")),
         "pinching 5/3 <= S <= 1.7075 forces S == 5/3 (curvature 1/6)"),
        ("interior oscillation bound", ("gap-bound-decreasing",), None, (),
         "S_max - S_min >= gap_lower_bound(S_min) > 1/220 up to 1.7853"),
        ("upper endpoint rigidity", ("theta2-root-count", "theta2-enclosure"), enc2,
         (("t", "1/4"), ("w", "9/5")),
         "pinching 1.7853 <= S <= 9/5 forces S == 9/5 (curvature 1/10)"),
    )
    lines = ["| threshold | parameters | enclosure | conclusion |", "|---|---|---|---|"]
    reports = []
    for name, labels, enc, params, conclusion in rows:
        ends = None if enc is None else enc.to_json()
        shown = "-" if enc is None else (f"[{ends[0]}, {ends[1]}] ~ [{float(enc.lo):.6f}, "
                                         f"{float(enc.hi):.6f}] (approx)")
        lines.append(f"| {name} | {', '.join(f'{k}={v}' for k, v in params) or '-'} | "
                     f"{shown} | {conclusion} |")
        reports.append({"name": name, "certificates": list(labels), "root_enclosure": ends,
                        "parameters": dict(params), "conclusion": conclusion})
    report.scans.append({"label": "certified pinching thresholds",
                         "table": "\n".join(lines), "reports": reports})
    return report


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def _load_config(side: str, path: str | None) -> ps.SweepConfig:
    if path is None:
        return ps.default_config(side)
    with open(path, "r", encoding="utf-8") as fh:
        return ps.SweepConfig.from_json(json.load(fh))


def cmd_optimize(side: str, config: ps.SweepConfig) -> CertificationReport:
    report = CertificationReport(
        command=f"optimize --side {side}", inputs={"config": config.to_json()}
    )
    optimum = ps.optimize(side, config)
    report.add_enclosure("best-threshold", optimum.threshold)
    best = optimum.best
    for label, cert in zip(ps.certificate_labels(best), (best.certificate, *best.support)):
        report.add_certificate(label, cert)
    report.scans.append(
        {
            "label": f"sweep table ({side})",
            "table": "\n".join(
                f"t={rat_str(t)} w={rat_str(w)} lo={_ratio_str(lo, den)} "
                f"hi={_ratio_str(hi, den)}" + (" degenerate" if deg else "")
                for (t, w, lo, hi, den, deg) in optimum.table
            ),
        }
    )
    report.verdicts.append(
        {
            "verdict": "optimum",
            "theorem_case": side,
            "model": f"t = {rat_str(optimum.best_t)}, w = {rat_str(optimum.best_w)}, "
                     f"threshold ~ [{_approx(optimum.threshold.lo)}, "
                     f"{_approx(optimum.threshold.hi)}]",
        }
    )
    report.inputs["optimum"] = optimum.to_json()
    # the embedded certificates are exactly the best enclosure's certificate
    # and support, so one replay of each serves both checks
    replayed = report.replay_certificates()
    report.add_check(
        "threshold-replay", replayed and ps.enclosure_holds(optimum.best),
        best_t=rat_str(optimum.best_t), best_w=rat_str(optimum.best_w),
        degenerate_rows=optimum.degenerate_count,
    )
    report.add_check("certificate-replay", replayed,
                     certificates=len(report.certificates))
    return report


# ---------------------------------------------------------------------------
# lab
# ---------------------------------------------------------------------------


def cmd_lab(s: int, n_samples: int, seed: int, step: float | None = None,
            csv_path: str | None = None) -> CertificationReport:
    """Scan the degree-s immersion at n_samples seeded points, with |grad h|^2,
    and check the identities.

    ``step`` is unused: the lab differentiates exactly and takes no step.
    It stays the fourth positional parameter because the benchmark
    harness passes one there.  The lab, and with it numpy, is imported
    here, so the other commands never load it.
    """
    from . import calabi_lab as cl

    imm = cl.build_calabi_immersion(s)
    scan = cl.geometry_scan(imm, n_samples, seed)
    report = CertificationReport(
        command=f"lab --s {imm.s}",
        inputs={"s": imm.s, "samples": scan.n_samples, "seed": scan.seed},
    )
    identity_report = cl.verify_identities(scan)
    report.scans.append(
        {
            "label": f"calabi degree {s}",
            "summary": scan.summary(),
            "identities": identity_report.to_json(),
            "table": identity_report.render_table(),
        }
    )
    for row in identity_report.residuals:
        report.add_check(
            f"identity-{row.name}",
            row.passed,
            max_residual=repr(row.max_residual),
            tolerance=repr(row.tolerance),
            absent=row.absent,
        )
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            scan.write_csv(fh)
    return report


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def cmd_classify(data: sb.ShrinkerPinchData) -> CertificationReport:
    report = CertificationReport(command="classify", inputs=data.to_json())
    classification = sb.classify(data)
    report.verdicts.append(classification.to_json())
    report.add_check(
        "classification-total", classification.verdict in sb.VERDICTS,
        verdict=classification.verdict,
        theorem_case=classification.theorem_case,
    )
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Refuses argv with a ``ValueError``, which :func:`main` reports as a
    one-line usage error, where argparse would print its usage text and
    exit; subparsers are made of this class too."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pinchcert",
        description="certified pinching thresholds for minimal surfaces in "
                    "spheres, and the self-shrinker rigidity classifier",
    )
    parser.add_argument("--json", metavar="PATH", help="write the JSON report here")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("certify", help="run the fixed certification suite")

    p_opt = sub.add_parser("optimize", help="sweep the free certificate parameters")
    p_opt.add_argument("--side", choices=("left", "right"), required=True)
    p_opt.add_argument("--config", metavar="PATH", default=None,
                       help="JSON sweep configuration (defaults to the built-in grids)")

    p_lab = sub.add_parser("lab", help="sample a harmonic immersion and verify identities")
    p_lab.add_argument("--s", type=int, required=True, help="harmonic degree (1..6)")
    p_lab.add_argument("--samples", type=int, default=500,
                       help=f"sample count (1..{MAX_SAMPLES})")
    p_lab.add_argument("--seed", type=int, default=0)
    p_lab.add_argument("--csv", metavar="PATH", default=None,
                       help="write the per-sample scan table here")

    p_cls = sub.add_parser("classify", help="apply the rigidity case table")
    p_cls.add_argument("--input", metavar="PATH", default=None,
                       help="JSON file with the pinching data")
    p_cls.add_argument("--min", dest="a_min", default=None,
                       help="lower bound for |A_ring|^2 without --input, e.g. 5/12 or 0.45")
    p_cls.add_argument("--max", dest="a_max", default=None, help="upper bound without --input")
    # default None: given with --input, these would be silently overridden
    p_cls.add_argument("--h-nonvanishing", action=argparse.BooleanOptionalAction,
                       default=None, help="without --input; default on")
    p_cls.add_argument("--h-parallel", action=argparse.BooleanOptionalAction,
                       default=None, help="without --input; default on")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        started = time.perf_counter()
        if args.subcommand == "certify":
            report = cmd_certify()
        elif args.subcommand == "optimize":
            config = _load_config(args.side, args.config)
            report = cmd_optimize(args.side, config)
        elif args.subcommand == "lab":
            report = cmd_lab(args.s, args.samples, args.seed, csv_path=args.csv)
        elif args.subcommand == "classify":
            if args.input is not None:
                for flag, value, key in (
                    ("min", args.a_min, "a_circ_min"),
                    ("max", args.a_max, "a_circ_max"),
                    ("h-nonvanishing", args.h_nonvanishing, "mean_curvature_nonvanishing"),
                    ("h-parallel", args.h_parallel, "normalized_H_parallel"),
                ):
                    if value is not None:
                        raise ValueError(f"--{'no-' if value is False else ''}{flag} cannot be "
                                         f"combined with --input; set {key} in the file")
                with open(args.input, "r", encoding="utf-8") as fh:
                    data = sb.ShrinkerPinchData.from_json(json.load(fh))
            elif args.a_min is not None and args.a_max is not None:
                data = sb.ShrinkerPinchData(
                    a_circ_min=rat(args.a_min),
                    a_circ_max=rat(args.a_max),
                    mean_curvature_nonvanishing=args.h_nonvanishing is not False,
                    normalized_H_parallel=args.h_parallel is not False,
                )
            else:
                raise ValueError("classify needs --input or both --min and --max")
            report = cmd_classify(data)
        else:  # pragma: no cover - argparse enforces the choices
            return EXIT_USAGE
    # RecursionError: json.load of an input nested too deeply
    except (OSError, json.JSONDecodeError, RecursionError, ValueError, TypeError,
            KeyError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (FrameDegeneracyError, ExactPolyError) as err:
        print(f"certification failure: {args.subcommand}: {err}", file=sys.stderr)
        return EXIT_CERTIFICATION_FAILURE

    report.wall_time_ms = int((time.perf_counter() - started) * 1000)
    print(report.render_markdown())
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report.to_json_str())
                fh.write("\n")
        except OSError as err:
            print(f"usage error: {err}", file=sys.stderr)
            return EXIT_USAGE
    if not report.all_passed:
        print(f"certification failure: {', '.join(report.failing())}", file=sys.stderr)
        return EXIT_CERTIFICATION_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
