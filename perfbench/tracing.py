"""Spans and counters around pinchcert's layers, installed from outside.

A :class:`Tracer` replaces selected functions and methods of the pinchcert
modules with wrappers for the duration of one operation and puts the
originals back afterwards; no pinchcert source changes.  A module-level
function is replaced in every pinchcert namespace that holds it, because
``param_search`` and ``report_cli`` import several exact-layer functions by
name.  Each wrapper records a span (name, start, end, parent); hot methods
(polynomial evaluation and product, harmonic evaluation) only bump a
counter.  Self time is a span's duration minus the time of its child spans
and of the tracer's own bookkeeping after each child returns.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from pinchcert import calabi_lab as cl
from pinchcert import exact_poly as ep
from pinchcert import param_search as ps
from pinchcert import pinching_bounds as pb
from pinchcert import report_cli as rc
from pinchcert import shrinker_bridge as sb

MODULES = (ep, pb, ps, cl, sb, rc)

ROOT_SPAN = "bench.op"


class Tracer:
    """In-memory spans, counts and maxima for one traced run."""

    def __init__(self):
        # (span id, parent id, op id, name, start ns, end ns, self ns)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [span id, child ns]
        self._patches: list[tuple] = []
        self._op_id = -1

    # -- recording ----------------------------------------------------

    def _open(self) -> tuple[list, int]:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans) + len(self._stack), 0]
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, name, start, end, done) -> None:
        """End a span; ``done`` is when the tracer's own work for it ended."""
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += done - start
        self.spans.append(
            (frame[0], parent, self._op_id, name, start, end, end - start - frame[1])
        )

    def _error(self, name: str, err: BaseException) -> None:
        # count each exception once, at the innermost layer it left
        if getattr(err, "_bench_counted", False):
            return
        try:
            err._bench_counted = True
        except AttributeError:
            pass
        self.counts[name.split(".")[0] + ".errors"] += 1

    def wrap_span(self, name, fn, after=None):
        """``fn`` recorded as a span; ``after`` may rename it from the result."""
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame, parent = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                end = clock()
                self._close(frame, parent, name, start, end, end)
                self._error(name, err)
                raise
            end = clock()
            label = name
            if after is not None:
                label = after(self, args, result) or name
            self._close(frame, parent, label, start, end, clock())
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, key, fn, after=None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            if after is not None:
                after(self, args)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def step(self, name: str):
        """A span around a block of the benchmark's own code."""
        clock = time.perf_counter_ns
        frame, parent = self._open()
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self._close(frame, parent, name, start, end, end)

    @contextmanager
    def op(self, op_id: int):
        """Install the wrappers and open the root span of one operation."""
        self._op_id = op_id
        self.install()
        try:
            with self.step(ROOT_SPAN):
                yield
        finally:
            self.uninstall()

    # -- patching -----------------------------------------------------

    def _patch_function(self, module, attr, wrapper_for) -> None:
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _patch_method(self, cls, attr, wrapper_for) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper_for(original))

    def install(self) -> None:
        for owner, attr, name, after in SPAN_TARGETS:
            def make(fn, name=name, after=after):
                return self.wrap_span(name, fn, after)
            if isinstance(owner, type):
                self._patch_method(owner, attr, make)
            else:
                self._patch_function(owner, attr, make)
        for cls, attr, key, after in COUNT_TARGETS:
            self._patch_method(
                cls, attr, lambda fn, key=key, after=after: self.wrap_count(key, fn, after)
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class NullTracer:
    """Stand-in for untraced runs: ops and steps are no-op context managers."""

    @contextmanager
    def op(self, op_id: int):
        yield

    @contextmanager
    def step(self, name: str):
        yield


# ---------------------------------------------------------------------------
# hooks that derive counts from arguments and results
# ---------------------------------------------------------------------------


def _coeff_bits(tracer, args, chain):
    bits = max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length())
         for q in chain for c in q.coeffs),
        default=0,
    )
    key = "exact_poly.max_coeff_bits"
    tracer.maxima[key] = max(tracer.maxima[key], bits)


def _halvings(in_width, out_width) -> int:
    if in_width <= 0 or out_width <= 0:
        return 0
    return round(math.log2(in_width / out_width))


def _isolate_steps(tracer, args, result):
    tracer.counts["exact_poly.bisection_steps"] += _halvings(args[1].width, result[0].width)


def _smallest_root_steps(tracer, args, result):
    tracer.counts["exact_poly.bisection_steps"] += _halvings(args[2] - args[1], result[0].width)


def _probe(tracer, args, result):
    tracer.counts["param_search.probes"] += 1
    if result.degenerate:
        tracer.counts["param_search.probes_degenerate"] += 1
        return "param_search.probe_degenerate"
    return "param_search.probe_useful"


def _scan_samples(tracer, args, scan):
    tracer.counts["calabi_lab.samples"] += scan.n_samples


def _residual_ratio(tracer, args, identity_report):
    key = "calabi_lab.max_residual_over_tol"
    for row in identity_report.residuals:
        if not row.absent:
            tracer.maxima[key] = max(tracer.maxima[key], row.max_residual / row.tolerance)


def _report_certificates(tracer, args, report):
    tracer.counts["report_cli.certificates"] += len(report.certificates)


def _report_bytes(tracer, args, text):
    tracer.counts["report_cli.report_bytes"] += len(text.encode())


def _harmonic_points(tracer, args):
    tracer.counts["calabi_lab.harmonic_points"] += math.prod(np.shape(args[1])[:-1])


# (owner, attribute, span name, hook); a class owner means a method
SPAN_TARGETS = (
    (ep, "sturm_sequence", "exact_poly.sturm", _coeff_bits),
    (ep, "count_roots", "exact_poly.count_roots", None),
    (ep, "_count_evidence", "exact_poly.count_evidence", None),
    (ps._RootCounter, "count", "exact_poly.root_counter", None),
    (ep, "isolate_root", "exact_poly.isolate", _isolate_steps),
    (ps, "_isolate_smallest_root", "exact_poly.isolate", _smallest_root_steps),
    (ep, "certify_sign_on_interval", "exact_poly.sign_cert", None),
    (ep.SignCertificate, "replay", "exact_poly.replay", None),
    (pb, "theta1", "pinching_bounds.build", None),
    (pb, "theta2", "pinching_bounds.build", None),
    (pb, "gap_numerator", "pinching_bounds.build", None),
    (pb, "gap_denominator", "pinching_bounds.build", None),
    (pb, "gap_derivative_numerator", "pinching_bounds.build", None),
    (pb, "gap_lower_bound", "pinching_bounds.gap", None),
    (pb, "smax_threshold", "pinching_bounds.gap", None),
    (pb, "legacy_gap_bound", "pinching_bounds.gap", None),
    (pb, "weight_sup_over_s", "pinching_bounds.weight_sup", None),
    (ps, "left_threshold", "param_search.probe", _probe),
    (ps, "right_threshold", "param_search.probe", _probe),
    (ps, "optimize", "param_search.optimize", None),
    (ps, "replay_threshold", "param_search.replay_threshold", None),
    (cl, "geometry_scan", "calabi_lab.scan", _scan_samples),
    (cl, "fundamental_forms", "calabi_lab.fundamental_forms", None),
    (cl, "covariant_derivative_h", "calabi_lab.covariant", None),
    (cl, "verify_identities", "calabi_lab.verify", _residual_ratio),
    (rc, "cmd_certify", "report_cli.cmd", _report_certificates),
    (rc, "cmd_optimize", "report_cli.cmd", _report_certificates),
    (rc, "cmd_lab", "report_cli.cmd", _report_certificates),
    (rc, "cmd_classify", "report_cli.cmd", _report_certificates),
    (rc.CertificationReport, "to_json_str", "report_cli.serialize", _report_bytes),
    (rc.CertificationReport, "render_markdown", "report_cli.serialize", None),
    (rc.CertificationReport, "replay_certificates", "report_cli.replay", None),
    (sb, "classify", "shrinker_bridge.classify", None),
)

# (class, method, counter, hook); counters only, no span
COUNT_TARGETS = (
    (ep.Polynomial, "__call__", "exact_poly.evals", None),
    (ep.Polynomial, "__mul__", "exact_poly.poly_muls", None),
    (ep.Polynomial, "__rmul__", "exact_poly.poly_muls", None),
    (cl.Immersion, "evaluate", "calabi_lab.harmonic_calls", _harmonic_points),
)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

COUNT = "count/op"
SECONDS = "s/op"

#: (metric, unit, how it is computed); see perfbench/README.md for the
#: end-to-end metric each one should move
LAYER_METRICS = (
    ("exact_poly.evals", COUNT, ("count", "exact_poly.evals")),
    ("exact_poly.poly_muls", COUNT, ("count", "exact_poly.poly_muls")),
    ("exact_poly.sturm_chains", COUNT, ("calls", "exact_poly.sturm")),
    ("exact_poly.sturm_s", SECONDS, ("self", "exact_poly.sturm")),
    ("exact_poly.count_roots_calls", COUNT, ("calls", "exact_poly.count_roots")),
    ("exact_poly.count_roots_s", SECONDS,
     ("self", "exact_poly.count_roots", "exact_poly.count_evidence", "exact_poly.root_counter")),
    ("exact_poly.isolate_calls", COUNT, ("calls", "exact_poly.isolate")),
    ("exact_poly.isolate_s", SECONDS, ("self", "exact_poly.isolate")),
    ("exact_poly.bisection_steps", COUNT, ("count", "exact_poly.bisection_steps")),
    ("exact_poly.sign_cert_calls", COUNT, ("calls", "exact_poly.sign_cert")),
    ("exact_poly.sign_cert_s", SECONDS, ("self", "exact_poly.sign_cert")),
    ("exact_poly.replays", COUNT, ("calls", "exact_poly.replay")),
    ("exact_poly.replay_s", SECONDS, ("self", "exact_poly.replay")),
    ("exact_poly.max_coeff_bits", "bits", ("max", "exact_poly.max_coeff_bits")),
    ("exact_poly.errors", COUNT, ("count", "exact_poly.errors")),
    ("pinching_bounds.poly_builds", COUNT, ("calls", "pinching_bounds.build")),
    ("pinching_bounds.build_s", SECONDS, ("self", "pinching_bounds.build")),
    ("pinching_bounds.gap_evals", COUNT, ("calls", "pinching_bounds.gap")),
    ("pinching_bounds.gap_s", SECONDS, ("self", "pinching_bounds.gap")),
    ("pinching_bounds.weight_sup_calls", COUNT, ("calls", "pinching_bounds.weight_sup")),
    ("pinching_bounds.weight_sup_s", SECONDS, ("self", "pinching_bounds.weight_sup")),
    ("param_search.probes", COUNT, ("count", "param_search.probes")),
    ("param_search.probes_degenerate", COUNT, ("count", "param_search.probes_degenerate")),
    ("param_search.useful_ratio", "ratio", ("useful_ratio",)),
    ("param_search.probe_degenerate_s", SECONDS, ("self", "param_search.probe_degenerate")),
    ("param_search.probe_useful_s", SECONDS, ("self", "param_search.probe_useful")),
    ("param_search.optimize_self_s", SECONDS, ("self", "param_search.optimize")),
    ("param_search.replay_threshold_s", SECONDS, ("self", "param_search.replay_threshold")),
    ("param_search.errors", COUNT, ("count", "param_search.errors")),
    ("calabi_lab.samples", COUNT, ("count", "calabi_lab.samples")),
    ("calabi_lab.scan_s", SECONDS, ("total", "calabi_lab.scan")),
    ("calabi_lab.fundamental_forms_calls", COUNT, ("calls", "calabi_lab.fundamental_forms")),
    ("calabi_lab.fundamental_forms_s", SECONDS, ("self", "calabi_lab.fundamental_forms")),
    ("calabi_lab.covariant_calls", COUNT, ("calls", "calabi_lab.covariant")),
    ("calabi_lab.covariant_s", SECONDS, ("self", "calabi_lab.covariant")),
    ("calabi_lab.scan_other_s", SECONDS, ("self", "calabi_lab.scan")),
    ("calabi_lab.harmonic_calls", COUNT, ("count", "calabi_lab.harmonic_calls")),
    ("calabi_lab.harmonic_points", COUNT, ("count", "calabi_lab.harmonic_points")),
    ("calabi_lab.verify_s", SECONDS, ("self", "calabi_lab.verify")),
    ("calabi_lab.max_residual_over_tol", "ratio", ("max", "calabi_lab.max_residual_over_tol")),
    ("report_cli.cmd_self_s", SECONDS, ("self", "report_cli.cmd")),
    ("report_cli.serialize_s", SECONDS, ("self", "report_cli.serialize")),
    ("report_cli.replay_s", SECONDS, ("self", "report_cli.replay")),
    ("report_cli.report_bytes", COUNT, ("count", "report_cli.report_bytes")),
    ("report_cli.certificates", COUNT, ("count", "report_cli.certificates")),
    ("shrinker_bridge.classify_calls", COUNT, ("calls", "shrinker_bridge.classify")),
    ("shrinker_bridge.classify_s", SECONDS, ("self", "shrinker_bridge.classify")),
)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Every layer metric as (value, unit); counts and times are per op."""
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    total_ns: Counter = Counter()
    for _, _, _, name, start, end, own in tracer.spans:
        calls[name] += 1
        self_ns[name] += own
        total_ns[name] += end - start

    out = {}
    for metric, unit, (kind, *keys) in LAYER_METRICS:
        if kind == "count":
            value = tracer.counts[keys[0]] / n_ops
        elif kind == "calls":
            value = calls[keys[0]] / n_ops
        elif kind == "self":
            value = sum(self_ns[k] for k in keys) / 1e9 / n_ops
        elif kind == "total":
            value = total_ns[keys[0]] / 1e9 / n_ops
        elif kind == "max":
            value = tracer.maxima[keys[0]]
        else:  # useful_ratio
            probes = tracer.counts["param_search.probes"]
            useful = probes - tracer.counts["param_search.probes_degenerate"]
            value = useful / probes if probes else 0.0
        out[metric] = (value, unit)
    return out


def write_spans(tracer: Tracer, path) -> None:
    """Spans as CSV: id, parent, op, name, start_ns, end_ns, self_ns."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,op,name,start_ns,end_ns,self_ns\n")
        for span in tracer.spans:
            fh.write(",".join(str(v) for v in span) + "\n")
