"""Reports stay byte-identical across rewrites of the exact layer.

``golden_reports.json`` pins each report twice.  Its ``pinchcert-report/2``
block holds the sha256 of the bytes written today, where each certificate
and the sweep table appear once.  The five digests at its top level pin the
same reports in the ``pinchcert-report/1`` layout, which repeated them:
:func:`reinflate` copies each repeated fact back from where ``/2`` keeps
it, and the result must hash to the old digest, so no fact was lost.

The first three ``/1`` digests in ``golden_reports.json`` were taken from the
Fraction-only exact core, before evaluation and Sturm counting moved to
integers; the two ``optimize-left-*`` sweeps after them were taken before
left sweeps stopped evaluating the provably degenerate w > 5/3 probes.
The ``certify`` digest was retaken once, when its sampled
``smax-threshold-identity-100`` check became the exact polynomial identity
``smax-threshold-identity``; every other byte of that report was unchanged.
Every report byte except ``wall_time_ms`` is part of the reproducibility
contract, so a faster core or sweep must reproduce them exactly.

``thresholds-per-t`` pins the certified thresholds themselves, one per
default t: one sha256 over the JSON of ``right_threshold(k/200)`` for
k = 1..99 and of ``left_threshold(k/200, 5/3)`` for k = 1..100, taken before
polynomials were born from their integer forms.  ``right_threshold(1/2)``
is left out: its certificate moved to the nudged domain when ``count_roots``
stopped labelling a closed interval with a root on an end ``no-root``.

Seven digests were retaken when a left enclosure came to rest on its two
quotients g = p / (x - 5/3) alone: ``/1`` and ``/2`` of
``optimize-left-default``, ``optimize-left-4t`` and
``optimize-left-half-edges``, and ``thresholds-per-t``.  Each branch's
sliver certificate of g and no-root count of p became one negative
certificate of g on [5/3, x], and the winner's exactly-one-root certificate
moved from p to g.  With the certificates, ``inputs.optimum.best``'s
certificate and support and the ``certificate-replay`` count set aside,
those reports were byte-identical to the ones before, and every
``right_threshold(k/200)`` was unchanged.

Every ``optimize`` and ``thresholds-per-t`` digest was retaken once more
when each live enclosure of a sweep came to rest on one strict sign claim,
with no exactly-one-root or root-count certificate left in its report: a
right enclosure's certificate became θ2(t) negative on [enclosure.hi, 9/5],
with no support; a left enclosure's became the winning quotient's negative
certificate on [5/3, enclosure.lo], with the other quotient's as its
support; and every ``optimize`` certificate took a label naming its role.
``certificates-stripped`` holds the digests of the reports and of
``thresholds-per-t`` with :func:`strip_certificates` applied, taken before
that change and reproduced after it: every enclosure, table row, phi
value, verdict and other check stayed byte-identical.  ``certify`` still counts θ1's and θ2(1/4)'s roots
on the domain, so its digests stand.

The ``/2`` and ``/1`` digests of ``optimize-left-4t``,
``optimize-left-default`` and ``optimize-left-half-edges``, and
``thresholds-per-t``, were retaken once more when one claim table came to
decide every certificate of an enclosure from the enclosure alone: a live
left enclosure's support, the sup-at-5/3 quotient's negative certificate,
moved from [5/3, x], x the lower end of that quotient's own cell, to
exactly [5/3, enclosure.lo], and its two certificates took the branches'
fixed order, sup-at-x first, where sup-at-5/3's root came first.  The
``certificates-stripped`` digests pass unchanged, and so do the right and
``certify`` digests.

The three digests of ``optimize-left-all-degenerate``, a left sweep whose
w grid lacked 5/3, left this file when left sweeps came to refuse such a
grid: that report can no longer be produced.  No other digest moved.

The ``classify`` block pins one ``classify`` report per outcome of the case
table, taken while ``classify`` still decided by integer cross-multiplication
against the scaled table, before it read each bound as a breakpoint code and
looked the decision up.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from pinchcert import param_search as ps
from pinchcert import report_cli as rc
from pinchcert import shrinker_bridge as sb

GOLDEN = json.loads((Path(__file__).with_name("golden_reports.json")).read_text())

# 4 t values against the full 101-point left w grid, one refinement round:
# mostly degenerate probes plus useful ones near the optimum t ~ 0.496
LEFT_T = (Fraction(1, 200), Fraction(47, 200), Fraction(99, 200), Fraction(100, 200))


def _digest(report) -> str:
    return hashlib.sha256(report.to_json_str(strip_wall_time=True).encode()).hexdigest()


def _table_row(line: str) -> dict:
    """One row of ``inputs.optimum.table`` in ``/1``, from its line in the
    sweep scan's text: ``t=.. w=.. lo=.. hi=..``, then ``degenerate`` or nothing."""
    words = line.split()
    row = dict(word.split("=") for word in words[:4])
    row["degenerate"] = words[4:] == ["degenerate"]
    return row


def reinflate(data: dict) -> dict:
    """The ``pinchcert-report/1`` layout of a ``/2`` report's JSON, in place.

    Each label of a certify table row becomes its certificate from the
    top-level list, ``inputs.optimum`` gets back ``certificate`` (its
    ``best.certificate``) and ``table`` (parsed from ``scans[0].table``).
    """
    by_label = {entry["label"]: entry["certificate"] for entry in data["certificates"]}
    for scan in data["scans"]:
        for row in scan.get("reports", []):
            row["certificates"] = [by_label[label] for label in row["certificates"]]
    optimum = data["inputs"].get("optimum")
    if optimum is not None:
        optimum["certificate"] = optimum["best"]["certificate"]
        optimum["table"] = [_table_row(line) for line in data["scans"][0]["table"].splitlines()]
    data["schema"] = "pinchcert-report/1"
    return data


def strip_certificates(data: dict) -> dict:
    """A report's JSON without its certificates, in place: the top-level
    ``certificates``, ``inputs.optimum.best``'s certificate and support, the
    labels a certify table row cites, the ``*-unique-root`` checks and the
    ``certificate-replay`` count."""
    data.pop("certificates")
    optimum = data["inputs"].get("optimum")
    if optimum is not None:
        del optimum["best"]["certificate"], optimum["best"]["support"]
    for scan in data["scans"]:
        for row in scan.get("reports", []):
            del row["certificates"]
    data["checks"] = [check for check in data["checks"]
                      if not check["label"].endswith("-unique-root")]
    for check in data["checks"]:
        if check["label"] == "certificate-replay":
            del check["details"]["certificates"]
    return data


def _left_config() -> ps.SweepConfig:
    return ps.SweepConfig(
        t_grid=LEFT_T, w_grid=ps.default_config("left").w_grid, refinement_rounds=1
    )


# both ends of the w axis at t = 1/2; w refinement probes the gap between them
HALF_EDGES = ps.SweepConfig(
    t_grid=(Fraction(1, 2),), w_grid=(Fraction(5, 3), Fraction(9, 5)), refinement_rounds=3
)


REPORTS = pytest.mark.parametrize(
    "name, build",
    [
        ("certify", rc.cmd_certify),
        ("optimize-right-default",
         lambda: rc.cmd_optimize("right", ps.default_config("right"))),
        ("optimize-left-4t", lambda: rc.cmd_optimize("left", _left_config())),
        ("optimize-left-default",
         lambda: rc.cmd_optimize("left", ps.default_config("left"))),
        ("optimize-left-half-edges", lambda: rc.cmd_optimize("left", HALF_EDGES)),
    ],
)


@REPORTS
def test_report_bytes_match_golden_digest(name, build):
    assert _digest(build()) == GOLDEN["pinchcert-report/2"][name]


@REPORTS
def test_reinflated_report_matches_its_report_1_digest(name, build):
    data = json.loads(build().to_json_str(strip_wall_time=True))
    text = rc.json_text(reinflate(data))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


@REPORTS
def test_report_without_its_certificates_matches_its_stripped_digest(name, build):
    data = json.loads(build().to_json_str(strip_wall_time=True))
    text = rc.json_text(strip_certificates(data))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN["certificates-stripped"][name]


def _thresholds_per_t() -> list[dict]:
    thresholds = [ps.right_threshold(Fraction(k, 200)) for k in range(1, 100)]
    thresholds += [ps.left_threshold(Fraction(k, 200), Fraction(5, 3)) for k in range(1, 101)]
    return [th.to_json() for th in thresholds]


def _sha256_of_each(values) -> str:
    h = hashlib.sha256()
    for value in values:
        h.update(json.dumps(value, sort_keys=True).encode())
    return h.hexdigest()


def test_per_threshold_bytes_match_golden_digest():
    assert _sha256_of_each(_thresholds_per_t()) == GOLDEN["thresholds-per-t"]


def test_per_threshold_bytes_without_certificates_match_the_stripped_digest():
    thresholds = _thresholds_per_t()
    for th in thresholds:
        del th["certificate"], th["support"]
    assert _sha256_of_each(thresholds) == GOLDEN["certificates-stripped"]["thresholds-per-t"]


# (lo, hi, mean curvature nonvanishing, normalized H parallel): each model,
# the oscillation case at exactly 1/880, both constants admissible, no case,
# an excluded constant, and a failed hypothesis
CLASSIFY_INPUTS = {
    "round-sphere": (0, 0, True, True),
    "veronese": (Fraction(1, 3), Fraction(2, 5), True, True),
    "calabi-s3": (Fraction(5, 12), Fraction(5, 12), True, True),
    "calabi-s4": (Fraction(9, 20), Fraction(9, 20), True, True),
    "oscillation-1-880": (Fraction(5, 12), Fraction(5, 12) + Fraction(1, 880), True, True),
    "inconclusive-two-models": (0, Fraction(1, 3), True, True),
    "inconclusive-no-case": (0, Fraction(9, 20), True, True),
    "inconclusive-excluded-constant": (Fraction(43, 100), Fraction(43, 100) + Fraction(1, 880),
                                       True, True),
    "hypotheses-not-met": (Fraction(5, 12), Fraction(5, 12), True, False),
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_INPUTS))
def test_classify_report_bytes_match_golden_digest(name):
    report = rc.cmd_classify(sb.ShrinkerPinchData(*CLASSIFY_INPUTS[name]))
    assert sorted(CLASSIFY_INPUTS) == sorted(GOLDEN["classify"])
    assert _digest(report) == GOLDEN["classify"][name]
