"""Tests for the command-line front end and report schema."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchcert import calabi_lab as cl
from pinchcert import exact_poly as ep
from pinchcert import pinching_bounds as pb
from pinchcert import report_cli as rc
from pinchcert import param_search as ps
from pinchcert import shrinker_bridge as sb
from pinchcert.exact_poly import ExactPolyError, SignCertificate, rat, rat_str
from pinchcert.shrinker_bridge import ShrinkerPinchData


def small_config_file(tmp_path, rounds=0):
    cfg = ps.SweepConfig(
        t_grid=(rat("1/8"), rat("1/4"), rat("1/2")),
        w_grid=(rat("9/5"),),
        refinement_rounds=rounds,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json()))
    return path


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_all_checks_pass():
    report = rc.cmd_certify()
    assert report.all_passed, report.failing()
    assert report.replay_certificates()


def test_certify_report_is_deterministic():
    a = rc.cmd_certify().to_json_str(strip_wall_time=True)
    b = rc.cmd_certify().to_json_str(strip_wall_time=True)
    assert a == b


def test_certify_markdown_claims_are_backed_by_json():
    report = rc.cmd_certify()
    md = report.render_markdown()
    data = report.to_json_dict()
    blob = json.dumps(data)
    for entry in data["enclosures"]:
        lo, hi = entry["interval"]
        assert lo in md and hi in md
        assert lo in blob and hi in blob
    # every pass/fail line in the table corresponds to a check entry
    for check in data["checks"]:
        assert f"| {check['label']} |" in md


def test_certify_certificates_replay_after_json_round_trip():
    report = rc.cmd_certify()
    data = json.loads(report.to_json_str())
    for entry in data["certificates"]:
        cert = SignCertificate.from_json(entry["certificate"])
        assert cert.replay(), entry["label"]


def test_certify_bytes_equal_with_cold_and_warm_polynomial_caches():
    # the constant polynomials are shared across calls: a run that builds
    # them and a run that reuses them must write the same report
    for cached in vars(pb).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    cold = rc.cmd_certify().to_json_str(strip_wall_time=True)
    warm = rc.cmd_certify().to_json_str(strip_wall_time=True)
    assert cold == warm


CERTIFY_CHECKS = [
    "theta1-unique-root", "theta1-bracket", "theta2-unique-root", "theta2-bracket",
    "gap-bound-decreasing", "gap-at-17853", "legacy-bound-dominated-9pts",
    "smax-threshold-identity", "shrinker-scale-consistency", "certificate-replay",
]
CERTIFY_CERTIFICATES = [
    "theta1-root-count", "theta1-enclosure", "theta2-root-count", "theta2-enclosure",
    "gap-bound-decreasing", "legacy-radicand-positive", "gap-denominator-positive",
]


def test_certify_layout():
    data = rc.cmd_certify().to_json_dict()
    assert [c["label"] for c in data["checks"]] == CERTIFY_CHECKS
    assert [c["label"] for c in data["certificates"]] == CERTIFY_CERTIFICATES


def _certificates_in(value, path=()):
    """(path, certificate) for every certificate anywhere in a report's JSON."""
    if isinstance(value, dict):
        if {"polynomial", "interval", "claim", "evidence"} <= value.keys():
            yield path, value
            return
        for key, item in value.items():
            yield from _certificates_in(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _certificates_in(item, path + (i,))


def test_certify_writes_each_certificate_once_and_tables_cite_labels():
    data = json.loads(rc.cmd_certify().to_json_str())
    labels = [entry["label"] for entry in data["certificates"]]
    assert len(set(labels)) == len(labels)
    cited = [label for scan in data["scans"] for row in scan.get("reports", [])
             for label in row["certificates"]]
    assert cited and all(labels.count(label) == 1 for label in cited)
    # certificate-replay covers every certificate the report contains
    found = list(_certificates_in(data))
    assert [path[0] for path, _ in found] == ["certificates"] * len(labels)
    (check,) = [c for c in data["checks"] if c["label"] == "certificate-replay"]
    assert check["passed"] and check["details"]["certificates"] == len(found)


def test_certify_threshold_table_json_and_markdown():
    # one row per part of the theorem, written by certify itself: the
    # formulas module holds no report code
    data = json.loads(rc.cmd_certify().to_json_str())
    (scan,) = data["scans"]
    rows = scan["reports"]
    lines = scan["table"].splitlines()
    assert len(rows) == len(lines) - 2 == 3
    labels = {entry["label"] for entry in data["certificates"]}
    assert all(label in labels for row in rows for label in row["certificates"])
    cells = [[cell.strip() for cell in line.split("|")[1:-1]] for line in lines[2:]]
    enclosures = {entry["label"]: entry["interval"] for entry in data["enclosures"]}
    lower, interior, upper = zip(rows, cells)
    assert interior[0]["parameters"] == {} and interior[0]["root_enclosure"] is None
    assert interior[1][1:3] == ["-", "-"]
    for (row, (name, params, shown, _)), label, want in (
            (lower, "theta1-root", "t=1/2, w=5/3"), (upper, "theta2-root", "t=1/4, w=9/5")):
        lo, hi = row["root_enclosure"]
        assert [lo, hi] == enclosures[label]
        assert name == row["name"] and params == want and shown.startswith(f"[{lo}, {hi}] ~ ")
    assert not hasattr(pb, "ThresholdReport") and not hasattr(pb, "render_markdown_table")


def test_a_warm_certify_reads_p_at_no_count_certificates_end(monkeypatch):
    # each isolation takes its ends' signs from its count certificate's
    # claim; the one read left is the gap-derivative certificate's midpoint
    # witness, where both isolations once read θ1 and θ2(1/4) at both ends
    rc.cmd_certify()
    reads = []
    real = ep.sign_at
    monkeypatch.setattr(ep, "sign_at", lambda p, x: reads.append((p, x)) or real(p, x))
    assert rc.cmd_certify().all_passed
    assert reads == [(pb.gap_derivative_numerator(), rat("26/15"))]


@pytest.mark.parametrize("side", ["left", "right"])
def test_optimize_repeats_only_the_winners_certificates_under_best(side):
    data = json.loads(rc.cmd_optimize(side, SIDE_CONFIGS[side]).to_json_str())
    optimum = data["inputs"]["optimum"]
    assert "certificate" not in optimum and "table" not in optimum
    top = [entry["certificate"] for entry in data["certificates"]]
    copies = [cert for path, cert in _certificates_in(data) if path[0] != "certificates"]
    assert copies == top


def test_certify_replays_each_embedded_certificate_once(monkeypatch):
    calls = []
    real = SignCertificate.replay
    monkeypatch.setattr(SignCertificate, "replay", lambda self: calls.append(self) or real(self))
    report = rc.cmd_certify()
    assert report.failing() == []
    assert len(calls) == len(report.certificates)


def test_smax_identity_is_rederived_from_the_reloaded_report():
    data = json.loads(rc.cmd_certify().to_json_str())
    (check,) = [c for c in data["checks"] if c["label"] == "smax-threshold-identity"]
    details = check["details"]
    lhs, rhs = (ep.Polynomial.from_json(details[k]) for k in ("smax_numerator", "n_plus_x_times_d"))
    assert check["passed"] and lhs == rhs
    assert details["smax_numerator"] == details["n_plus_x_times_d"] == pb.smax_numerator().to_json()
    assert "gap-denominator-positive" in details["requires"]


def test_certify_fails_the_smax_identity_for_a_perturbed_numerator(monkeypatch, capsys):
    perturbed = pb.smax_numerator() + ep.Polynomial([0, 0, 0, rat("1/1000000")])
    monkeypatch.setattr(pb, "smax_numerator", lambda: perturbed)
    assert rc.cmd_certify().failing() == ["smax-threshold-identity"]
    assert rc.main(["certify"]) == rc.EXIT_CERTIFICATION_FAILURE
    assert "smax-threshold-identity" in capsys.readouterr().err


def test_each_sturm_chain_is_built_once():
    # chains are memoized by integer form, so a chain is built on a cache
    # miss alone: a certify from an empty cache builds one per distinct
    # polynomial it counts on, its replays and those of the certificates
    # read back from JSON build none, nor does a warm certify, and a right
    # probe builds one for its θ2
    ep._sturm_ints.cache_clear()
    report = rc.cmd_certify()
    assert len(report.certificates) == 7
    assert ep._sturm_ints.cache_info().misses == 5
    assert report.replay_certificates()
    rc.cmd_certify()
    assert ep._sturm_ints.cache_info().misses == 5
    ps.right_threshold(rat("3/10"))
    assert ep._sturm_ints.cache_info().misses == 6


def _replays(path) -> bool:
    """README's replay recipe on the report at ``path``."""
    report = json.loads(path.read_text())
    return all(SignCertificate.from_json(entry["certificate"]).replay()
               for entry in report["certificates"])


@pytest.mark.parametrize("decoy", [False, True], ids=["warm", "decoy cached first"])
def test_a_flipped_variation_count_fails_with_a_warm_chain_cache(tmp_path, decoy):
    # one process writes the report and replays it, so every chain a replay
    # of the forged report needs is cached; so is a decoy's, if asked
    ep._sturm_ints.cache_clear()
    if decoy:
        ep.Polynomial((1, 0, 1))._sturm()
    path = tmp_path / "out.json"
    assert rc.main(["--json", str(path), "certify"]) == rc.EXIT_OK
    assert _replays(path)
    warm = ep._sturm_ints.cache_info().misses
    report = json.loads(path.read_text())
    report["certificates"][0]["certificate"]["evidence"]["variations_lo"] += 1
    path.write_text(json.dumps(report))
    assert not _replays(path)
    assert ep._sturm_ints.cache_info().misses == warm  # no chain built afresh


SIDE_CONFIGS = {
    "left": ps.SweepConfig(t_grid=(rat("1/8"), rat("1/4")), w_grid=(rat("5/3"),)),
    "right": ps.SweepConfig(t_grid=(rat("1/8"), rat("1/4")), w_grid=(rat("9/5"),)),
}


@pytest.mark.parametrize("side, t, w, roles", [
    ("left", "1/4", "5/3", {"sup-at-x-quotient-negative": "sign-constant-negative",
                            "sup-at-5/3-quotient-negative": "sign-constant-negative"}),
    ("right", "1/4", "9/5", {"theta2-negative-above-enclosure": "sign-constant-negative"}),
    ("left", "1/4", "17/10", {}),
    ("right", "1/2", "9/5", {}),
])
def test_optimize_labels_each_certificate_by_its_one_role(side, t, w, roles):
    # every enclosure rests on strict sign claims alone, and no root count
    config = ps.SweepConfig(t_grid=(rat(t),), w_grid=(rat(w),))
    if not roles:
        # a left sweep without w = 5/3, and a right sweep of t = 1/2 alone,
        # whose one probe is degenerate, are refused: nothing to label
        refusal = (r"w = 5/3, which w_grid \[17/10\] lacks" if side == "left"
                   else r"refuses a t grid of 1/2 alone")
        with pytest.raises(ValueError, match=refusal):
            rc.cmd_optimize(side, config)
        return
    data = json.loads(rc.cmd_optimize(side, config).to_json_str())
    entries = [(entry["label"], entry["certificate"]["claim"]) for entry in data["certificates"]]
    assert entries == list(roles.items())
    # the certificates built are the claim table's rows, in order, and their
    # labels are the rows' labels; each row's interval is the one it states
    th = ps.left_threshold(rat(t), rat(w)) if side == "left" else ps.right_threshold(rat(t))
    claims = ps._claims(th)
    assert [(c.polynomial, c.claim, c.interval) for c in (th.certificate, *th.support)] == [
        (p, claim, interval) for _, p, claim, interval in claims]
    assert ps.certificate_labels(th) == [label for label, _, _, _ in claims] == list(roles)
    lo, hi = th.enclosure.lo, th.enclosure.hi
    intervals = {
        "sup-at-x-quotient-negative": (rat("5/3"), lo),
        "sup-at-5/3-quotient-negative": (rat("5/3"), lo),
        "theta2-negative-above-enclosure": (hi, rat("9/5")),
    }
    assert [(row.lo, row.hi) for _, _, _, row in claims] == [intervals[role] for role in roles]


@pytest.mark.parametrize("side", ["left", "right"])
def test_optimize_replays_each_embedded_certificate_once(monkeypatch, side):
    calls = []
    real = SignCertificate.replay
    monkeypatch.setattr(SignCertificate, "replay", lambda self: calls.append(self) or real(self))
    report = rc.cmd_optimize(side, SIDE_CONFIGS[side])
    assert report.failing() == []
    assert len(calls) == len(report.certificates) == {"left": 2, "right": 1}[side]


#: [5/3, enclosure.lo] of both quotients' sign certificates at t = 1/4, the
#: left sweep's winner's
LEFT_SUPPORT = ps.left_threshold(rat("1/4"), rat("5/3")).support[0].interval
#: [hi, 9/5] of θ2(1/4)'s sign certificate, the right sweep's winner's one
RIGHT_CERTIFICATE = ps.right_threshold(rat("1/4")).certificate.interval


@pytest.mark.parametrize("side, interval", [("left", LEFT_SUPPORT), ("right", RIGHT_CERTIFICATE)])
def test_one_failing_embedded_certificate_fails_both_replay_checks(monkeypatch, side, interval):
    # the winner's last certificate fails, the one on ``interval``: the
    # sup-at-5/3 quotient's on the left, which shares that interval with
    # sup-at-x's, θ2's above the enclosure on the right
    best = ps.optimize(side, SIDE_CONFIGS[side]).best
    failing = (best.certificate, *best.support)[-1]
    assert failing.interval == interval
    real = SignCertificate.replay
    monkeypatch.setattr(SignCertificate, "replay", lambda self: self != failing and real(self))
    report = rc.cmd_optimize(side, SIDE_CONFIGS[side])
    assert sum(entry["certificate"] == failing.to_json() for entry in report.certificates) == 1
    assert report.failing() == ["threshold-replay", "certificate-replay"]


# unmutated, these replay True: see the round-trip test above
@lru_cache(maxsize=None)
def _reloaded_certify_certificates() -> tuple[dict, ...]:
    data = json.loads(rc.cmd_certify().to_json_str())
    return tuple(entry["certificate"] for entry in data["certificates"])


MUTATIONS = ("rational", "non-canonical", "shift", "swap", "int", "float", "none")


def _mutate(data, evidence: dict) -> dict:
    kind = data.draw(st.sampled_from(MUTATIONS), label="kind")
    if kind == "swap":
        evidence["lo"], evidence["hi"] = evidence["hi"], evidence["lo"]
        return evidence
    if kind == "shift":
        key = data.draw(st.sampled_from(["variations_lo", "variations_hi", "root_count"]),
                        label="key")
        evidence[key] += data.draw(st.integers(-3, 3).filter(bool), label="shift")
        return evidence
    key = data.draw(st.sampled_from(sorted(evidence)), label="key")
    old = evidence[key]
    if kind == "rational":
        new = data.draw(
            st.fractions(min_value=-4, max_value=4, max_denominator=10**6)
            .map(rat_str).filter(lambda q: q != old),
            label="rational",
        )
    elif kind == "non-canonical":
        # the same value spelled another way: a common factor, or an int
        # count written as a string
        if isinstance(old, int):
            new = str(old)
        else:
            k = data.draw(st.integers(2, 9), label="factor")
            q = rat(old)
            new = f"{q.numerator * k}/{q.denominator * k}"
    elif kind == "int":
        new = data.draw(st.integers(-5, 5).filter(lambda n: n != old), label="int")
    elif kind == "float":
        # the field's own value as a float compares equal to an int count
        same = float(old if isinstance(old, int) else rat(old))
        new = data.draw(st.one_of(st.just(same), st.floats()), label="float")
    else:
        new = None
    evidence[key] = new
    return evidence


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_replay_rejects_mutated_certify_evidence_without_raising(data):
    entry = data.draw(st.sampled_from(_reloaded_certify_certificates()), label="certificate")
    cert = SignCertificate.from_json(entry)
    evidence = _mutate(data, dict(cert.evidence))
    assert replace(cert, evidence=evidence).replay() is False


def test_certify_exit_code_via_main(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = rc.main(["--json", str(out), "certify"])
    assert code == rc.EXIT_OK
    captured = capsys.readouterr()
    assert "all certified" in captured.out
    payload = json.loads(out.read_text())
    assert payload["schema"] == "pinchcert-report/2"
    assert payload["command"] == "certify"
    assert isinstance(payload["wall_time_ms"], int)


def test_unwritable_json_path_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    code = rc.main(["--json", str(out), "classify", "--min", "1/3", "--max", "1/3"])
    assert code == rc.EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_cli_with_config(tmp_path, capsys):
    cfg_path = small_config_file(tmp_path)
    out = tmp_path / "opt.json"
    code = rc.main(["--json", str(out), "optimize", "--side", "right",
                    "--config", str(cfg_path)])
    assert code == rc.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["inputs"]["config"]["t_grid"] == ["1/8", "1/4", "1/2"]
    [enc] = payload["enclosures"]
    assert rat(enc["interval"][1]) <= rat("1.7853")


def test_optimize_singleton_grid_matches_library_call(tmp_path):
    cfg = ps.SweepConfig(t_grid=(rat("1/4"),), w_grid=(rat("9/5"),))
    path = tmp_path / "single.json"
    path.write_text(json.dumps(cfg.to_json()))
    report = rc.cmd_optimize("right", ps.SweepConfig.from_json(json.loads(path.read_text())))
    direct = ps.right_threshold(rat("1/4"), cfg.isolation_width)
    assert report.inputs["optimum"]["best"] == direct.to_json()


def test_optimize_malformed_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = rc.main(["optimize", "--side", "right", "--config", str(bad)])
    assert code == rc.EXIT_USAGE
    bad.write_text(json.dumps({"t_grid": ["3/4"], "w_grid": ["9/5"]}))
    code = rc.main(["optimize", "--side", "right", "--config", str(bad)])
    assert code == rc.EXIT_USAGE


def test_a_right_w_grid_beside_9_5_is_a_usage_error_naming_the_grid(tmp_path, capsys):
    # the right sweep probes 9/5 alone: another w was once ignored, and
    # the report echoed the grid beside best_w 9/5
    path = tmp_path / "right-w.json"
    path.write_text(json.dumps({"t_grid": ["1/4"], "w_grid": ["5/3", "7/4"]}))
    code = rc.main(["optimize", "--side", "right", "--config", str(path)])
    assert code == rc.EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "usage error: a right sweep probes w = 9/5 alone, got w_grid [5/3, 7/4]"]
    path.write_text(json.dumps({"t_grid": ["1/4"], "w_grid": ["9/5", "9/5"]}))
    assert rc.main(["optimize", "--side", "right", "--config", str(path)]) == rc.EXIT_OK


def test_a_right_t_grid_of_one_half_alone_is_a_usage_error(tmp_path, capsys):
    # θ2(1/2)'s one root is the domain's end 9/5, so its probe is the
    # degenerate [9/5, 9/5], which nothing certifies; beside a live t, 1/2
    # stays a grid value, and its row is written as before
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"t_grid": ["1/2"], "w_grid": ["9/5"]}))
    code = rc.main(["optimize", "--side", "right", "--config", str(path)])
    assert code == rc.EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "usage error: a right sweep refuses a t grid of 1/2 alone: theta2(1/2)'s one root is 9/5"]
    report = rc.cmd_optimize("right", ps.SweepConfig(t_grid=(rat("1/8"), rat("1/2")),
                                                     w_grid=(rat("9/5"),)))
    data = json.loads(report.to_json_str())
    assert data["scans"][0]["table"] == (
        "t=1/8 w=9/5 lo=1171739/655360 hi=1757609/983040\n"
        "t=1/2 w=9/5 lo=9/5 hi=9/5 degenerate")
    assert report.failing() == []
    assert data["checks"][0]["details"] == {"best_t": "1/8", "best_w": "9/5",
                                            "degenerate_rows": 1}


def test_a_left_w_grid_without_5_3_is_a_usage_error_naming_the_grid(tmp_path, capsys):
    # a left probe runs at 5/3 alone: a grid without it once certified a
    # degenerate winner at the edge
    path = tmp_path / "dead.json"
    path.write_text(json.dumps({"t_grid": ["1/4"], "w_grid": ["17/10", "9/5"]}))
    code = rc.main(["optimize", "--side", "left", "--config", str(path)])
    assert code == rc.EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "usage error: a left sweep probes w = 5/3, which w_grid [17/10, 9/5] lacks"]
    path.write_text(json.dumps({"t_grid": ["1/4"], "w_grid": ["5/3", "9/5"]}))
    assert rc.main(["optimize", "--side", "left", "--config", str(path)]) == rc.EXIT_OK


@pytest.mark.parametrize("rounds", [1.9, True, "2"])
def test_optimize_non_integer_refinement_rounds_is_usage_error(tmp_path, capsys, rounds):
    # a float, a bool or a string is refused, not truncated to an int
    path = small_config_file(tmp_path)
    data = json.loads(path.read_text())
    data["refinement_rounds"] = rounds
    path.write_text(json.dumps(data))
    code = rc.main(["optimize", "--side", "right", "--config", str(path)])
    assert code == rc.EXIT_USAGE
    assert "refinement_rounds" in capsys.readouterr().err


def test_refinement_rounds_are_bounded_before_any_probe(tmp_path, capsys, monkeypatch):
    # an unbounded count ran past any timeout: at the bound the sweep runs,
    # one past it is refused before a probe is made
    cells = []
    real = ps._right_cell
    monkeypatch.setattr(ps, "_right_cell",
                        lambda t, width, grids: cells.append(t) or real(t, width, grids))
    code = rc.main(["optimize", "--side", "right", "--config",
                    str(small_config_file(tmp_path, ps.MAX_REFINEMENT_ROUNDS))])
    assert code == rc.EXIT_OK and len(cells) > 3
    capsys.readouterr()
    cells.clear()
    path = small_config_file(tmp_path)
    data = json.loads(path.read_text())
    data["refinement_rounds"] = ps.MAX_REFINEMENT_ROUNDS + 1
    path.write_text(json.dumps(data))
    code = rc.main(["optimize", "--side", "right", "--config", str(path)])
    assert code == rc.EXIT_USAGE and cells == []
    assert capsys.readouterr().err.splitlines() == [
        f"usage error: refinement_rounds must lie in 0..{ps.MAX_REFINEMENT_ROUNDS}, "
        f"got {ps.MAX_REFINEMENT_ROUNDS + 1}"]


@pytest.mark.parametrize("side, w", [("left", "5/3"), ("right", "9/5")])
def test_isolation_width_is_bounded_before_any_probe(tmp_path, capsys, monkeypatch, side, w):
    # far below the bound phi's values at the winner's ends outgrew Python's
    # int-to-string limit only when the report was written, after the whole
    # sweep: at the bound a report is written, at t = 1/200 too, where the
    # left writes the most digits per digit of the width, and one decade
    # past it the width is refused before a probe is made
    cells = []
    name = f"_{side}_cell"
    real = getattr(ps, name)
    monkeypatch.setattr(ps, name,
                        lambda t, width, grids: cells.append(t) or real(t, width, grids))
    path, out = tmp_path / "config.json", tmp_path / "report.json"
    config = {"t_grid": ["1/200"], "w_grid": [w]}
    path.write_text(json.dumps(dict(config, isolation_width=rat_str(ps.MIN_ISOLATION_WIDTH))))
    code = rc.main(["--json", str(out), "optimize", "--side", side, "--config", str(path)])
    assert code == rc.EXIT_OK and cells == [rat("1/200")]
    [enc] = json.loads(out.read_text())["enclosures"]
    assert 0 < rat(enc["interval"][1]) - rat(enc["interval"][0]) <= ps.MIN_ISOLATION_WIDTH
    capsys.readouterr()
    cells.clear()
    path.write_text(json.dumps(dict(config, isolation_width=f"1/{10**601}")))
    code = rc.main(["optimize", "--side", side, "--config", str(path)])
    assert code == rc.EXIT_USAGE and cells == []
    assert capsys.readouterr().err.splitlines() == [
        "usage error: isolation_width must be at least MIN_ISOLATION_WIDTH = 1/10**600"]


def test_optimize_bool_isolation_width_is_usage_error(tmp_path, capsys):
    # true is an int to Python; as a width it would silently mean 1
    path = small_config_file(tmp_path)
    data = json.loads(path.read_text())
    data["isolation_width"] = True
    path.write_text(json.dumps(data))
    code = rc.main(["optimize", "--side", "right", "--config", str(path)])
    assert code == rc.EXIT_USAGE
    assert "bool" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# lab
# ---------------------------------------------------------------------------


def test_lab_cli_writes_csv_and_passes(tmp_path, capsys):
    csv_path = tmp_path / "scan.csv"
    out = tmp_path / "lab.json"
    code = rc.main(["--json", str(out), "lab", "--s", "2", "--samples", "20",
                    "--seed", "3", "--csv", str(csv_path)])
    assert code == rc.EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 21
    payload = json.loads(out.read_text())
    [scan] = payload["scans"]
    assert scan["identities"]["passed"] is True
    assert scan["summary"]["n_samples"] == 20


def test_lab_rejects_out_of_range_degree():
    code = rc.main(["lab", "--s", "9", "--samples", "5", "--seed", "1"])
    assert code == rc.EXIT_USAGE


def test_lab_rejects_bad_step(capsys):
    # the lab differentiates exactly and takes no step: any --step is refused
    for step in ("1e-3", "0.5", "0.1"):
        code = rc.main(["lab", "--s", "2", "--samples", "5", "--seed", "1",
                        "--step", step])
        assert code == rc.EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: unrecognized arguments: --step {step}\n"


def test_lab_rejects_a_sample_count_outside_the_bound(capsys):
    for samples in ("0", "1000001", "10000000000000"):
        code = rc.main(["lab", "--s", "2", "--samples", samples, "--seed", "1"])
        assert code == rc.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: sample count must lie in 1..1000000")
        assert len(err.splitlines()) == 1


def test_lab_frame_degeneracy_exits_1_naming_the_sample(monkeypatch, capsys):
    build = cl.build_calabi_immersion

    def flattened(s):
        imm = build(s)
        return imm.rotated(np.zeros((imm.n_components, imm.n_components)))

    monkeypatch.setattr(cl, "build_calabi_immersion", flattened)
    code = rc.main(["lab", "--s", "3", "--samples", "5", "--seed", "1"])
    assert code == rc.EXIT_CERTIFICATION_FAILURE
    err = capsys.readouterr().err
    assert "certification failure: lab: degree 3:" in err
    assert "at sample 0" in err


def test_exact_core_failure_exits_1_naming_the_item(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ExactPolyError("theta1: isolation found no sign change")

    monkeypatch.setattr(rc, "isolate_counted_root", broken)
    code = rc.main(["certify"])
    assert code == rc.EXIT_CERTIFICATION_FAILURE
    assert ("certification failure: certify: theta1: isolation found no sign change"
            in capsys.readouterr().err)


def test_lab_report_is_deterministic():
    a = rc.cmd_lab(2, 16, 5, 1e-3).to_json_str(strip_wall_time=True)
    b = rc.cmd_lab(2, 16, 5, 1e-3).to_json_str(strip_wall_time=True)
    assert a == b


LAB_INPUTS = {"s": 4, "n_samples": 10, "seed": 3}


@pytest.mark.parametrize("name", LAB_INPUTS)
def test_lab_reads_a_numpy_integer_input_as_a_python_int(name):
    report = rc.cmd_lab(**{**LAB_INPUTS, name: np.int64(LAB_INPUTS[name])})
    assert report.to_json_str(strip_wall_time=True) == \
        rc.cmd_lab(**LAB_INPUTS).to_json_str(strip_wall_time=True)
    summary = report.scans[0]["summary"]
    assert all(type(value) is int for value in report.inputs.values())
    assert all(type(summary[key]) is int for key in ("s", "seed", "n_samples"))


@pytest.mark.parametrize("name, words", [("s", "harmonic degree"),
                                         ("n_samples", "sample count"), ("seed", "seed")])
def test_lab_refuses_a_bool_input_naming_it(name, words):
    with pytest.raises(ValueError, match=f"^{words} must be an integer, got True$"):
        rc.cmd_lab(**{**LAB_INPUTS, name: True})


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_flags(capsys):
    code = rc.main(["classify", "--min", "0.45", "--max", "0.45"])
    assert code == rc.EXIT_OK
    assert "calabi-s4" in capsys.readouterr().out


def test_classify_input_file(tmp_path, capsys):
    payload = ShrinkerPinchData(
        a_circ_min=rat("1/3"), a_circ_max=rat("1/3"),
        mean_curvature_nonvanishing=True, normalized_H_parallel=True,
    ).to_json()
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    code = rc.main(["classify", "--input", str(path)])
    assert code == rc.EXIT_OK
    assert "veronese" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["false", 0, None])
def test_classify_input_hypothesis_must_be_a_json_boolean(tmp_path, capsys, value):
    # "false" is truthy; it must not count as the hypothesis holding
    payload = ShrinkerPinchData(
        a_circ_min=rat("5/12"), a_circ_max=rat("5/12"),
        mean_curvature_nonvanishing=True, normalized_H_parallel=True,
    ).to_json()
    payload["mean_curvature_nonvanishing"] = value
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    code = rc.main(["classify", "--input", str(path)])
    assert code == rc.EXIT_USAGE
    captured = capsys.readouterr()
    assert "mean_curvature_nonvanishing" in captured.err
    assert "calabi" not in captured.out


@pytest.mark.parametrize("flag, key", [
    ("--no-h-parallel", "normalized_H_parallel"),
    ("--h-nonvanishing", "mean_curvature_nonvanishing"),
])
def test_classify_hypothesis_flag_with_input_is_usage_error(tmp_path, capsys, flag, key):
    payload = ShrinkerPinchData(
        a_circ_min=rat("1/3"), a_circ_max=rat("1/3"),
        mean_curvature_nonvanishing=True, normalized_H_parallel=True,
    ).to_json()
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    code = rc.main(["classify", "--input", str(path), flag])
    assert code == rc.EXIT_USAGE
    err = capsys.readouterr().err
    assert flag in err and key in err


@pytest.mark.parametrize("bounds, flag, key", [
    (["--min", "0", "--max", "0"], "--min", "a_circ_min"),
    (["--max", "0"], "--max", "a_circ_max"),
])
def test_classify_bound_flag_with_input_is_usage_error(tmp_path, capsys, bounds, flag, key):
    # the file's bounds would win silently; a veronese file must not classify
    payload = ShrinkerPinchData(
        a_circ_min=rat("1/3"), a_circ_max=rat("1/3"),
        mean_curvature_nonvanishing=True, normalized_H_parallel=True,
    ).to_json()
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    code = rc.main(["classify", "--input", str(path), *bounds])
    assert code == rc.EXIT_USAGE
    captured = capsys.readouterr()
    assert flag in captured.err and key in captured.err
    assert "veronese" not in captured.out


def test_classify_hypotheses_flags(capsys):
    code = rc.main(["classify", "--min", "0", "--max", "0", "--no-h-parallel"])
    assert code == rc.EXIT_OK
    assert "hypotheses-not-met" in capsys.readouterr().out


def test_classify_requires_bounds():
    code = rc.main(["classify"])
    assert code == rc.EXIT_USAGE


@pytest.mark.parametrize("argv", [[], ["--min", "0.4"], ["--max", "0.4"]])
def test_classify_without_both_bounds_is_one_usage_error_line(capsys, argv):
    # one bound alone printed a bare line, without the usage error prefix
    assert rc.main(["classify", *argv]) == rc.EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "usage error: classify needs --input or both --min and --max"]


def test_classify_rejects_inverted_bounds():
    code = rc.main(["classify", "--min", "1/2", "--max", "1/3"])
    assert code == rc.EXIT_USAGE


def _run_cli(*argv):
    """Run the CLI in a fresh interpreter, so an uncaught exception shows."""
    src_dir = os.path.dirname(os.path.dirname(rc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "pinchcert.report_cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_classify_zero_denominator_is_usage_error():
    done = _run_cli("classify", "--min", "1/0", "--max", "1/2")
    assert done.returncode == rc.EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == ["usage error: zero denominator in '1/0'"]


def test_config_zero_denominator_is_usage_error(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"t_grid": ["1/0"], "w_grid": ["9/5"]}))
    done = _run_cli("optimize", "--side", "right", "--config", str(path))
    assert done.returncode == rc.EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == ["usage error: zero denominator in '1/0'"]


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    # a misspelt knob used to be ignored, running the defaults with exit 0
    path = small_config_file(tmp_path)
    data = json.loads(path.read_text())
    data["refinement_round"] = 5
    path.write_text(json.dumps(data))
    code = rc.main(["optimize", "--side", "right", "--config", str(path)])
    assert code == rc.EXIT_USAGE
    assert "'refinement_round'" in capsys.readouterr().err


@pytest.mark.parametrize("key, grid", [("t_grid", {"1/4": None}), ("w_grid", {"5/3": 1}),
                                       ("t_grid", "1/4"), ("w_grid", 5)],
                         ids=["t object", "w object", "t string", "w number"])
def test_config_grid_that_is_not_a_list_is_usage_error(tmp_path, capsys, key, grid):
    # an object's keys used to be read as the grid, and a string's characters
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict({"t_grid": ["1/4"], "w_grid": ["5/3"]}, **{key: grid})))
    code = rc.main(["optimize", "--side", "left", "--config", str(path)])
    assert code == rc.EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ") and repr(key) in lines[0]


@pytest.mark.parametrize("config", [["1/4"], "t_grid", 5], ids=["list", "string", "number"])
def test_config_that_is_not_an_object_is_usage_error(tmp_path, capsys, config):
    # a list used to fail on its indexing, and a string's characters were
    # named as unknown keys
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = rc.main(["optimize", "--side", "right", "--config", str(path)])
    assert code == rc.EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"usage error: config must be a JSON object, got {config!r}"]


@pytest.mark.parametrize("data", [["a_circ_min", "a_circ_max"], "a_circ_min", 5],
                         ids=["list", "string", "number"])
def test_classify_input_that_is_not_an_object_is_usage_error(tmp_path, capsys, data):
    # a list used to fail on its indexing, a string's characters were named
    # as unknown keys, and a number was iterated
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    code = rc.main(["classify", "--input", str(path)])
    assert code == rc.EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"usage error: classify input must be a JSON object, got {data!r}"]


def test_classify_input_missing_field_is_named(tmp_path, capsys):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"a_circ_max": "1/3", "mean_curvature_nonvanishing": True,
                                "normalized_H_parallel": True}))
    code = rc.main(["classify", "--input", str(path)])
    assert code == rc.EXIT_USAGE
    assert capsys.readouterr().err.strip() == "usage error: classify input is missing 'a_circ_min'"


def test_classify_input_unknown_key_is_usage_error(tmp_path):
    # a misspelt hypothesis used to be ignored, classifying with exit 0
    payload = ShrinkerPinchData(
        a_circ_min=rat("5/12"), a_circ_max=rat("5/12"),
        mean_curvature_nonvanishing=True, normalized_H_parallel=True,
    ).to_json()
    payload["normalised_H_parallel"] = False
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    done = _run_cli("classify", "--input", str(path))
    assert done.returncode == rc.EXIT_USAGE
    assert "calabi" not in done.stdout
    assert done.stderr.splitlines() == [
        "usage error: unknown classify input key(s): 'normalised_H_parallel'"]


@pytest.mark.parametrize("argv", [["classify", "--input"],
                                  ["optimize", "--side", "left", "--config"]])
def test_input_nested_too_deeply_is_usage_error(tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    done = _run_cli(*argv, str(path))
    assert done.returncode == rc.EXIT_USAGE
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("usage error: maximum recursion depth exceeded")


def test_classification_total_fails_on_an_undocumented_verdict(monkeypatch):
    data = ShrinkerPinchData(
        a_circ_min=rat("1/3"), a_circ_max=rat("1/3"),
        mean_curvature_nonvanishing=True, normalized_H_parallel=True,
    )
    assert rc.cmd_classify(data).all_passed
    real = sb.classify
    monkeypatch.setattr(sb, "classify", lambda d: replace(real(d), verdict="sphere-ish"))
    assert rc.cmd_classify(data).failing() == ["classification-total"]


def test_gap_bound_decreasing_check_replays_its_certificate(monkeypatch):
    real = rc.certify_sign_on_interval

    def forged(p, iv, sign):
        cert = real(p, iv, sign)
        evidence = dict(cert.evidence, witness_value="1/1")
        return replace(cert, evidence=evidence)

    monkeypatch.setattr(rc, "certify_sign_on_interval", forged)
    assert "gap-bound-decreasing" in rc.cmd_certify().failing()


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------


def test_failing_check_yields_exit_one(monkeypatch, capsys):
    def broken():
        report = rc.CertificationReport(command="certify", inputs={})
        report.add_check("synthetic", False, reason="forced")
        return report

    monkeypatch.setattr(rc, "cmd_certify", broken)
    code = rc.main(["certify"])
    assert code == rc.EXIT_CERTIFICATION_FAILURE
    assert "synthetic" in capsys.readouterr().err


def test_usage_error_for_unknown_subcommand(capsys):
    assert rc.main(["frobnicate"]) == rc.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument subcommand: invalid choice: 'frobnicate'")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["lab", "--s", "abc"], "argument --s: invalid int value: 'abc'"),
    (["certify", "--bogus"], "unrecognized arguments: --bogus"),
    (["optimize"], "the following arguments are required: --side"),
])
def test_argparse_refusals_are_one_line_usage_errors(capsys, argv, message):
    # argparse's own refusals return 2 like every other usage error, with
    # one stderr line and no usage text, instead of raising SystemExit
    assert rc.main(argv) == rc.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"usage error: {message}\n"


@pytest.mark.parametrize("argv", [["--help"], ["lab", "--help"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        rc.main(argv)
    assert exc.value.code == 0
    assert "usage: pinchcert" in capsys.readouterr().out
