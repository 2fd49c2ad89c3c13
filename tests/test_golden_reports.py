"""Reports stay byte-identical across rewrites of the exact layer.

The digests in ``golden_reports.json`` were taken from the Fraction-only
exact core, before evaluation and Sturm counting moved to integers.  Every
report byte except ``wall_time_ms`` is part of the reproducibility contract,
so a faster core must reproduce them exactly.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from pinchcert import param_search as ps
from pinchcert import report_cli as rc

GOLDEN = json.loads((Path(__file__).with_name("golden_reports.json")).read_text())

# 4 t values against the full 101-point left w grid, one refinement round:
# mostly degenerate probes plus useful ones near the optimum t ~ 0.496
LEFT_T = (Fraction(1, 200), Fraction(47, 200), Fraction(99, 200), Fraction(100, 200))


def _digest(report) -> str:
    return hashlib.sha256(report.to_json_str(strip_wall_time=True).encode()).hexdigest()


def _left_config() -> ps.SweepConfig:
    return ps.SweepConfig(
        t_grid=LEFT_T, w_grid=ps.default_config("left").w_grid, refinement_rounds=1
    )


@pytest.mark.parametrize(
    "name, build",
    [
        ("certify", rc.cmd_certify),
        ("optimize-right-default",
         lambda: rc.cmd_optimize("right", ps.default_config("right"))),
        ("optimize-left-4t", lambda: rc.cmd_optimize("left", _left_config())),
    ],
)
def test_report_bytes_match_golden_digest(name, build):
    assert _digest(build()) == GOLDEN[name]
