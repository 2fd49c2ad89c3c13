"""Any classify input file or sweep config file exits 0, 1 or 2, never with a traceback.

``main`` runs in process on arbitrary JSON written to a file: well-formed
inputs, near misses (a misspelt key, a zero denominator, an exponent, a
non-ASCII digit, a float or a bool where a rational belongs) and values of
any JSON type.  A usage error (exit 2) is one stderr line naming the item.
The lab's argv is drawn the same way: ``--s``, ``--samples`` and
``--seed`` in and just outside their domains, sample counts far above
their bound, strings argparse cannot parse, and at times an unknown flag
(``--step`` among them, which the lab no longer takes); argparse's own
refusals are usage errors of the same one-line shape.  What a run may start is
bounded: grids of at most 3 entries, ``refinement_rounds`` of 0 to 2 and
lab scans of at most 3 samples.
"""

import contextlib
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pinchcert import report_cli as rc
from pinchcert.calabi_lab import MAX_SAMPLES
from pinchcert.exact_poly import rat_str

# JSON values of every type; a string or a container holds at most 3 items,
# so a value that lands where a grid belongs is a grid of at most 3 entries
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30),
    st.floats(allow_nan=False), st.text(max_size=3),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
rational_strings = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=60).map(rat_str),
    st.sampled_from([
        "1/2", "1/4", "5/3", "9/5", "17/10", "0.25", "1.7", " 1/8", "+1/3", "1/0", "0/1",
        "1e3", "1E-3", "1_0/3", "٣/4", "5/３", "", "-", "1/2/3", "0.4166",
    ]),
)
rationals_or_junk = st.one_of(rational_strings, rational_strings, json_leaves)


def _mostly(valid, junk):
    return st.one_of(valid, valid, valid, junk)


def _grid(lo, hi):
    """Grids of at most 3 entries: mostly sorted ones inside [lo, hi], so
    that sweeps run, and any others."""
    inside = st.lists(st.one_of(st.sampled_from([lo, hi]),
                                st.fractions(min_value=lo, max_value=hi, max_denominator=60)),
                      min_size=1, max_size=3).map(lambda qs: [rat_str(q) for q in sorted(qs)])
    return _mostly(inside, st.one_of(st.lists(rationals_or_junk, max_size=3), json_values))


@st.composite
def _near_valid(draw, required: dict, optional: dict, misspelt: str):
    """A dict of every required key and some optional ones, then at most one
    fault: a required key left out or a misspelt key added."""
    data = {key: draw(values) for key, values in required.items()}
    for key, values in optional.items():
        if draw(st.booleans()):
            data[key] = draw(values)
    fault = draw(st.sampled_from(["none"] * 6 + ["missing", "misspelt"]))
    if fault == "missing":
        del data[draw(st.sampled_from(sorted(required)))]
    elif fault == "misspelt":
        data[misspelt] = draw(json_leaves)
    return data


sweep_configs = _mostly(
    _near_valid(
        required={"t_grid": _grid(F(1, 60), F(1, 2)), "w_grid": _grid(F(5, 3), F(9, 5))},
        optional={
            "refinement_rounds": _mostly(st.integers(0, 2),
                                         st.sampled_from([-1, 1.5, True, "2", None])),
            "isolation_width": _mostly(st.sampled_from(["1/1000", "1/1000000", "1/7", "1"]),
                                       rationals_or_junk),
        },
        misspelt="refinement_round",
    ),
    json_values,
)
hypotheses = _mostly(st.booleans(), json_leaves)
bounds = _mostly(st.fractions(min_value=0, max_value=1, max_denominator=1000).map(rat_str),
                 rationals_or_junk)
classify_inputs = _mostly(
    _near_valid(
        required={
            "a_circ_min": bounds,
            "a_circ_max": bounds,
            "mean_curvature_nonvanishing": hypotheses,
            "normalized_H_parallel": hypotheses,
        },
        optional={},
        misspelt="normalised_H_parallel",
    ),
    json_values,
)


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rc.main(argv)
    return code, err.getvalue()


def _assert_contract(code, err):
    assert code in (rc.EXIT_OK, rc.EXIT_CERTIFICATION_FAILURE, rc.EXIT_USAGE)
    assert "Traceback" not in err
    if code == rc.EXIT_USAGE:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: "), err


CONTRACT = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


@CONTRACT
@given(config=sweep_configs, side=st.sampled_from(["left", "right"]))
def test_any_sweep_config_exits_0_1_or_2(input_dir, config, side):
    path = input_dir / "config.json"
    path.write_text(json.dumps(config))
    _assert_contract(*_run_main(["optimize", "--side", side, "--config", str(path)]))


@CONTRACT
@given(data=classify_inputs)
def test_any_classify_input_exits_0_1_or_2(input_dir, data):
    path = input_dir / "data.json"
    path.write_text(json.dumps(data))
    _assert_contract(*_run_main(["classify", "--input", str(path)]))


# the words each lab usage error uses to name its item
LAB_ITEM_WORDS = {"s": "harmonic degree", "samples": "sample", "seed": "seed"}


# strings int() refuses, so argparse refuses them for --s, --samples and --seed
NON_INTEGERS = st.sampled_from(["abc", "1.5", "", "2e0", "0x3", "1/2"])
UNKNOWN_FLAGS = st.sampled_from(["--bogus", "--S", "--verbose", "--step"])


@CONTRACT
@given(s=_mostly(st.integers(1, 6), st.one_of(st.integers(-2, 9), NON_INTEGERS)),
       samples=_mostly(st.integers(1, 3),
                       st.one_of(st.integers(-2, 3), NON_INTEGERS,
                                 st.integers(MAX_SAMPLES + 1, 10**20))),
       seed=st.one_of(st.integers(-3, 3), st.integers(-3, 2**70), NON_INTEGERS),
       unknown=st.one_of(st.none(), st.none(), UNKNOWN_FLAGS))
def test_any_lab_argv_exits_0_1_or_2(s, samples, seed, unknown):
    argv = ["lab", "--s", str(s), "--samples", str(samples),
            "--seed", str(seed)] + ([unknown] if unknown else [])
    code, err = _run_main(argv)
    _assert_contract(code, err)
    # what argparse itself refuses: a value int or float cannot parse, or an
    # unknown flag; its message names the flag
    refused = [f"argument --{item}: invalid" for item, value in
               (("s", s), ("samples", samples), ("seed", seed)) if isinstance(value, str)]
    refused += [f"unrecognized arguments: {unknown}"] if unknown else []
    if refused:
        assert code == rc.EXIT_USAGE and any(words in err for words in refused), err
        return
    invalid = [item for item, bad in (("s", not 1 <= s <= 6),
                                      ("samples", not 1 <= samples <= MAX_SAMPLES),
                                      ("seed", seed < 0)) if bad]
    assert (code == rc.EXIT_USAGE) == bool(invalid), err
    if invalid:
        assert any(LAB_ITEM_WORDS[item] in err for item in invalid), err
