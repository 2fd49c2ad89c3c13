"""The report writer: json.dumps(sort_keys=True, indent=2) bytes, no cycles.

:func:`pinchcert.report_cli.json_text` replaces ``json.dumps(data,
sort_keys=True, indent=2)``, which with an indent runs json's pure-Python
encoder.  Its output must stay equal to json's byte for byte, on arbitrary
JSON trees and on every report kind, and a call must leave nothing for the
garbage collector.
"""

import gc
import json
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchcert import param_search as ps
from pinchcert import report_cli as rc
from pinchcert import shrinker_bridge as sb


def _reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


_AWKWARD = ('"', "\\", "\x00", "\x1f", "\x7f", "\n\t\r\b\f", "é", " ",
            "\ud800", "\U0001f600", "")
_TEXT = st.one_of(st.text(), st.sampled_from(_AWKWARD),
                  st.lists(st.sampled_from(_AWKWARD)).map("".join))
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e300, 5e-324]),
    _TEXT,
)


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


class _Tuple(tuple):
    pass


# the writer inlines entries of exact type str; subclasses take its isinstance path
_TREES = st.recursive(
    st.one_of(_LEAVES, _TEXT.map(_Str)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5).map(_List),
        st.lists(children, max_size=5).map(_Tuple),
        st.dictionaries(_TEXT, children, max_size=5),
        st.dictionaries(st.one_of(_TEXT, _TEXT.map(_Str)), children, max_size=5).map(_Dict),
        st.dictionaries(_TEXT, children, max_size=5).map(OrderedDict),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_the_writer_equals_json_dumps_on_json_trees(value):
    assert rc.json_text(value) == _reference(value)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}, [[]], [{}]], {"": {"": [()]}},
    {"b": 1, "a": 2, "B": 3, "é": 4, "\U0001f600": 5, "\ud800": 6},
    _Str("a"), _Dict(), _List(), _Tuple(), OrderedDict(), [_Str("x"), _Dict(a=_List())],
    OrderedDict([("b", _Str("")), ("a", _Tuple((_Str("é"),)))]), {_Str("k"): "v", "j": _Str("w")},
])
def test_the_writer_equals_json_dumps_on_empty_and_nested_containers(value):
    assert rc.json_text(value) == _reference(value)


@pytest.mark.parametrize("value", [
    Fraction(1, 3),
    {1, 2},
    {"a": [Fraction(1, 3)]},
    {1: "a"},
    {"a": {None: 1}},
    {("a",): 1},
])
def test_the_writer_rejects_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        rc.json_text(value)


def _optimize_with_config():
    config = ps.SweepConfig.from_json({"t_grid": ["1/2"], "w_grid": ["9/5"]})
    return rc.cmd_optimize("right", config)


_REPORTS = {
    "certify": rc.cmd_certify,
    "optimize-left-default": lambda: rc.cmd_optimize("left", ps.default_config("left")),
    "optimize-right-default": lambda: rc.cmd_optimize("right", ps.default_config("right")),
    "optimize-right-config": _optimize_with_config,
    "lab": lambda: rc.cmd_lab(3, 20, 0, 1e-3),
    "classify": lambda: rc.cmd_classify(sb.ShrinkerPinchData("5/12", "5/12", True, True)),
}


@pytest.mark.parametrize("strip", [False, True])
@pytest.mark.parametrize("kind", sorted(_REPORTS))
def test_every_report_kind_is_written_as_json_writes_it(kind, strip):
    report = _REPORTS[kind]()
    report.wall_time_ms = 1234
    data = report.to_json_dict()
    if strip:
        data.pop("wall_time_ms")
    assert report.to_json_str(strip_wall_time=strip) == _reference(data)


def test_writing_a_report_leaves_no_reference_cycle():
    # json's indenting encoder leaves 33 cyclic objects per certify report
    report = rc.cmd_certify()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            report.to_json_str()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
