"""The JSON report writer: the bytes of json.dumps(doc, indent=2, sort_keys=True)."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from expdyn import reports
from expdyn.cli import main
from expdyn.reports import report_json

STRIP = "strip:0,3.141592653589793"


def _dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


# strings with quotes, backslashes, control characters, non-ASCII and the
# writer's own brackets and separators, beside arbitrary text
_TEXT = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\n", "\t\x00\x1f", "}", "},\n  {", "]", ": ", "é", "☃", "\U0001f600"]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | _TEXT
)
# lists of nonempty dicts of scalars, the shape of per_column and per_rectangle
_RECORDS = st.lists(st.dictionaries(_TEXT, _SCALARS, min_size=1), max_size=4)
_DOCS = st.recursive(
    _SCALARS | _RECORDS,
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, kids, max_size=4)
    ),
    max_leaves=24,
)


@settings(deadline=None)
@given(_DOCS)
def test_writer_equals_json_dumps(doc):
    assert report_json(doc) == _dumps(doc)


def test_writer_keeps_empty_containers_and_nested_empty_ones():
    doc = {"a": {}, "b": [], "c": [[], {}, [[]], ({},)], "d": [{"x": []}]}
    assert report_json(doc) == _dumps(doc)
    assert report_json([]) == "[]" and report_json({}) == "{}"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def test_each_kind_of_report_is_written_as_json_dumps_writes_it(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("".join(f"{i / 100},{(i % 7) / 50}\n" for i in range(200)),
                   encoding="ascii")
    commands = [
        ["certify", "--lambda=1,0", f"--set={STRIP}", "--delta=0.5", "--m=10",
         "--rmax=15", "--rectangles"],
        ["searchbound", "--lambda=1,0", f"--set={STRIP}", "--delta-grid=0.3,0.5",
         "--l0-grid=3", "--c=1"],
        ["boxdim", f"--points={pts}", "--scales=0.5:0.01:2"],
        ["supergrowth", "--lambda=1,0", "--c=1", "--steps=12"],
    ]
    for argv in commands:
        code, out = _run(argv)
        assert code in (0, 3)
        doc = json.loads(out)
        assert out == _dumps(doc) + "\n"
        assert report_json(doc) == _dumps(doc)
    # and two of them hold nested records that the writer joins in one call
    assert json.loads(_run(commands[0])[1])["per_rectangle"]
    assert json.loads(_run(commands[3])[1])["alphas"]


def test_writer_without_the_c_encoder_is_json_dumps(monkeypatch):
    doc = {"b": [{"k": 1, "bound": 0.25}], "a": [1.5, None, "é"], "c": {}}
    monkeypatch.setattr(reports, "c_make_encoder", None)

    def no_c_encoder(depth):
        raise AssertionError("the C encoder path ran")

    monkeypatch.setattr(reports, "_flat_encoder", no_c_encoder)
    assert report_json(doc) == _dumps(doc)
