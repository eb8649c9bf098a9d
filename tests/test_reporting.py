import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rumourlab.reporting import (
    ExperimentResult,
    ExperimentSpec,
    clean_row,
    clean_value,
    render_csv,
    render_json,
    render_svg,
    result_to_json_doc,
)

# ---- oracles: the row-at-a-time emitters of rumourlab 0.1.0 ----------------------


def oracle_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def oracle_csv(result):
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(oracle_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def oracle_json(result):
    return json.dumps(result_to_json_doc(result), indent=2, sort_keys=True) + "\n"


# ---- tables --------------------------------------------------------------------

_TEXT = st.one_of(st.sampled_from(['"rows": []', 'a,b', 'say "hi"', "back\\slash", "é ✓ 数",
                                   "\\u0000rows\\u0000", "\x00rows\x00", ""]),
                  st.text(max_size=8))
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                                     2.2250738585072014e-308, 1e16, 0.1]),
                    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
_FINITE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-310]),
                    st.floats(allow_nan=False, allow_infinity=False))
_INTS = st.one_of(st.sampled_from([0, -1, 2**63, -(2**63) - 1, 2**64 + 1]),
                  st.integers(-(2**70), 2**70))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT,
                     _FINITE.map(np.float64))
_CELLS = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=2),
                   st.dictionaries(_TEXT, _SCALARS, max_size=2))


@st.composite
def columns(draw, n):
    kind = draw(st.sampled_from(["finite", "float", "int", "same", "mixed", "text"]))
    if kind == "same":  # one object in every row, as diagnose's growth and decay columns
        return [draw(_CELLS)] * n
    cells = {"finite": _FINITE, "float": _FLOATS, "int": _INTS, "mixed": _CELLS,
             "text": _TEXT}[kind]
    return draw(st.lists(cells, min_size=n, max_size=n))


@st.composite
def results(draw):
    n = draw(st.integers(0, 6))
    width = draw(st.integers(1, 4))
    cols = [draw(columns(n)) for _ in range(width)]
    spec = ExperimentSpec(subcommand="diagnose", seed=draw(st.integers(0, 2**64)),
                          dist=draw(st.one_of(st.none(), _TEXT)),
                          p=draw(st.one_of(st.none(), _FLOATS)))
    return ExperimentResult(spec, "0.1.0", draw(st.lists(_TEXT, min_size=width, max_size=width)),
                            [list(row) for row in zip(*cols)], draw(_INTS))


_SPEC = ExperimentSpec(subcommand="diagnose", seed=3, dist='pareto:"rows": []')


class TestColumnwiseEmitters:
    @given(results())
    @settings(max_examples=400, deadline=None)
    @example(ExperimentResult(_SPEC, "0.1.0", ["x"], [], 0))
    @example(ExperimentResult(_SPEC, "0.1.0", ["x", "y"], [[0.0, 1], [-0.0, True]], 0))
    @example(ExperimentResult(_SPEC, "0.1.0", ["rows"], [[None], [math.nan], [-math.inf]], 0))
    def test_csv_and_json_match_the_row_at_a_time_oracle(self, result):
        assert render_csv(result) == oracle_csv(result)
        assert render_json(result) == oracle_json(result)

    def test_diagnose_shaped_table(self):
        growth, decay = 0.993, -0.0
        rows = [[i, None if i == 7 else 1 / (i + 0.37), growth, decay] for i in range(1, 50)]
        result = ExperimentResult(_SPEC, "0.1.0", ["n", "partialSum", "growthRatio",
                                                   "decayExponent"], rows, 0)
        assert render_csv(result) == oracle_csv(result)
        assert render_json(result) == oracle_json(result)

    def test_unserializable_cell_raises_like_the_oracle(self):
        result = ExperimentResult(_SPEC, "0.1.0", ["x"], [[np.int64(1)], [2]], 0)
        with pytest.raises(TypeError):
            oracle_json(result)
        with pytest.raises(TypeError):
            render_json(result)

    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [[], []]])
    def test_ragged_or_empty_rows_are_refused(self, rows):
        result = ExperimentResult(_SPEC, "0.1.0", ["x", "y"], rows, 0)
        with pytest.raises(ValueError, match="same number of cells"):
            render_csv(result)
        with pytest.raises(ValueError, match="same number of cells"):
            render_json(result)


class TestCleanValue:
    @pytest.mark.parametrize("flag", [True, False])
    def test_numpy_bool_becomes_bool(self, flag):
        assert type(clean_value(np.bool_(flag))) is bool
        result = ExperimentResult(_SPEC, "0.1.0", ["ok"], [clean_row([np.bool_(flag)])], 0)
        assert render_csv(result) == f"ok\n{str(flag).lower()}\n"
        assert json.loads(render_json(result))["rows"] == [[flag]]


class TestSvgPoints:
    # the polyline of 0.1.0: px and py on Python floats, one point at a time
    @given(st.lists(st.tuples(_FLOATS, _FLOATS), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    @example([(0.0, -0.0), (-0.0, 0.0)])
    @example([(1.0, math.inf), (2.0, 3.0)])
    def test_points_match_python_floats(self, pairs):
        xs, ys = [p[0] for p in pairs], [p[1] for p in pairs]
        xlo, xhi, ylo, yhi = min(xs), max(xs), min(ys), max(ys)
        xhi = xlo + 1.0 if xhi == xlo else xhi
        yhi = ylo + 1.0 if yhi == ylo else yhi
        try:
            want = " ".join(f"{70 + (x - xlo) / (xhi - xlo) * 550:.2f},"
                            f"{40 + 330 - (y - ylo) / (yhi - ylo) * 330:.2f}"
                            for x, y in pairs)
        except ZeroDivisionError:  # a range that +1.0 cannot widen; not a comparison
            return
        svg = render_svg(xs, ys, "x", "y", "c")
        assert re.search(r'<polyline points="([^"]*)"', svg).group(1) == want

    @pytest.mark.parametrize("lo", [2.0**53, 1e17, -1e17, -(2.0**60), 1.7e308])
    def test_constant_series_past_2_53_renders(self, lo):
        # lo + 1.0 == lo: the empty range widens by |lo|, so nothing divides by 0
        for xs, ys, want in (([1, 2], [lo, lo], "70.00,370.00 620.00,370.00"),
                             ([lo, lo], [1, 2], "70.00,370.00 70.00,40.00")):
            svg = render_svg(xs, ys, "x", "y", "c")
            assert re.search(r'<polyline points="([^"]*)"', svg).group(1) == want
