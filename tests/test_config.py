import io

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from chiralpol.config import (
    ConfigError,
    config_bool,
    config_float,
    config_floats,
    config_int,
    merge_config,
    parse_config_text,
    render_value,
)
from chiralpol.scantable import ScanTable, format_number


class TestParser:
    def test_basic_parse(self):
        table = parse_config_text(
            "# a comment\n"
            "alpha = 1.5\n"
            "\n"
            "beta=x,y   # trailing comment\n"
            "  gamma   =   hello\n"
        )
        assert table == {"alpha": "1.5", "beta": "x,y", "gamma": "hello"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\nnot a pair\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 'a'"):
            parse_config_text("a = 1\na = 2\n")

    def test_merge_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            merge_config({"a": "1"}, {"bogus": "2"})

    def test_merge_layers_in_order(self):
        merged = merge_config({"a": "1", "b": "2"}, {"a": "3"}, {"a": "4"})
        assert merged == {"a": "4", "b": "2"}


class TestConverters:
    def test_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="'count'"):
            config_int({"count": "ten"}, "count")
        with pytest.raises(ConfigError, match="'x'"):
            config_float({"x": "1.2.3"}, "x")
        with pytest.raises(ConfigError, match="'flag'"):
            config_bool({"flag": "maybe"}, "flag")
        with pytest.raises(ConfigError, match="'vec'"):
            config_floats({"vec": "1,2"}, "vec", 3)

    def test_vector_parse(self):
        vec = config_floats({"mu": " 1, 2.5 ,-3 "}, "mu", 3)
        assert vec.tolist() == [1.0, 2.5, -3.0]

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_rendering_round_trips(self, value):
        assert float(render_value(value)) == value

    def test_array_rendering(self):
        assert render_value(np.array([1.0, 0.5])) == "1,0.5"
        assert render_value(True) == "1"
        assert render_value(7) == "7"


# every finite double and NaN, with the edge cases drawn often
HUGE = np.finfo(float).max
cells = st.floats(allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, np.nan, 5e-324, -2.2250738585072014e-308, HUGE, -HUGE]
)


class TestScanTable:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged"):
            ScanTable(("a", "b"), ((1.0, 2.0), (3.0,)), ())
        with pytest.raises(ValueError, match="ragged"):
            ScanTable(("a", "b"), np.zeros((2, 3)), ())
        with pytest.raises(ValueError, match="ragged"):
            ScanTable(("a", "b"), [1.0, 2.0], ())

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_cell_names_its_column(self, value):
        rows = np.zeros((3, 4))
        rows[1, 2] = value
        rows[2, 0] = value
        with pytest.raises(OverflowError, match="column 'c' is infinite"):
            ScanTable(("a", "b", "c", "d"), rows, ())

    @seed(20241)
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        width=st.integers(1, 6),
        cells=st.lists(cells, min_size=0, max_size=60),
    )
    @example(width=3, cells=[-0.0, np.nan, 5e-324, HUGE, -HUGE, 1e-310])
    def test_write_matches_per_cell_rendering(self, width, cells):
        rows = [cells[i : i + width] for i in range(0, len(cells) - width + 1, width)]
        names = tuple(f"c{j}" for j in range(width))
        buf = io.StringIO()
        ScanTable(names, rows, (("command", "demo"),)).write(buf)
        expected = "# command = demo\n" + ",".join(names) + "\n"
        expected += "".join(",".join(format_number(v) for v in row) + "\n" for row in rows)
        assert buf.getvalue() == expected

    def test_csv_layout(self):
        table = ScanTable(
            column_names=("x", "y"),
            rows=((1.0, 2.0), (0.1, -3.5e-7)),
            metadata=(("command", "demo"), ("eta", "0.001")),
        )
        buf = io.StringIO()
        table.write(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# command = demo"
        assert lines[1] == "# eta = 0.001"
        assert lines[2] == "x,y"
        assert lines[3] == "1,2"
        assert lines[4].split(",")[1] == format_number(-3.5e-7)

    def test_column_accessor(self):
        table = ScanTable(("x", "y"), ((1.0, 2.0), (3.0, 4.0)), ())
        assert table.column("y") == [2.0, 4.0]

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_seventeen_digits_round_trip(self, value):
        assert float(format_number(value)) == value
