"""The JSON value checks every file loader shares."""

from __future__ import annotations

import math

import pytest

from segscore.errors import checked, decode_json, finite


class TestFinite:
    @pytest.mark.parametrize("value, number", [(0, 0.0), (3, 3.0), (-2.5, -2.5), (1e308, 1e308)])
    def test_finite_numbers_come_back_as_floats(self, value, number):
        result = finite(value, "w")
        assert result == number and type(result) is float

    @pytest.mark.parametrize("value", [
        True, False, None, "1", [1], {}, math.nan, math.inf, -math.inf,
        pytest.param(10**400, id="int_past_float"), pytest.param(-(10**400), id="-int_past_float")])
    def test_everything_else_is_a_one_line_value_error(self, value):
        with pytest.raises(ValueError, match="^w must be a finite number, got "):
            finite(value, "w")


class TestChecked:
    def test_a_value_of_the_kind_comes_back_unchanged(self):
        items = ["a"]
        assert checked(items, list, "items") is items
        assert checked(7, int, "n") == 7

    @pytest.mark.parametrize("value, kind", [
        (True, int), (False, int), (1.0, int), ("1", int), (None, str), ({}, list)])
    def test_other_values_are_rejected_naming_the_kind(self, value, kind):
        with pytest.raises(ValueError, match=f"^v must be {kind.__name__}, got "):
            checked(value, kind, "v")


class TestDecodeJson:
    def test_decodes_text_and_bytes(self):
        assert decode_json('{"a": [1, 2.5]}', "f") == {"a": [1, 2.5]}
        assert decode_json(b'"x"', "f") == "x"

    @pytest.mark.parametrize("text", [
        pytest.param("{", id="not_json"),
        pytest.param(b"\xff\xfe\xfa", id="not_utf8"),
        pytest.param("[" * 5000 + "]" * 5000, id="nested_too_deeply"),
        pytest.param("1" * 5000, id="past_the_digit_limit")])
    def test_anything_undecodable_is_a_one_line_value_error(self, text):
        with pytest.raises(ValueError) as excinfo:
            decode_json(text, "f")
        assert "\n" not in str(excinfo.value)
