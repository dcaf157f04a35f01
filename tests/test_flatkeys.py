"""Flat ``key = value`` text: what the writer writes reads back bit for bit, and it refuses the rest."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marswpt.flatkeys import VALUE_KINDS, format_value, format_values, parse_values, read_key_value_file

# Every kind's values, with NaNs of any sign and payload, and text with any character.
VALUES = {
    "float": st.floats(),
    "int": st.integers(),
    "str": st.text(),
    "tuple[float, ...]": st.lists(st.floats(), max_size=3).map(tuple),
    "tuple[str, ...]": st.lists(st.text(), max_size=3).map(tuple),
}


def bits(value):
    if isinstance(value, tuple):
        return tuple(map(bits, value))
    return struct.pack("<d", value) if isinstance(value, float) else (type(value), value)


def kept(text: str) -> bool:
    """Whether a UTF-8 file line gives ``text`` back as the value of its key."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return text == text.strip() and "\n" not in text and "\r" not in text


def comes_back(value, kind: str) -> bool:
    """Whether some text of ``value`` is read back as ``value`` bit for bit, by the reader's rules."""
    if kind == "float":
        # "nan" reads back as one NaN; every other float has exact 17-digit text.
        return not math.isnan(value) or bits(value) == bits(float("nan"))
    if kind == "tuple[float, ...]":
        return len(value) > 0 and all(comes_back(cell, "float") for cell in value)
    if kind == "tuple[str, ...]":
        return all(cell and "," not in cell and kept(cell) for cell in value)
    return kind == "int" or kept(value)


def read_back(path, kind):
    entries = read_key_value_file(path)
    problems = []
    values = parse_values(entries, {key: kind for key in entries}, problems)
    return values, problems


def test_every_kind_has_values_to_draw():
    assert set(VALUES) == set(VALUE_KINDS)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_written_values_read_back_bit_for_bit_and_the_writer_refuses_the_rest(tmp_path_factory, data):
    kind = data.draw(st.sampled_from(sorted(VALUES)), label="kind")
    value = data.draw(VALUES[kind], label="value")
    path = tmp_path_factory.mktemp("flat") / "values.cfg"
    try:
        text = format_values({"key": value}, {"key": kind})
    except ValueError as exc:
        assert str(exc).startswith(f"key: {value!r} ")
        assert not comes_back(value, kind)
        # The refusal is right: the plain line, in a real file, does not give the value back.
        try:
            path.write_text(f"key = {format_value(value, kind)}\n", encoding="utf-8")
            values, problems = read_back(path, kind)
        except ValueError:  # no UTF-8 form, or a line the reader rejects
            return
        assert problems or bits(values["key"]) != bits(value)
        return
    assert comes_back(value, kind)
    assert text == f"key = {format_value(value, kind)}\n"
    path.write_text(text, encoding="utf-8")
    values, problems = read_back(path, kind)
    assert problems == [] and list(values) == ["key"]
    assert bits(values["key"]) == bits(value)


def test_a_float_has_17_significant_digits_and_a_tuple_is_comma_separated():
    assert format_value(0.1, "float") == "0.10000000000000001"
    assert format_value(-0.0, "float") == "-0"
    assert format_value((1e-4, 5e-3), "tuple[float, ...]") == "0.0001,0.0050000000000000001"
    assert format_value(("area1", "area2"), "tuple[str, ...]") == "area1,area2"
    assert format_value(25, "int") == "25"


@pytest.mark.parametrize("value, kind", [
    ("two\nlines", "str"), ("  padded ", "str"), ("carriage\rreturn", "str"), ("lone \udc80", "str"),
    (("a", ""), "tuple[str, ...]"), (("a,b",), "tuple[str, ...]"), ((), "tuple[float, ...]"),
    (-math.nan, "float"), (1, "float"), (1.0, "int"),
])
def test_the_writer_names_the_key_of_a_value_that_would_not_read_back(value, kind):
    with pytest.raises(ValueError) as info:
        format_values({"axis": "p_tx", "name": value}, {"axis": "str", "name": kind})
    assert str(info.value) == f"name: {value!r} would not read back as written"


def test_the_writer_keeps_the_order_of_its_keys():
    kinds = {"name": "str", "a2": "float", "axis_count": "int", "harvesters": "tuple[str, ...]"}
    values = {"harvesters": ("A", "C"), "name": "", "axis_count": 25, "a2": 100.1}
    assert format_values(values, kinds) == "harvesters = A,C\nname = \naxis_count = 25\na2 = 100.09999999999999\n"
