"""Input parsing: which parser read_input picks, and what the text parser reads."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfectsum import inputs
from perfectsum.inputs import InputError, read_input

# name -> (file contents, parser chosen); the first line is cut as
# str.splitlines() cuts it, and only a comma on that line means CSV
CASES = {
    "crlf_comma_first": ("1,\r\n2\r\n3\r\n", "csv"),
    "crlf_comma_later": ("1\r\n2,3\r\n", "text"),
    "lone_cr_comma_first": ("4,\r5\r", "csv"),
    "lone_cr_comma_later": ("4\r5,6\r", "text"),
    "form_feed_before_newline": ("1\x0c2,3\n4\n", "text"),
    "line_separator_before_newline": ("1\u20282,3\n4\n", "text"),
    "comma_before_form_feed": ("1,\x0c2\n3\n", "csv"),
    "leading_blank_line": ("\n1,2\n", "text"),
    "comma_on_line_two": ("1\n2,3\n4\n", "text"),
    "no_newline": ("7,", "csv"),
}


def chosen_parser(path, monkeypatch):
    chosen = []
    monkeypatch.setattr(inputs, "_parse_csv", lambda text, p: chosen.append("csv"))
    monkeypatch.setattr(inputs, "_parse_text", lambda text, p: chosen.append("text"))
    read_input(path)
    return chosen


@pytest.mark.parametrize("name", sorted(CASES))
def test_parser_choice_follows_first_line(name, tmp_path, monkeypatch):
    contents, expected = CASES[name]
    path = tmp_path / f"{name}.txt"
    path.write_bytes(contents.encode("utf-8"))
    text = path.read_text(encoding="utf-8")
    assert expected == ("csv" if "," in text.splitlines()[0] else "text")
    assert chosen_parser(path, monkeypatch) == [expected]


def test_parser_choice_on_random_line_breaks(tmp_path, monkeypatch):
    alphabet = list("01, \n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
    rng = np.random.default_rng(4)
    checked = 0
    for i in range(400):
        contents = "".join(rng.choice(alphabet, int(rng.integers(1, 10))))
        path = tmp_path / f"random{i}.txt"
        path.write_bytes(contents.encode("utf-8"))
        text = path.read_text(encoding="utf-8")
        if not text.strip():
            continue
        expected = "csv" if "," in text.splitlines()[0] else "text"
        assert chosen_parser(path, monkeypatch) == [expected], repr(contents)
        checked += 1
    assert checked > 250


def test_comma_on_line_two_is_a_text_error(tmp_path):
    path = tmp_path / "vals.txt"
    path.write_text("1\n2,3\n4\n")
    with pytest.raises(InputError, match=r"line 2: not a number: '2,3'"):
        read_input(path)


def test_crlf_csv_values(tmp_path):
    path = tmp_path / "vals.txt"
    path.write_bytes(b"1,\r\n2\r\n3\r\n")
    assert read_input(path).tolist() == [1.0, 2.0, 3.0]


def test_json_object_extra_keys_ignored(tmp_path):
    path = tmp_path / "vals.json"
    path.write_text('{"values": [1, 2.5], "name": "toy", "family": "uniform", "note": 3}')
    values = read_input(path)
    assert isinstance(values, np.ndarray) and values.dtype == np.float64
    assert values.tolist() == [1.0, 2.5]


def test_json_non_finite_value_names_its_position(tmp_path):
    path = tmp_path / "vals.json"
    path.write_text("[1, NaN, 3]")
    with pytest.raises(InputError, match="non-finite value at position 2"):
        read_input(path)


# a line of an integer file: up to 15 digits, -0, leading zeros, or blank
_INTEGER_LINE = st.one_of(
    st.integers(-(10**15) + 1, 10**15 - 1).map(str),
    st.just("-0"),
    st.tuples(st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=15)).map(
        "".join
    ),
    st.just(""),
)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_INTEGER_LINE, min_size=1, max_size=30).filter(any),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
)
def test_integer_text_reads_as_loadtxt_bits(tmp_path_factory, lines, newline, final_newline):
    path = tmp_path_factory.mktemp("ints") / "vals.txt"
    path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode("ascii"))
    assert inputs._integer_lines(path.read_text()) is not None  # the byte tokenizer ran
    got = read_input(path)
    want = np.loadtxt(path, dtype=np.float64, ndmin=1)
    assert got.dtype == np.float64 and got.shape == want.shape
    # equal bits, so -0 stays -0.0
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# text the byte tokenizer leaves to loadtxt, and what read_input makes of it
FALLBACK = {
    "plus": ("+5\n", [5.0]),
    "exponent": ("1e3\n", [1000.0]),
    "decimal_point": ("1.5\n", [1.5]),
    "sixteen_digits": ("1234567890123456\n", [1234567890123456.0]),
    "seventeen_digits": ("12345678901234567\n", [12345678901234568.0]),
    "tabs": ("\t3\n4\t\n", [3.0, 4.0]),
    "trailing_space": ("3 \n", [3.0]),
    "no_break_space": ("\u00a05\n", [5.0]),
    "comment_line": ("# c\n4\n", [4.0]),
    "trailing_comment": ("4\n5 # note\n", [4.0, 5.0]),
    "lone_minus": ("5\n-\n", "line 2: not a number: '-'"),
    "inner_minus": ("1-2\n", "line 1: not a number: '1-2'"),
    "double_minus": ("--1\n", "line 1: not a number: '--1'"),
    "non_ascii": ("5\n\u00e9\n", "line 2: not a number: '\u00e9'"),
}


@pytest.mark.parametrize("name", sorted(FALLBACK))
def test_fallback_text_keeps_its_result(name, tmp_path):
    contents, expected = FALLBACK[name]
    path = tmp_path / "vals.txt"
    path.write_bytes(contents.encode("utf-8"))
    assert inputs._integer_lines(path.read_text(encoding="utf-8")) is None
    if isinstance(expected, str):
        with pytest.raises(InputError, match=expected):
            read_input(path)
    else:
        assert read_input(path).tolist() == expected


def test_bad_line_of_an_integer_file_is_named(tmp_path):
    lines = [str(v) for v in range(-500, 500)]
    lines[536] = "53x"
    path = tmp_path / "vals.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match=r"line 537: not a number: '53x'"):
        read_input(path)


@pytest.mark.parametrize("contents", ["1 5\n2 7\n3 9\n", "1 5\n"])
def test_two_columns_are_an_error(contents, tmp_path):
    path = tmp_path / "vals.txt"
    path.write_text(contents)
    with pytest.raises(InputError, match=r"line 1: not a number: '1 5'"):
        read_input(path)


def test_comment_lines_skipped_when_naming_a_bad_line(tmp_path):
    path = tmp_path / "vals.txt"
    path.write_text("# c\n4\nx # why\n")
    with pytest.raises(InputError, match=r"line 3: not a number: 'x'"):
        read_input(path)


# str.splitlines() also breaks at these characters; in a value file they
# stay part of their line, so each line here holds a bad token
SPLITLINES_ONLY = {
    "form_feed": ("1\x0c2\nx\n", 1, "1\x0c2"),
    "file_separator": ("4\n1\x1c5\n", 2, "1\x1c5"),
    "line_separator": ("5\n1\u20282\n7\n", 2, "1\u20282"),
}


@pytest.mark.parametrize("name", sorted(SPLITLINES_ONLY))
def test_only_a_newline_ends_a_text_line(name, tmp_path):
    contents, lineno, token = SPLITLINES_ONLY[name]
    path = tmp_path / "vals.txt"
    path.write_bytes(contents.encode("utf-8"))
    with pytest.raises(InputError, match=re.escape(f"line {lineno}: not a number: {token!r}")):
        read_input(path)
