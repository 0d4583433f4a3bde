"""Input parsing: which parser read_input picks for a text file."""

import numpy as np
import pytest

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
