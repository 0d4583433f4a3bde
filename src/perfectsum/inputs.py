"""Input documents: one numeric value set, from text, CSV, or JSON."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .moments import as_finite_array

__all__ = ["InputError", "read_input"]


class InputError(ValueError):
    """Malformed or empty input; maps to exit code 1 in the CLI."""


def read_input(path) -> np.ndarray:
    """Parse a value set from ``path`` into a flat float64 array.

    Accepted formats, detected from extension and content:

    * plain text: one value per line, blank lines and ``#`` comments ignored
    * CSV: a single column, optional non-numeric header row
    * JSON: an array of numbers, or an object with a ``values`` array;
      its other keys (such as ``name`` or ``family``) are ignored
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    if not text.strip():
        raise InputError(f"{path}: empty input (empty set)")

    stripped = text.lstrip()
    if p.suffix.lower() == ".json" or stripped[:1] in "[{":
        return _parse_json(text, path)
    # the first line as splitlines() would cut it, without splitting the rest
    first_line = (text.partition("\n")[0].splitlines() or [""])[0]
    if p.suffix.lower() == ".csv" or "," in first_line:
        return _parse_csv(text, path)
    return _parse_text(text, path)


def _finite(values, where: str) -> np.ndarray:
    try:
        return as_finite_array(values)
    except ValueError as err:
        raise InputError(f"{where}: {err}") from err


def _parse_json(text: str, path) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: line {err.lineno}, column {err.colno}: {err.msg}") from err
    if isinstance(doc, dict):
        doc = doc.get("values")
    if not isinstance(doc, list):
        raise InputError(f"{path}: JSON input must be an array or an object with 'values'")
    values = []
    for i, x in enumerate(doc, start=1):
        # a JSON true is no number, and neither is a string of digits
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise InputError(f"{path}: value at position {i} is not a JSON number: {x!r}")
        try:
            values.append(float(x))
        except OverflowError:
            raise InputError(f"{path}: value at position {i} is past the float range") from None
    return _finite(values, str(path))


def _parse_csv(text: str, path) -> np.ndarray:
    """One value per row, after an optional header; only a newline ends a row, as in text files."""
    values = []
    for lineno, row in enumerate(csv.reader(text.split("\n")), start=1):
        cells = [c.strip() for c in row if c.strip()]
        if not cells:
            continue
        if len(cells) > 1:
            raise InputError(f"{path}: line {lineno}: expected a single column, got {len(cells)}")
        try:
            values.append(float(cells[0]))
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise InputError(f"{path}: line {lineno}: not a number: {cells[0]!r}") from None
    return _finite(values, str(path))


def _parse_text(text: str, path) -> np.ndarray:
    values = _integer_lines(text)
    if values is not None:
        return values  # integers of at most 15 digits, all finite
    try:
        # numpy's C tokenizer; ndmin=2 keeps the columns of a one-line file apart
        values = np.loadtxt(io.StringIO(text), dtype=np.float64, ndmin=2)
    except ValueError:
        values = None
    if values is None or values.shape[1] > 1:
        values = _parse_lines(text, path)
    return _finite(values, str(path))


def _parse_lines(text: str, path) -> list:
    """One float per line, as loadtxt reads it; the error names the first bad line.

    Only a newline ends a line; ``read_text`` has already turned carriage
    returns into newlines, and a form feed or a Unicode line separator
    stays part of its line.
    """
    values = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        token = line.partition("#")[0].strip()  # loadtxt's comments
        if not token:
            continue
        try:
            values.append(float(token))
        except ValueError:
            raise InputError(f"{path}: line {lineno}: not a number: {token!r}") from None
    return values


# every integer of at most 15 decimal digits is exact in float64
_MAX_DIGITS = 15

# an integer text is decoded in blocks of at least this many bytes, each cut
# just after a newline: the decoder's temporaries stay a few blocks in size
# and reuse memory, where whole-file temporaries would fault in fresh pages
_BLOCK_BYTES = 1 << 16


def _integer_lines(text: str):
    """The values of ``text`` if each nonblank line is ``-?[0-9]{1,15}``, else None.

    Decodes the digits from the text's bytes with a few numpy passes per
    block of lines, into one array sized by the newline count; the result
    is what ``np.loadtxt`` returns for such text, ``-0`` included.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    buf = np.frombuffer(data, np.uint8)
    # one value per line at most; numpy counts the newlines block by block
    # (0.4 ms for 10^6 lines) where bytes.count takes 5 ms
    newlines = sum(
        np.count_nonzero(buf[i : i + _BLOCK_BYTES] == ord("\n"))
        for i in range(0, buf.size, _BLOCK_BYTES)
    )
    values = np.empty(newlines + 1, dtype=np.float64)
    filled = start = 0
    while start < len(data):
        stop = data.find(b"\n", start + _BLOCK_BYTES - 1) + 1 or len(data)
        minus = data.find(b"-", start, stop) >= 0
        lines = _decode_block(buf[start:stop], minus, values[filled:])
        if lines is None:
            return None
        filled += lines
        start = stop
    return values[:filled] if filled else None


def _decode_block(raw: np.ndarray, minus: bool, out: np.ndarray):
    """Decode the lines of the bytes ``raw`` into the head of ``out``; return how many.

    ``raw`` ends just after a newline or at the end of the text; ``minus``
    tells whether it holds a '-'. Returns None if a nonblank line is not
    ``-?[0-9]{1,15}``.
    """
    # digit[i + 1] is byte i's digit, after a leading pad digit 0; a non-digit
    # byte wraps to >= 10
    digit = np.empty(raw.size + 1, dtype=np.uint8)
    digit[0] = 0
    np.subtract(raw, np.uint8(ord("0")), out=digit[1:])
    isdigit = digit < 10
    ends = np.flatnonzero(raw == ord("\n"))
    separators = ends.size
    if raw[-1] != ord("\n"):
        ends = np.append(ends, raw.size)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    ndigits = ends - starts
    if ndigits.min() == 0:  # blank lines
        nonblank = ndigits > 0
        starts, ends, ndigits = starts[nonblank], ends[nonblank], ndigits[nonblank]
        if not ends.size:
            return 0
    if minus:
        negative = raw[starts] == ord("-")
        separators += np.count_nonzero(negative)
        ndigits -= negative
    if np.count_nonzero(isdigit[1:]) + separators != raw.size:
        return None  # a byte that is no digit, newline or leading '-'
    # separators read as digit 0, so a place past a line's first digit reads
    # 0 at the line's '-', at the newline before it or at the pad
    digit *= isdigit
    shortest, longest = int(ndigits.min()), int(ndigits.max())
    if not 1 <= shortest <= longest <= _MAX_DIGITS:
        return None
    # a line's last digit is digit[end]; each partial sum is an integer below
    # 10^15, so float64 adds it exactly
    values = out[: ends.size]
    values[:] = digit[ends]
    for place in range(1, longest):
        # clip: the block's first line's higher places may reach before the pad
        digits = digit.take(ends - place, mode="clip")
        if place > shortest:
            digits *= ndigits > place  # zero past a line's separator
        values += np.multiply(digits, 10.0**place, dtype=np.float64)
    if minus:
        np.negative(values, out=values, where=negative)
    return ends.size
