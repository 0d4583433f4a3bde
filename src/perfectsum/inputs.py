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
    try:
        values = [float(x) for x in doc]
    except (TypeError, ValueError) as err:
        raise InputError(f"{path}: non-numeric JSON value: {err}") from err
    return _finite(values, str(path))


def _parse_csv(text: str, path) -> np.ndarray:
    values = []
    for lineno, row in enumerate(csv.reader(text.splitlines()), start=1):
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
    if values is None:
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


def _integer_lines(text: str):
    """The values of ``text`` if each nonblank line is ``-?[0-9]{1,15}``, else None.

    Decodes the digits from the text's bytes with a few numpy passes; the
    result is what ``np.loadtxt`` returns for such text, ``-0`` included.
    """
    if not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), np.uint8)
    digit = raw - np.uint8(ord("0"))  # wraps, so each non-digit byte is >= 10
    newline = raw == ord("\n")
    minus = raw == ord("-")
    if np.count_nonzero((digit < 10) | newline | minus) != raw.size:
        return None
    # a line's bytes are the ones that are not newlines; its edges alternate start, end
    edges = np.flatnonzero(np.diff(np.concatenate(([False], ~newline, [False]))))
    starts, ends = edges[::2], edges[1::2]
    negative = minus[starts]
    if np.count_nonzero(negative) != np.count_nonzero(minus):
        return None  # a '-' after a line's first byte
    ndigits = ends - starts - negative
    if not starts.size or not 1 <= ndigits.min() <= ndigits.max() <= _MAX_DIGITS:
        return None
    last = ends - 1
    values = digit[last].astype(np.int64)
    for place in range(1, int(ndigits.max())):
        # clip: the first line's higher places may reach before the text
        digits = digit.take(last - place, mode="clip")
        digits *= ndigits > place  # zero past a line's first digit
        values += np.multiply(digits, 10**place, dtype=np.int64)
    values = values.astype(np.float64)
    return np.negative(values, out=values, where=negative)
