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

    * plain text: one value per line, blank lines ignored
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
    try:
        # fast path: numpy's C tokenizer
        values = np.loadtxt(io.StringIO(text), dtype=np.float64).reshape(-1)
    except ValueError:
        # re-parse slowly to report the offending line
        values = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            token = line.strip()
            if not token:
                continue
            try:
                values.append(float(token))
            except ValueError:
                raise InputError(f"{path}: line {lineno}: not a number: {token!r}") from None
    return _finite(values, str(path))
