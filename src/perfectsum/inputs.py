"""Input documents: one numeric value set, from text, CSV, or JSON."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .moments import as_finite_array

__all__ = ["InputDocument", "InputError", "read_input"]


class InputError(ValueError):
    """Malformed or empty input; maps to exit code 1 in the CLI."""


@dataclass(frozen=True)
class InputDocument:
    values: np.ndarray
    name: Optional[str] = None
    family: Optional[str] = None


def read_input(path) -> InputDocument:
    """Parse a value set from ``path``.

    Accepted formats, detected from extension and content:

    * plain text: one value per line, blank lines ignored
    * CSV: a single column, optional non-numeric header row
    * JSON: an array of numbers, or an object with a ``values`` array
      and optional ``name``/``family`` metadata
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


def _parse_json(text: str, path) -> InputDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: line {err.lineno}, column {err.colno}: {err.msg}") from err
    name = family = None
    if isinstance(doc, dict):
        name = doc.get("name")
        family = doc.get("family")
        doc = doc.get("values")
    if not isinstance(doc, list):
        raise InputError(f"{path}: JSON input must be an array or an object with 'values'")
    try:
        values = [float(x) for x in doc]
    except (TypeError, ValueError) as err:
        raise InputError(f"{path}: non-numeric JSON value: {err}") from err
    return InputDocument(values=_finite(values, str(path)), name=name, family=family)


def _parse_csv(text: str, path) -> InputDocument:
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
    return InputDocument(values=_finite(values, str(path)))


def _parse_text(text: str, path) -> InputDocument:
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
    return InputDocument(values=_finite(values, str(path)))
