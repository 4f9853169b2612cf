"""Kernel and permutation interchange documents, and the CSV writer.

Kernels travel as JSON objects {size, labels?, triplets} where triplets is
the kernel's CSR triple read straight off: [row, col, value] for each
positive entry, sorted by (row, col), so a document is byte-stable for a
given kernel.  Loading builds like any other construction path, so the
round trip stores the same triple; a malformed document is ConfigInvalid.
Every CSV the package writes comes from `_csv_text`.
"""
from __future__ import annotations

import csv
import io
import json

import numpy as np

from .core import (
    MarkovKernel,
    Permutation,
    StateSpace,
    _kernel_from_triplets,
    _triplets,
    make_permutation,
)
from .errors import ConfigInvalid


def kernel_document(kernel: MarkovKernel) -> dict:
    rows, cols, vals = _triplets(kernel)
    # the stored entries run row by row, columns ascending
    triplets = [list(t) for t in zip(rows.tolist(), cols.tolist(), vals.tolist())]
    doc = {"size": kernel.size, "triplets": triplets}
    if kernel.space.labels is not None:
        doc["labels"] = list(kernel.space.labels)
    return doc


def _integer(value, what: str) -> int:
    """An index or size read from a document: an integer, or a float with
    no fractional part; anything else, a boolean or a string too, is
    ConfigInvalid, never truncated, read as 0 or 1, or parsed."""
    try:
        number = None if isinstance(value, (bool, np.bool_, str)) else int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (isinstance(value, (float, np.floating)) and value != number):
        raise ConfigInvalid(f"{what} {value!r} is not an integer")
    return number


def _number(value, what: str) -> float:
    """A real parameter from a document or from `cli._coerce`d flag text:
    float(value); a boolean, a string or anything float() refuses is
    ConfigInvalid, never parsed."""
    try:
        number = None if isinstance(value, (bool, np.bool_, str)) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None:
        raise ConfigInvalid(f"{what} {value!r} is not a number")
    return number


def _space(size: int, labels, what: str) -> StateSpace:
    try:  # a bad size or label list is ConfigInvalid
        return StateSpace(size, labels)
    except ValueError as exc:
        raise ConfigInvalid(f"{what}: {exc}") from exc


def kernel_from_document(doc: dict) -> MarkovKernel:
    try:
        size = doc["size"]
        triplets = doc["triplets"]
    except (KeyError, TypeError) as exc:
        raise ConfigInvalid(f"kernel document missing size/triplets: {exc}") from exc
    size = _integer(size, "kernel size")
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, (list, tuple)):
        raise ConfigInvalid(f"kernel labels {labels!r} are not a list")
    for label in labels or ():
        if isinstance(label, bool) or not isinstance(label, (str, int, float)):
            raise ConfigInvalid(f"kernel label {label!r} is not a string or a number")
    if not isinstance(triplets, (list, tuple)):
        raise ConfigInvalid(f"kernel triplets {triplets!r} are not a list")
    if size > len(triplets):  # a stochastic row needs at least one entry
        raise ConfigInvalid(f"kernel size {size} exceeds its {len(triplets)} triplets")
    space = _space(size, tuple(labels) if labels is not None else None, "kernel document")
    rows, cols, vals = [], [], []
    for t in triplets:
        if not isinstance(t, (list, tuple)) or len(t) != 3:
            raise ConfigInvalid(f"triplet {t!r} is not [row, col, value]")
        r, c = _integer(t[0], "triplet row"), _integer(t[1], "triplet column")
        v = _number(t[2], "triplet value")
        if not (0 <= r < size and 0 <= c < size):
            raise ConfigInvalid(f"triplet {t!r} indexes outside the space")
        rows.append(r)
        cols.append(c)
        vals.append(v)
    return _kernel_from_triplets(space, rows, cols, vals)


def save_kernel(kernel: MarkovKernel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(kernel_document(kernel), fh, sort_keys=True)
        fh.write("\n")


def load_kernel(path: str) -> MarkovKernel:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"not a JSON kernel document: {exc}") from exc
    return kernel_from_document(doc)


def permutation_document(g: Permutation) -> dict:
    return {"size": g.space.size, "forward": [int(v) for v in g.forward]}


def permutation_from_document(doc: dict, space: StateSpace | None = None) -> Permutation:
    try:
        size = doc["size"]
        images = doc["forward"]
    except (KeyError, TypeError) as exc:
        raise ConfigInvalid(f"permutation document missing size/forward: {exc}") from exc
    size = _integer(size, "permutation size")
    if not isinstance(images, (list, tuple)):
        raise ConfigInvalid(f"permutation forward {images!r} is not a list")
    forward = [_integer(v, "permutation image") for v in images]
    if space is None:
        space = _space(size, None, "permutation document")
    elif space.size != size:
        raise ConfigInvalid("permutation document size differs from the target space")
    return make_permutation(space, forward)


def _csv_text(header, rows) -> str:
    """Header row, then one line per row, `\\n` line ends.  csv writes a float
    (numpy float64 too) as its shortest round-trip repr, infinity as `inf`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
