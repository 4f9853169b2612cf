"""Kernel and permutation interchange documents, and the CSV writer.

Kernels travel as JSON objects {size, labels?, triplets} where triplets is a
list of [row, col, value] for the nonzero entries, sorted by (row, col) so a
document is byte-stable for a given kernel.  Loading validates
row-stochasticity like any other construction path.  Every CSV the package
writes comes from `_csv_text`.
"""
from __future__ import annotations

import csv
import io
import json

import numpy as np

from .core import (
    DENSE_LIMIT,
    MarkovKernel,
    Permutation,
    StateSpace,
    _kernel_from_triplets,
    _sorted_csr,
    make_permutation,
)
from .errors import ConfigInvalid


def kernel_document(kernel: MarkovKernel) -> dict:
    indptr, cols, vals = _sorted_csr(kernel.matrix)
    rows = np.repeat(np.arange(kernel.size), np.diff(indptr))
    # _sorted_csr lists entries row by row, columns ascending
    triplets = [
        [r, c, v] for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()) if v != 0.0
    ]
    doc = {"size": kernel.size, "triplets": triplets}
    if kernel.space.labels is not None:
        doc["labels"] = list(kernel.space.labels)
    return doc


def kernel_from_document(doc: dict, dense_limit: int = DENSE_LIMIT) -> MarkovKernel:
    try:
        size = int(doc["size"])
        triplets = doc["triplets"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"kernel document missing size/triplets: {exc}") from exc
    labels = doc.get("labels")
    space = StateSpace(size, tuple(labels) if labels is not None else None)
    rows, cols, vals = [], [], []
    for t in triplets:
        if len(t) != 3:
            raise ConfigInvalid(f"triplet {t!r} is not [row, col, value]")
        r, c, v = int(t[0]), int(t[1]), float(t[2])
        if not (0 <= r < size and 0 <= c < size):
            raise ConfigInvalid(f"triplet {t!r} indexes outside the space")
        rows.append(r)
        cols.append(c)
        vals.append(v)
    return _kernel_from_triplets(space, rows, cols, vals, dense_limit=dense_limit)


def save_kernel(kernel: MarkovKernel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(kernel_document(kernel), fh, sort_keys=True)
        fh.write("\n")


def load_kernel(path: str, dense_limit: int = DENSE_LIMIT) -> MarkovKernel:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"not a JSON kernel document: {exc}") from exc
    return kernel_from_document(doc, dense_limit=dense_limit)


def permutation_document(g: Permutation) -> dict:
    return {"size": g.space.size, "forward": [int(v) for v in g.forward]}


def permutation_from_document(doc: dict, space: StateSpace | None = None) -> Permutation:
    try:
        size = int(doc["size"])
        forward = [int(v) for v in doc["forward"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"permutation document missing size/forward: {exc}") from exc
    if space is None:
        space = StateSpace(size)
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
