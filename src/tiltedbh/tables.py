"""Text output shared by every writer: delimited tables and JSON documents,
both carrying the run metadata (config hash, seed, version), each written
whole or not at all."""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = ["atomic_open", "write_table", "write_json"]


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """A handle on a temporary file beside ``path``, renamed onto ``path``
    when the block ends.  If the block raises, the temporary file is removed
    and ``path`` is left as it was; a killed process leaves at most the
    temporary file, never a truncated ``path`` that looks complete."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest text that reads back exactly
    return str(value)


def write_table(path, columns, rows, metadata: dict | None = None,
                sep: str = ",") -> None:
    """One ``# key=value`` line per metadata item, then the column line
    (none when ``columns`` is empty), then one line per row.  A cell that
    contains the separator, a quote or a line break is quoted."""
    with atomic_open(path, newline="") as fh:
        for key, val in (metadata or {}).items():
            fh.write(f"# {key}={val}\n")
        out = csv.writer(fh, delimiter=sep, lineterminator="\n")
        if columns:
            out.writerow(columns)
        out.writerows([_cell(v) for v in row] for row in rows)


def write_json(path, data: dict, metadata: dict | None = None) -> None:
    """``data`` updated with ``metadata``, as sorted, indented JSON."""
    out = dict(data)
    out.update(metadata or {})
    with atomic_open(path) as fh:
        fh.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
