"""Text output shared by every writer: delimited tables and JSON documents,
both carrying the run metadata (config hash, seed, version)."""

from __future__ import annotations

import csv
import json

import numpy as np

__all__ = ["write_table", "write_json"]


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
    with open(path, "w", newline="") as fh:
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
    with open(path, "w") as fh:
        fh.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
