"""Plain-text file formats.

Matrices follow the 4ti2 convention: a header line ``nrows ncols`` followed
by whitespace-separated integer entries row by row.  Tables are one-row
matrices; move sets are matrices with one move per row.  Structural-zero
masks are one 0-based comma-separated multi-index per line.
"""
from __future__ import annotations

from pathlib import Path

from .cells import Table
from .errors import ZeroOneError


class FileFormatError(ZeroOneError):
    pass


def write_matrix(path, rows) -> None:
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    lines = [f"{len(rows)} {ncols}"]
    for r in rows:
        if len(r) != ncols:
            raise FileFormatError("ragged rows")
        lines.append(" ".join(str(int(v)) for v in r))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path) -> list[list[int]]:
    tokens = Path(path).read_text().split()
    if len(tokens) < 2:
        raise FileFormatError(f"{path}: missing header")
    try:
        nrows, ncols = int(tokens[0]), int(tokens[1])
        entries = [int(t) for t in tokens[2:]]
    except ValueError as e:
        raise FileFormatError(f"{path}: non-integer entry") from e
    if len(entries) != nrows * ncols:
        raise FileFormatError(
            f"{path}: expected {nrows * ncols} entries, found {len(entries)}"
        )
    return [entries[i * ncols : (i + 1) * ncols] for i in range(nrows)]


def _read_row(path, what: str) -> tuple[int, ...]:
    rows = read_matrix(path)
    if len(rows) != 1:
        raise FileFormatError(f"{path}: a {what} file must have exactly one row")
    return tuple(rows[0])


def write_vector(path, t) -> None:
    write_matrix(path, [list(t)])


def read_vector(path) -> tuple[int, ...]:
    return _read_row(path, "vector")


def write_table(path, x: Table) -> None:
    write_vector(path, x.values)


def read_table(path) -> Table:
    return Table(_read_row(path, "table"))


def write_mask(path, zeros) -> None:
    lines = [",".join(str(int(c)) for c in z) for z in sorted(zeros)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_mask(path) -> frozenset[tuple[int, ...]]:
    out = set()
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            out.add(tuple(int(tok) for tok in line.split(",")))
        except ValueError as e:
            raise FileFormatError(f"{path}: bad mask line {line!r}") from e
    return frozenset(out)
