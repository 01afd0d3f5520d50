"""The data files: the five-column data CSV the estimators read, and the
latent-truth, effect-curve and per-replication CSVs the CLI writes.  All are
UTF-8 with LF line ends, and floats are written with ``repr``, so a data file
reads back bit for bit.
"""
from __future__ import annotations

import csv
import itertools
import math
import operator
import warnings
from typing import NoReturn

import numpy as np

from .dgp import ExperimentData, GroupData
from .errors import ValidationError

CSV_HEADER = ("group_id", "saturation", "z", "d", "y")
_CSV_DTYPE = np.dtype(list(zip(CSV_HEADER, ("i8", "f8", "i8", "i8", "f8"))))


def _utf8_lines(lines):
    """The lines of a file read with ``errors="surrogateescape"``, which puts each
    byte that is not UTF-8 at U+DC80..U+DCFF; raises at the first such line."""
    for lineno, line in enumerate(lines, start=1):  # the header is row 1
        if any("\udc80" <= ch <= "\udcff" for ch in line):
            raise ValidationError(f"row {lineno}: not UTF-8 text")
        yield line


def _csv_rows(lines, start: int):
    """csv.reader's rows of ``lines``, numbered from ``start``.  A csv fault,
    such as a field beyond csv's size limit or an unclosed quote that runs into
    one, is a fault of the row being read."""
    reader = csv.reader(lines)
    for lineno in itertools.count(start):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValidationError(f"row {lineno}: {exc}") from None
        yield lineno, row


def _reject_rows(path) -> NoReturn:
    """Check the file one row at a time and raise for the first fault.

    The slow twin of ``ingest_csv``'s vectorized checks, run only on a file
    that fails them, so that the error names the faulty row and reason.
    Each line is decoded on its own, so a line that is not UTF-8 is one more
    row fault.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = _utf8_lines(fh)
        first = next(lines, "")
        header = next(_csv_rows([first.removesuffix("\n")], 1))[1] if first else None
        if header is None or tuple(header) != CSV_HEADER:
            raise ValidationError(f"bad header {header}; expected {','.join(CSV_HEADER)}")
        groups: dict[int, list] = {}  # group id -> [saturation, first row, size]
        for lineno, row in _csv_rows(lines, 2):
            if len(row) != 5:
                raise ValidationError(f"row {lineno}: expected 5 fields, got {len(row)}")
            try:
                gid, sat, z, d, y = (f(v) for f, v in zip((int, float, int, int, float), row))
            except ValueError as exc:
                raise ValidationError(f"row {lineno}: {exc}") from None
            if z not in (0, 1) or d not in (0, 1):
                raise ValidationError(f"row {lineno}: z and d must be 0 or 1")
            if d > z:
                raise ValidationError(f"row {lineno}: one-sided compliance violated (d=1 with z=0)")
            if not 0.0 <= sat <= 1.0:
                raise ValidationError(f"row {lineno}: saturation {sat} outside [0, 1]")
            if not math.isfinite(y):
                raise ValidationError(f"row {lineno}: outcome must be finite")
            rec = groups.setdefault(gid, [sat, lineno, 0])
            if rec[0] != sat:
                raise ValidationError(f"row {lineno}: saturation differs within group {gid}")
            rec[2] += 1
    if not groups:
        raise ValidationError("data file contains no rows")
    for gid, (_, line, size) in groups.items():
        if size < 2:
            raise ValidationError(
                f"group {gid} has a single member (first row {line}); need at least two"
            )
    raise ValidationError(
        "data file holds a number numpy does not parse: a digit separator (1_0), "
        "a non-ASCII digit or an integer beyond 64 bits"
    )


def ingest_csv(path) -> ExperimentData:
    """Read the data CSV (header group_id,saturation,z,d,y), validating each row.

    A faulty file is rejected naming its first faulty row (the header is
    row 1) and the first check that row fails: UTF-8 text, fields within
    csv's size limit of 131,072 characters, five fields (a blank line has
    none), integer group id, z and d and float saturation and y, binary z
    and d, d <= z, saturation in [0, 1], finite y, and the saturation of
    the group's first row.  Then every group needs at least two rows.
    Groups keep the order of their first row, and rows their file order.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        _reject_rows(path)
    end = text.find("\n")
    header = next(_csv_rows([text[:end]], 1))[1]
    # a bad header, no data row, or a blank data line ("\n\n", as the header
    # holds no newline), which np.loadtxt would skip
    faulty = tuple(header) != CSV_HEADER or not 0 <= end < len(text) - 1 or "\n\n" in text
    # At most one data row per newline, the header's counting for a last line
    # without one.  Given that bound numpy allocates its parse buffer once;
    # grown in place at the top of the heap, the freed buffer would leave an
    # untrimmable hole under the data, and the fits' peak memory would depend
    # on where the allocator happened to put it.
    max_rows = text.count("\n")
    del text  # numpy parses the rows from the file, a line at a time
    if faulty:
        _reject_rows(path)
    try:
        # numpy releases before 2.0 only warn, and truncate, on "1.5" in an int column
        with warnings.catch_warnings(), open(path, encoding="utf-8") as fh:
            warnings.simplefilter("error", DeprecationWarning)
            fh.readline()  # the header
            rec = np.loadtxt(
                fh, dtype=_CSV_DTYPE, delimiter=",", comments=None, quotechar='"', ndmin=1,
                max_rows=max_rows,
            )
    except (ValueError, DeprecationWarning):
        _reject_rows(path)

    ids, first, inverse = np.unique(rec["group_id"], return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    position = np.empty_like(by_first)
    position[by_first] = np.arange(len(ids))
    group_of = position[inverse]
    sizes = np.bincount(group_of)
    sat, z, d, y = rec["saturation"], rec["z"], rec["d"], rec["y"]
    bad = (
        (z < 0) | (z > 1) | (d < 0) | (d > 1) | (d > z)
        | ~((sat >= 0.0) & (sat <= 1.0))
        | ~np.isfinite(y)
        | (sat != sat[first][inverse])
    )
    if bad.any() or (sizes < 2).any():
        _reject_rows(path)

    order = np.argsort(group_of, kind="stable")
    z, d, y = z[order].astype(np.int8), d[order].astype(np.int8), y[order]
    ends = np.cumsum(sizes).tolist()
    groups = [
        GroupData(group_id=gid, saturation=s, z=z[a:b], d=d[a:b], y=y[a:b])
        for gid, s, a, b in zip(
            ids[by_first].tolist(), sat[first[by_first]].tolist(), [0] + ends[:-1], ends
        )
    ]
    return ExperimentData(groups, check=False)


def write_data_csv(data: ExperimentData, path) -> None:
    """Write the pinned data schema: group_id,saturation,z,d,y (one row per individual)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for g in data.groups:
            # one line prefix per (z, d), indexed by 2z + d; z and d are binary
            head = f"{g.group_id},{float(g.saturation)!r},"
            prefix = [f"{head}{z},{d}," for z in (0, 1) for d in (0, 1)]
            cell = _ints(2 * np.asarray(g.z) + np.asarray(g.d))
            lines = map(operator.add, map(prefix.__getitem__, cell), map(repr, _floats(g.y)))
            fh.write("\n".join(lines) + "\n")


def write_latent_csv(data: ExperimentData, path) -> None:
    """Latent-truth schema: group_id,complier,alpha,beta,gamma,delta."""
    if not data.has_latent:
        raise ValidationError("data has no latent truth (not generated by the simulator)")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("group_id,complier,alpha,beta,gamma,delta\n")
        for g in data.groups:
            prefix = [f"{g.group_id},{c}," for c in (0, 1)]  # by the binary complier flag
            coefs = map(repr, _floats(g.coefs.ravel()))
            rows = map(",".join, zip(coefs, coefs, coefs, coefs))
            lines = map(operator.add, map(prefix.__getitem__, _ints(g.complier)), rows)
            fh.write("\n".join(lines) + "\n")


def write_curves_csv(curves, path) -> None:
    """Effect-curve schema: kind,dbar,estimate,se,ci_low,ci_high, one row per
    grid point; a potential-outcome line's kind carries its label."""
    from .effects import KIND_PO_LINE  # effects imports estimator, which imports this module

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("kind,dbar,estimate,se,ci_low,ci_high\n")
        for c in curves:
            kind = c.kind if c.kind != KIND_PO_LINE else f"{c.kind}:{c.label}"
            for vals in zip(c.grid, c.point, c.se, c.ci_low, c.ci_high):
                fh.write(kind + "," + ",".join(repr(float(v)) for v in vals) + "\n")


def per_replication_csv_lines(report):
    """CSV lines (rep, name, estimate, se) of a Monte Carlo report, for external plotting."""
    yield "rep,name,estimate,se"
    for rep, rec in enumerate(report.per_replication):
        if rec is None:
            continue
        for name, (est, se) in rec.items():
            yield f"{rep},{name},{est!r},{se!r}"


def _ints(v: np.ndarray) -> list[int]:
    """Python ints, as ``int()`` gives them, for fast per-group formatting."""
    return np.asarray(v).astype(np.int64).tolist()


def _floats(v: np.ndarray) -> list:
    """Python floats, as ``float()`` gives them, for fast per-group formatting."""
    return np.asarray(v, dtype=float).tolist()
