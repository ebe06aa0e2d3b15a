"""CSV emission with exact float round-trips.

Every table the package writes goes through here: header row mandatory,
UTF-8, "\n" line endings, floats at 17 significant digits (enough for
float64 to re-parse to the same bits), so identical runs produce identical
bytes. A file is replaced atomically, only once every row has been
formatted.
"""

import csv
import io

from ._container import write_atomic
from .errors import ConfigError


def format_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def write_csv(path, header, rows) -> None:
    """rows: iterable of dicts keyed by the header names (exactly)."""
    header = tuple(header)
    if not header:
        raise ConfigError("header must be non-empty")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        extra = set(row) - set(header)
        if extra:
            raise ConfigError(f"row has keys outside the header: {sorted(extra)}")
        w.writerow([format_value(row.get(k, "")) for k in header])
    write_atomic(path, buf.getvalue().encode("utf-8"))


def read_csv(path):
    """(header, rows-as-string-dicts); the inverse of write_csv up to type."""
    with open(path, encoding="utf-8", newline="") as f:
        r = csv.reader(f)
        try:
            header = tuple(next(r))
        except StopIteration:
            raise ConfigError(f"{path} is empty, expected a header row") from None
        return header, [dict(zip(header, row)) for row in r]
