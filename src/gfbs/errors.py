"""Exception types shared across the toolkit, mapped to CLI exit codes,
and the one framing of every text artifact: a UTF-8 reader that maps
undecodable bytes to a FormatError, a CSV reader and writer, and a JSON
writer."""

import csv
import io
import json
from pathlib import Path


class GfbsError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ConfigError(GfbsError):
    """Invalid configuration, shapes, arguments, or API usage."""

    exit_code = 2


class NumericError(GfbsError):
    """Non-finite values or numeric divergence."""

    exit_code = 3


class FormatError(GfbsError):
    """Malformed files: checkpoints, IDX archives, CSVs, network specs."""

    exit_code = 4


def open_text(path) -> io.StringIO:
    """``path`` read like ``open(path, newline="")``, but decoded as UTF-8 up
    front, so undecodable bytes are a FormatError rather than a crash mid-read."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return io.StringIO(raw.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def read_csv(path, header: list[str]):
    """Yield ``(lineno, row)`` for each row of the CSV at ``path`` after
    checking that its first line is ``header`` and that the row has one
    field per header name. Text the csv module cannot split, such as an
    unclosed quote running past its field-size limit, is a FormatError."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found != header:
                raise FormatError(f"{path}: unexpected CSV header {found}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise FormatError(f"{path}:{lineno}: expected {len(header)} fields")
                yield lineno, row
        except csv.Error as exc:
            raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc


def write_csv(path, header: list[str], rows) -> None:
    """``header`` and then ``rows`` as CSV with ``\\n`` line ends; floats
    are written in ``.9g``, every other value as ``str`` gives it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{v:.9g}" if isinstance(v, float) else v for v in row]
                         for row in rows)


def write_json(path, doc) -> None:
    """``doc`` as JSON with a two-space indent and a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
