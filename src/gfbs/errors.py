"""Exception types shared across the toolkit, mapped to CLI exit codes,
and the text reader that maps undecodable bytes to a FormatError."""

import io


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
