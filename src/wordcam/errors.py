"""Exception taxonomy shared by the pipeline and the CLI exit codes, and the
two helpers that turn a bad input file into a DataError."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path


class ConfigError(ValueError):
    """Invalid or contradictory configuration (CLI exit code 2)."""


class DataError(ValueError):
    """Unreadable, empty, or malformed input data (CLI exit code 3)."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss (CLI exit code 4)."""


@contextmanager
def malformed(path: Path | str, what: str = "header"):
    """Raise DataError for a field of ``path`` that the block finds missing,
    mistyped or out of range. A ConfigError raised here comes from the
    artifact's contents, not from the configuration, so it is one too."""
    try:
        yield
    except DataError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {what} ({exc!r})") from exc


def read_text(path: Path | str, what: str = "file") -> str:
    """The text of a UTF-8 file. One that cannot be read (missing, a
    directory, no permission) or is not UTF-8 raises DataError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot read {what} ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: {what} is not UTF-8 ({exc.reason} at byte {exc.start})"
        ) from exc
