"""Tabular stage artifacts: one CSV dialect, header checks, atomic writes.

Every table a stage writes (vocabulary, priorities, seeds, candidates,
rating records, domain lexicon, scores) is UTF-8 text with a header row
and ``\\n`` line ends. A field is quoted only when it contains a comma, a
double quote or a line break (RFC 4180), so any string round-trips.

Artifact files are written to a sibling temporary file that replaces the
target only once the write has completed, so a stage that fails midway
leaves the previous artifact as it was.
"""

from __future__ import annotations

import contextlib
import csv
import os
from pathlib import Path
from types import SimpleNamespace
from typing import IO, Iterable, Iterator, Sequence


class CorpusFormatError(Exception):
    """Raised when a corpus, lexicon, or artifact file cannot be used at all."""


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Handle (UTF-8 text for mode "w", bytes for "wb") whose content
    replaces ``path`` when the block exits normally; on an exception the
    temporary file is removed instead."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {"encoding": "utf-8", "newline": ""} if mode == "w" else {}
    try:
        with tmp.open(mode, **text) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows atomically. Non-string cells go through str().
    A cell csv cannot write (NUL on Python 3.10) raises CorpusFormatError."""
    with atomic_open(path) as handle:
        # csv quotes a field only for the characters of its line terminator,
        # so rows are formatted with "\r\n" (a lone "\r" gets quoted too) and
        # stored with "\n".
        sink = SimpleNamespace(write=lambda line: handle.write(line[:-2] + "\n"))
        writer = csv.writer(sink, lineterminator="\r\n")
        try:
            writer.writerow(header)
            writer.writerows(rows)
        except csv.Error as exc:
            raise CorpusFormatError(f"{path}: cannot write row: {exc}") from None


def read_rows(path: str | Path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, row) after the header.

    The line number is where the row starts, for content errors raised by
    the caller. A missing or different header, a row with the wrong
    number of columns, or broken quoting raises CorpusFormatError.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, strict=True)
        try:
            if next(reader, None) != list(header):
                raise CorpusFormatError(f"{path}:1: expected header {','.join(header)!r}")
            lineno = reader.line_num + 1
            for row in reader:
                if len(row) != len(header):
                    raise CorpusFormatError(
                        f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
                    )
                yield lineno, row
                lineno = reader.line_num + 1
        except csv.Error as exc:
            raise CorpusFormatError(f"{path}:{reader.line_num}: {exc}") from None
