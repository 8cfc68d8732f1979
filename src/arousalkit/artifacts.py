"""Tabular stage artifacts: one CSV dialect, header checks, atomic writes.

Every table a stage writes (vocabulary, seeds, candidates,
rating records, domain lexicon, scores) is UTF-8 text with a header row
and ``\\n`` line ends. A field is quoted only when it contains a comma, a
double quote or a line break (RFC 4180), so any string round-trips.

The binary artifacts (the token store, the embedding and the score table
``scores.bin``) are ``.npy`` records back to back, the first one a format
tag, with no pickles and no timestamps, so the same content always gives
the same bytes.

Artifact files are written to a sibling temporary file that replaces the
target only once the write has completed, so a stage that fails midway
leaves the previous artifact as it was. Every text file the program reads,
table or outside input, is read by ``text_lines``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import tokenize
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


class CorpusFormatError(Exception):
    """Raised when a corpus, lexicon, or artifact file cannot be used at all."""


class LineError(CorpusFormatError):
    """A CorpusFormatError at one line of a file: "path:line: problem"."""

    def __init__(self, path: str | Path, line: int, problem: str):
        super().__init__(f"{path}:{line}: {problem}")
        self.line, self.problem = line, problem


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


def quote_cells(strings: Iterable[str], path: str | Path) -> list[str]:
    """Each string as ``write_rows`` writes it in a row of more than one cell."""
    lines: list[str] = []
    try:
        csv.writer(SimpleNamespace(write=lines.append)).writerows((s, "") for s in strings)
    except csv.Error as exc:
        raise CorpusFormatError(f"{path}: cannot write row: {exc}") from None
    return [line[:-3] for line in lines]  # less the empty cell and "\r\n"


def text_lines(path: str | Path, start: int = 0,
               stop: Optional[int] = None) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) of a UTF-8 text file, the line end kept; a
    byte-order mark at the start of the file is dropped, one elsewhere is content.
    Only the lines that begin in bytes ``start`` up to ``stop`` (None: the end
    of the file) are read; ``start`` and ``stop`` must each begin a line, and
    the lines are numbered from 1 at ``start``.
    An unreadable file raises CorpusFormatError naming the path, and a byte
    that is not UTF-8 raises LineError with the line and column of the byte."""
    try:
        data = open(path, "rb")
    except OSError as exc:
        raise CorpusFormatError(f"cannot read {path}: {exc}") from exc
    with data:
        data.seek(start)
        # a byte that is not UTF-8 becomes a lone surrogate, which the line check refuses
        handle = io.TextIOWrapper(data, encoding="utf-8", errors="surrogateescape", newline="")
        left = math.inf if stop is None else stop - start  # bytes of the range not yet yielded
        for lineno, line in enumerate(handle, 1):
            if left <= 0:  # the handle may have buffered past ``stop``
                return
            # a byte-order mark is not content; utf-8-sig would also drop a file
            # of one or two bytes of a mark (EF, or EF BB) unread
            if lineno == 1 and start == 0 and line.startswith("\ufeff"):
                line, left = line[1:], left - 3
                if not line:  # the file was the mark alone
                    return
            try:
                left -= len(line.encode("utf-8"))
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise LineError(path, lineno, f"byte 0x{byte:02x} at column {exc.start + 1} "
                                              "is not UTF-8") from None
            yield lineno, line


def read_rows(path: str | Path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, row) after the header.

    The line number is where the row starts, for content errors raised by
    the caller. A missing or different header, a row with the wrong
    number of columns, or broken quoting raises CorpusFormatError, as do
    the errors of ``text_lines``.
    """
    reader = csv.reader((line for _, line in text_lines(path)), strict=True)
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


def read_table(path: str | Path, header: Sequence[str], parse: Callable[..., T],
               key: Sequence[str] = ("word",)) -> list[T]:
    """``parse(*cells)`` of each row after the header, in file order.

    The ``key`` columns identify a row. A ValueError raised by ``parse``, or
    a row whose key cells equal those of an earlier row, raises
    CorpusFormatError with the path and line, as do the errors of
    ``read_rows``.
    """
    key_of = itemgetter(*map(list(header).index, key))
    first_line: dict = {}
    entries = []
    for lineno, cells in read_rows(path, header):
        try:
            entries.append(parse(*cells))
        except ValueError as exc:
            raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None
        row_key = key_of(cells)
        first = first_line.setdefault(row_key, lineno)
        if first != lineno:
            raise CorpusFormatError(f"{path}:{lineno}: duplicate {', '.join(key)} {row_key!r} "
                                    f"(first on line {first})")
    return entries


def write_records(path: str | Path, tag: bytes, records: Iterable[np.ndarray]) -> None:
    """Write ``tag`` and then each record as ``.npy`` records, atomically."""
    with atomic_open(path, "wb") as out:
        for record in (np.frombuffer(tag, dtype=np.uint8), *records):
            np.lib.format.write_array(out, record, allow_pickle=False)


def read_records(path: str | Path, what: str, tag: bytes,
                 layout: Sequence[tuple[type, int]], decode: Callable[..., T]) -> T:
    """Read a file written by ``write_records`` and return ``decode(*records)``.

    ``layout`` gives the dtype and number of dimensions of each record
    after the tag. A short, corrupt or trailing-byte file, another tag, a
    record of another type or shape, a record that declares more data than
    the file holds, or a ValueError raised by ``decode`` raises
    CorpusFormatError naming the path and ``what`` was expected.
    """
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if _read_record(handle, size).tobytes() != tag:
                raise ValueError("unknown format tag")
            records = [_read_record(handle, size) for _ in layout]
            if handle.read(1):
                raise ValueError("trailing bytes after the last record")
        if any(r.dtype != np.dtype(t) or r.ndim != n for r, (t, n) in zip(records, layout)):
            raise ValueError("unexpected record shape or type")
        return decode(*records)
    except OSError as exc:
        raise CorpusFormatError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, IndexError, EOFError, SyntaxError, tokenize.TokenError) as exc:
        raise CorpusFormatError(f"{path}: not a valid {what}: {exc}") from None


def _read_record(handle: IO[bytes], size: int) -> np.ndarray:
    """The ``.npy`` record at ``handle`` in a file of ``size`` bytes; one that declares
    more data than the file holds raises ValueError before numpy allocates it."""
    npy, start = np.lib.format, handle.tell()
    read_header = {(1, 0): npy.read_array_header_1_0,
                   (2, 0): npy.read_array_header_2_0}.get(npy.read_magic(handle))
    if read_header is None:
        raise ValueError("unsupported .npy format version")
    shape, _, dtype = read_header(handle)
    if math.prod(shape) * dtype.itemsize > size - handle.tell():
        raise ValueError(f"a record of shape {shape} runs past the end of the file")
    handle.seek(start)
    return npy.read_array(handle, allow_pickle=False)


def pack_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of ``strings`` and the byte offset of each, for a record pair."""
    encoded = [s.encode("utf-8") for s in strings]
    ends = np.cumsum([len(b) for b in encoded], dtype=np.int64)
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), np.concatenate([[0], ends])


def unpack_strings(data: np.ndarray, offsets: np.ndarray) -> list[str]:
    """Inverse of ``pack_strings``; inconsistent offsets or bad UTF-8 raise ValueError."""
    if offsets[0] != 0 or offsets[-1] != len(data) or np.any(np.diff(offsets) < 0):
        raise ValueError("string offsets do not match their bytes")
    raw, bounds = data.tobytes(), offsets.tolist()
    return [raw[a:b].decode("utf-8") for a, b in zip(bounds[:-1], bounds[1:])]
