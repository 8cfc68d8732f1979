"""Issue-tracker corpus ingestion: tokenization, the token store, vocabulary.

``read_corpus`` reads a UTF-8 JSON-lines file, one issue per line,

    {"id": "X-1", "priority": "Blocker", "title": "...", "description": "...",
     "comments": [{"ts": "2015-01-01T00:00:00Z", "body": "..."}]}

straight into a ``TokenStore``; no per-issue object is built. ``ts``, like
any key not shown here, is accepted and not read; a missing ``comments``
or a null ``comments`` means no comments, and a missing or null title,
description or body means no text. Any other value of those and of ``id``
is read as its ``str()``. A line is read as exactly what ``json.loads``
accepts, NaN, infinities and lone-surrogate escapes included.

Tokens are the maximal runs of ASCII letters ``a``-``z`` in the text after
Unicode lowercasing; every other character is a delimiter, digits, non-ASCII
letters and lone surrogates included.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import os
import pickle
from array import array
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .artifacts import (
    CorpusFormatError,
    LineError,
    pack_strings,
    read_records,
    text_lines,
    unpack_strings,
    write_records,
    write_rows,
)
from .parallel import forked, split

logger = logging.getLogger(__name__)

#: Byte table of ``tokenize``: keeps ``a``-``z`` and makes every other byte a space.
_LETTERS = bytes(byte if 0x61 <= byte <= 0x7A else 0x20 for byte in range(256))


class Priority(Enum):
    BLOCKER = "Blocker"
    CRITICAL = "Critical"
    MAJOR = "Major"
    MINOR = "Minor"
    TRIVIAL = "Trivial"
    UNKNOWN = "Unknown"


#: A priority's int8 code in the token store and the score table: its position in Priority.
PRIORITY_CODES = {member: code for code, member in enumerate(Priority)}
_CODE_BY_LABEL = {member.value.lower(): code for member, code in PRIORITY_CODES.items()}
_UNKNOWN_CODE = PRIORITY_CODES[Priority.UNKNOWN]


class Field(Enum):
    TITLE = "title"
    DESCRIPTION = "description"
    ALL_COMMENTS = "all_comments"
    FIRST_COMMENT = "first_comment"
    LAST_COMMENT = "last_comment"


def tokenize(text: str) -> list[str]:
    """The maximal runs of ``a``-``z`` in ``text.lower()``.

    Every other character is a delimiter, so "don't" yields ["don", "t"],
    "5s" yields ["s"] and "naïve" yields ["na", "ve"]. The UTF-8 bytes of a
    non-ASCII character, lone surrogates included, are all 0x80 or above,
    so the byte table turns each of them into a space.
    """
    return text.lower().encode("utf-8", "surrogatepass").translate(_LETTERS).decode(
        "ascii").split()


def read_corpus(path: str | Path) -> TokenStore:
    """Tokenize a JSON-lines corpus file into a token store.

    Malformed records, a null ``id``, a line nested too deeply for
    ``json.loads`` and one holding an integer too long for it included,
    are logged with their line number and skipped; a repeated or non-UTF-8
    issue id raises CorpusFormatError, as do the errors of ``text_lines``.
    The first error in file order is raised, and no warning after it is logged.

    The file is read in contiguous line ranges (see ``_line_ranges``) at
    once: this process reads the first, and a forked child reads each other
    range into a partial store, which is merged in range order. A word's id
    is its rank of first occurrence in the file, so the store is the one a
    single pass gives. A child that fails raises RuntimeError naming the
    path and the first line and byte of its range; no child outlives the call.
    """
    first, *others = _line_ranges(path)
    first_line: dict[str, int] = {}
    stores, lines, skipped = [], 0, 0

    def name(start: int, stop: Optional[int]) -> str:
        return f"{path}: the process reading from line {lines + 1} (byte {start})"

    with forked(functools.partial(_spool_part, path), others, name) as spools:
        for part in itertools.chain([_read_part(path, *first)], map(pickle.load, spools)):
            error = part.error
            for issue_id, line in zip(part.store.issue_ids, part.issue_lines):
                seen = first_line.setdefault(issue_id, lines + line)
                if seen != lines + line:
                    error = (line, f"duplicate issue id {issue_id!r} (first on line {seen})")
                    break
            for line, problem in part.warnings:
                if error and line > error[0]:
                    break
                logger.warning("line %d: %s", lines + line, problem)
            if error:
                raise LineError(path, lines + error[0], error[1])
            stores.append(part.store)
            lines += part.lines
            skipped += len(part.warnings)
    if skipped:
        logger.warning("%s: skipped %d malformed record(s)", path, skipped)
    return _concatenated(stores)


#: Fewest corpus bytes in one line range of ``read_corpus``. On a 2-core
#: host, 1 MiB of the synthetic corpus took 32-36 ms to read, against
#: 6-9 ms to fork a child, pickle its part and merge it; the 1.5 MB
#: zipf-vocab corpus, whose 30k-word dictionary the merge remaps, read no
#: faster in two ranges (57.0 ms against 59.7 ms), so it stays one.
_READ_PARALLEL_MIN = 1 << 20

def _line_ranges(path: str | Path) -> list[tuple[int, Optional[int]]]:
    """(start, stop) byte bounds of the line ranges of a corpus file: the
    ranges of ``split`` at ``_READ_PARALLEL_MIN`` bytes, each cut moved to
    just after the next line feed. The last stop is None, the end of the file."""
    try:
        size = os.path.getsize(path)
    except OSError:  # text_lines names the error
        size = 0
    cuts = [0]
    nominal = split(size, size, _READ_PARALLEL_MIN)[1:]
    if nominal:
        with open(path, "rb") as file:
            for start, _ in nominal:
                file.seek(max(start, cuts[-1]))
                file.readline()  # up to and including the next b"\n"
                if file.tell() < size:
                    cuts.append(file.tell())
    return list(zip(cuts, [*cuts[1:], None]))


@dataclass
class _Part:
    """One line range read into a token store, lines numbered from its first
    line: ``issue_lines`` holds the line of each issue, ``warnings`` the
    (line, problem) of each malformed record, ``error`` the (line, problem)
    that ended the read early."""

    store: TokenStore
    issue_lines: array
    warnings: list[tuple[int, str]]
    lines: int
    error: Optional[tuple[int, str]]


def _read_part(path: str | Path, start: int, stop: Optional[int]) -> _Part:
    """Read the lines in bytes ``start`` up to ``stop`` of the corpus file."""
    index: defaultdict[str, int] = defaultdict()
    index.default_factory = index.__len__  # a new word gets the next id
    ids, offsets, issue_streams = array("i"), array("q", [0]), array("q", [0])
    issue_ids, priority, issue_lines, warnings = [], array("b"), array("q"), []
    known: set[str] = set()
    lineno, error = 0, None
    try:
        for lineno, line in text_lines(path, start, stop):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # also an integer past sys.get_int_max_str_digits()
                problem = f"invalid JSON ({getattr(exc, 'msg', exc)})"
            except RecursionError:
                problem = "invalid JSON (nested too deeply)"
            else:
                problem = _record_problem(record)
            if problem:
                warnings.append((lineno, problem))
                continue
            issue_id = str(record["id"])
            texts = [record.get("title"), record.get("description"),
                     *(entry.get("body") for entry in record.get("comments") or ())]
            label = record.get("priority")
            code = (_CODE_BY_LABEL.get(label.strip().lower(), _UNKNOWN_CODE)
                    if isinstance(label, str) else _UNKNOWN_CODE)
            try:
                issue_id.encode("utf-8")
            except UnicodeEncodeError:
                raise LineError(path, lineno, f"issue id {issue_id!r} cannot be encoded "
                                              "as UTF-8") from None
            for text in texts:  # a missing or null text is no text
                ids.extend(map(index.__getitem__, tokenize("" if text is None else str(text))))
                offsets.append(len(ids))
            issue_streams.append(len(offsets) - 1)
            issue_ids.append(issue_id)
            priority.append(code)
            issue_lines.append(lineno)
            if issue_id in known:
                break  # a repeated id, which read_corpus names with both lines
            known.add(issue_id)
    except LineError as exc:
        error = (exc.line, exc.problem)
    index.default_factory = None  # the bound __len__ would keep the dictionary in a cycle
    store = TokenStore(np.frombuffer(ids, dtype=np.intc).astype(np.int32, copy=False),
                       list(index), issue_ids, np.frombuffer(offsets, dtype=np.int64),
                       np.frombuffer(issue_streams, dtype=np.int64),
                       np.frombuffer(priority, dtype=np.int8))
    return _Part(store, issue_lines, warnings, lineno, error)


def _spool_part(path: str | Path, spool, start: int, stop: Optional[int]) -> None:
    """Pickle the part of bytes ``start`` up to ``stop`` to ``spool``."""
    pickle.dump(_read_part(path, start, stop), spool, pickle.HIGHEST_PROTOCOL)


def _concatenated(stores: list[TokenStore]) -> TokenStore:
    """A lone store as it is, or the stores of consecutive line ranges with
    their ids mapped to those of the whole file and their bounds shifted,
    concatenated."""
    if len(stores) == 1:
        return stores[0]
    words: dict[str, int] = {}
    ids, offsets, issue_streams = [], [np.zeros(1, np.int64)], [np.zeros(1, np.int64)]
    tokens = streams = 0
    for part in stores:
        ids.append(np.fromiter((words.setdefault(w, len(words)) for w in part.words),
                               dtype=np.int32, count=len(part.words))[part.ids])
        offsets.append(part.offsets[1:] + tokens)
        issue_streams.append(part.issue_streams[1:] + streams)
        tokens, streams = tokens + len(part.ids), streams + len(part.offsets) - 1
    return TokenStore(np.concatenate(ids), list(words),
                      [issue_id for part in stores for issue_id in part.issue_ids],
                      np.concatenate(offsets), np.concatenate(issue_streams),
                      np.concatenate([part.priority for part in stores]))


def _record_problem(record: object) -> Optional[str]:
    """Why a decoded line is not an issue record, or None if it is one."""
    if not isinstance(record, dict) or "id" not in record:
        return "record is not an object with an 'id'"
    if record["id"] is None:
        return "'id' is null"
    comments = record.get("comments")  # missing or null: no comments
    if comments is not None and not isinstance(comments, list):
        return "'comments' is not a list"
    if not all(isinstance(entry, dict) for entry in comments or ()):
        return "comment entry is not an object"
    return None


#: First record of a token store file, checked on load.
_STORE_TAG = b"arousalkit token store 2"


@dataclass(frozen=True, eq=False)
class TokenStore:
    """The tokenized corpus as one array of token ids.

    ``ids`` (int32) index ``words``, the full dictionary in order of first
    occurrence, with no frequency cut. The tokens form one stream per
    text: title, description, then each comment, issue by issue in corpus
    order. Stream k is ``ids[offsets[k]:offsets[k + 1]]``; issue i (id
    ``issue_ids[i]``) owns streams ``issue_streams[i]`` up to, but not
    including, ``issue_streams[i + 1]``, and has the int8 priority code
    ``priority[i]`` (``PRIORITY_CODES``).
    """

    ids: np.ndarray
    words: list[str]
    issue_ids: list[str]
    offsets: np.ndarray
    issue_streams: np.ndarray
    priority: np.ndarray

    def units(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Token bounds of the five scoring units of every issue.

        Returns (starts, ends, present), each of shape (issues, 5) with the
        columns in Field order; unit (i, f) is ``ids[starts[i, f]:ends[i, f]]``.
        Title and description are always present, the comment units only
        when the issue has a comment: all_comments is the run of comment
        streams, first_comment and last_comment the first and last of them.
        An absent unit is empty.
        """
        # stream indices: title, then description, then the comments up to end
        title, end = self.issue_streams[:-1], self.issue_streams[1:]
        comments = title + 2
        off = self.offsets
        starts = np.stack([off[title], off[title + 1], off[comments], off[comments],
                           off[end - 1]], axis=1)
        ends = np.stack([off[title + 1], off[comments], off[end],
                         off[np.minimum(comments + 1, end)], off[end]], axis=1)
        present = np.ones(starts.shape, dtype=bool)
        present[:, 2:] = (end > comments)[:, None]
        return np.where(present, starts, ends), ends, present

    def save(self, path: str | Path) -> None:
        """Nine .npy records back to back: a format tag, ``ids``, ``offsets``,
        ``issue_streams``, the UTF-8 bytes and byte offsets of the words and
        of the issue ids, then ``priority``. The file holds no timestamp, so
        saving the same store twice gives the same bytes."""
        write_records(path, _STORE_TAG, (self.ids, self.offsets, self.issue_streams,
                                         *pack_strings(self.words),
                                         *pack_strings(self.issue_ids), self.priority))

    @classmethod
    def load(cls, path: str | Path) -> "TokenStore":
        """Read a store written by ``save``; a short, corrupt or inconsistent
        file, one whose dictionary repeats a word or whose issue ids repeat
        included, raises CorpusFormatError naming the path."""
        return read_records(path, "token store", _STORE_TAG, _STORE_LAYOUT, _unpack_store)


#: dtype and number of dimensions of each token store record after the tag
_STORE_LAYOUT = ((np.int32, 1), (np.int64, 1), (np.int64, 1), (np.uint8, 1), (np.int64, 1),
                 (np.uint8, 1), (np.int64, 1), (np.int8, 1))


def _unpack_store(ids, offsets, issue_streams, word_data, word_offsets, id_data,
                  id_offsets, priority) -> TokenStore:
    words = unpack_strings(word_data, word_offsets)
    issue_ids = unpack_strings(id_data, id_offsets)
    if (offsets[0] != 0 or offsets[-1] != len(ids) or np.any(np.diff(offsets) < 0)
            or issue_streams[0] != 0 or issue_streams[-1] != len(offsets) - 1
            or np.any(np.diff(issue_streams) < 2) or len(issue_ids) != len(issue_streams) - 1):
        raise ValueError("stream bounds are inconsistent")
    if len(ids) and (ids.min() < 0 or ids.max() >= len(words)):
        raise ValueError("token id outside the dictionary")
    for kind, strings in (("word", words), ("issue id", issue_ids)):
        if len(set(strings)) != len(strings):
            seen: set[str] = set()
            repeat = next(s for s in strings if s in seen or seen.add(s))
            raise ValueError(f"the {kind} {repeat!r} repeats")
    if len(priority) != len(issue_ids):
        raise ValueError("one priority code per issue required")
    if len(priority) and (priority.min() < 0 or priority.max() >= len(Priority)):
        raise ValueError("priority code out of range")
    return TokenStore(ids, words, issue_ids, offsets, issue_streams, priority)


VOCAB_HEADER = ("word", "id", "freq")


class Vocabulary:
    """Words with dense ids assigned by descending frequency, ties broken
    lexicographically: ``words`` in id order and ``freqs`` parallel to it."""

    def __init__(self, counts: dict[str, int], min_count: int = 1):
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        kept = sorted((-c, w) for w, c in counts.items() if c >= min_count)
        self.words: list[str] = [w for _, w in kept]
        self.freqs: list[int] = [-c for c, _ in kept]
        self._ids = {w: i for i, w in enumerate(self.words)}

    def __contains__(self, word: str) -> bool:
        return word in self._ids

    def __len__(self) -> int:
        return len(self.words)

    def lookup(self, words: Iterable[str]) -> np.ndarray:
        """The int32 id of each word, -1 for a word not in the vocabulary."""
        return np.fromiter(map(self._ids.get, words, itertools.repeat(-1)), dtype=np.int32)

    def freq(self, word: str, default: int = 0) -> int:
        i = self._ids.get(word)
        return default if i is None else self.freqs[i]

    def save(self, path: str | Path) -> None:
        write_rows(path, VOCAB_HEADER, zip(self.words, range(len(self.words)), self.freqs))


def build_vocabulary(store: TokenStore, min_count: int = 1) -> Vocabulary:
    """Count every token of the store: titles, descriptions and comments."""
    counts = np.bincount(store.ids, minlength=len(store.words))
    return Vocabulary(dict(zip(store.words, counts.tolist())), min_count=min_count)
