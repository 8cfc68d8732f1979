"""Issue-tracker corpus ingestion: parsing, tokenization, text units, vocabulary.

The corpus file is UTF-8 JSON lines, one issue per line:

    {"id": "X-1", "priority": "Blocker", "title": "...", "description": "...",
     "comments": [{"ts": "2015-01-01T00:00:00Z", "body": "..."}]}

``ts`` is optional; a missing ``comments`` key means no comments.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .artifacts import CorpusFormatError, read_rows, write_rows

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z]+")


class Priority(Enum):
    BLOCKER = "Blocker"
    CRITICAL = "Critical"
    MAJOR = "Major"
    MINOR = "Minor"
    TRIVIAL = "Trivial"
    UNKNOWN = "Unknown"

    @classmethod
    def parse(cls, label: object) -> "Priority":
        """Case-insensitive parse; anything unrecognized maps to UNKNOWN."""
        if isinstance(label, str):
            for member in cls:
                if member.value.lower() == label.strip().lower():
                    return member
        return cls.UNKNOWN


#: The five Jira priorities used in the evaluation, highest first.
RANKED_PRIORITIES = (
    Priority.BLOCKER,
    Priority.CRITICAL,
    Priority.MAJOR,
    Priority.MINOR,
    Priority.TRIVIAL,
)


class Field(Enum):
    TITLE = "title"
    DESCRIPTION = "description"
    ALL_COMMENTS = "all_comments"
    FIRST_COMMENT = "first_comment"
    LAST_COMMENT = "last_comment"


@dataclass
class Comment:
    body: str
    ts: Optional[str] = None


@dataclass
class Issue:
    id: str
    priority: Priority
    title: str
    description: str
    comments: list[Comment] = dataclass_field(default_factory=list)


@dataclass
class TextUnit:
    issue_id: str
    field: Field
    tokens: list[str]


def tokenize(text: str) -> list[str]:
    """Lowercase and split on every non-letter character.

    Digits and punctuation act purely as delimiters, so "don't" yields
    ["don", "t"] and "5s" yields ["s"].
    """
    return _TOKEN_RE.findall(text.lower())


def parse_corpus(path: str | Path) -> Iterator[Issue]:
    """Stream issues from a JSON-lines corpus file.

    Malformed records are logged with their line number and skipped; an
    unreadable file or a repeated or non-UTF-8 issue id raises CorpusFormatError.
    """
    path = Path(path)
    try:
        handle = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise CorpusFormatError(f"cannot read corpus file {path}: {exc}") from exc
    with handle:
        n_bad = 0
        first_line: dict[str, int] = {}
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            issue = _parse_record(line, lineno)
            if issue is None:
                n_bad += 1
                continue
            try:
                issue.id.encode("utf-8")
            except UnicodeEncodeError:
                raise CorpusFormatError(
                    f"{path}:{lineno}: issue id {issue.id!r} cannot be encoded as UTF-8"
                ) from None
            seen = first_line.setdefault(issue.id, lineno)
            if seen != lineno:
                raise CorpusFormatError(
                    f"{path}:{lineno}: duplicate issue id {issue.id!r} (first on line {seen})"
                )
            yield issue
        if n_bad:
            logger.warning("%s: skipped %d malformed record(s)", path, n_bad)


def _parse_record(line: str, lineno: int) -> Optional[Issue]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        logger.warning("line %d: invalid JSON (%s)", lineno, exc.msg)
        return None
    if not isinstance(record, dict) or "id" not in record:
        logger.warning("line %d: record is not an object with an 'id'", lineno)
        return None
    raw_comments = record.get("comments", [])
    if not isinstance(raw_comments, list):
        logger.warning("line %d: 'comments' is not a list", lineno)
        return None
    comments = []
    for entry in raw_comments:
        if not isinstance(entry, dict):
            logger.warning("line %d: comment entry is not an object", lineno)
            return None
        comments.append(Comment(body=str(entry.get("body", "")), ts=entry.get("ts")))
    return Issue(
        id=str(record["id"]),
        priority=Priority.parse(record.get("priority", "")),
        title=str(record.get("title", "")),
        description=str(record.get("description", "")),
        comments=comments,
    )


def extract_units(issue: Issue) -> list[TextUnit]:
    """Split one issue into its scoreable text units.

    Title and Description are always emitted; the three comment-derived
    units only when the issue has at least one comment. With exactly one
    comment, first and last comment carry the same tokens.
    """
    units = [
        TextUnit(issue.id, Field.TITLE, tokenize(issue.title)),
        TextUnit(issue.id, Field.DESCRIPTION, tokenize(issue.description)),
    ]
    if issue.comments:
        per_comment = [tokenize(c.body) for c in issue.comments]
        all_tokens: list[str] = []
        for toks in per_comment:
            all_tokens.extend(toks)
        units.append(TextUnit(issue.id, Field.ALL_COMMENTS, all_tokens))
        units.append(TextUnit(issue.id, Field.FIRST_COMMENT, per_comment[0]))
        units.append(TextUnit(issue.id, Field.LAST_COMMENT, per_comment[-1]))
    return units


def comment_token_streams(issue: Issue) -> list[list[str]]:
    """Token streams for co-occurrence counting: title, description, and
    each comment separately (windows never span field boundaries)."""
    streams = [tokenize(issue.title), tokenize(issue.description)]
    streams.extend(tokenize(c.body) for c in issue.comments)
    return streams


VOCAB_HEADER = ("word", "id", "freq")


class Vocabulary:
    """Word frequencies with dense ids assigned by descending frequency,
    ties broken lexicographically."""

    def __init__(self, counts: dict[str, int], min_count: int = 1):
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        self.min_count = min_count
        kept = [(w, c) for w, c in counts.items() if c >= min_count]
        kept.sort(key=lambda wc: (-wc[1], wc[0]))
        self._ids = {w: i for i, (w, _) in enumerate(kept)}
        self._freqs = {w: c for w, c in kept}
        self._words = [w for w, _ in kept]

    def __contains__(self, word: str) -> bool:
        return word in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def words(self) -> list[str]:
        """Words ordered by id."""
        return self._words

    def id(self, word: str) -> int:
        return self._ids[word]

    def freq(self, word: str, default: int = 0) -> int:
        return self._freqs.get(word, default)

    def items(self) -> Iterable[tuple[str, int, int]]:
        """(word, id, frequency) triples in id order."""
        for word in self._words:
            yield word, self._ids[word], self._freqs[word]

    def save(self, path: str | Path) -> None:
        write_rows(path, VOCAB_HEADER, self.items())

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        counts = {word: int(freq) for _, (word, _, freq) in read_rows(path, VOCAB_HEADER)}
        return cls(counts, min_count=1)


def build_vocabulary(issues: Iterable[Issue], min_count: int = 1) -> Vocabulary:
    """Count tokens over title, description, and every comment of each issue."""
    counts: Counter[str] = Counter()
    for issue in issues:
        for stream in comment_token_streams(issue):
            counts.update(stream)
    return Vocabulary(dict(counts), min_count=min_count)
