"""Parser for WordNet 3.x plain-text database files and synonym lookup.

Only the synset membership structure is read: index.{noun,verb,adj,adv}
map lemmas to synset offsets, data.{noun,verb,adj,adv} hold the synsets
keyed by those offsets. Pointers, glosses, and verb frames are ignored.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Callable, Iterator

from .artifacts import text_lines

logger = logging.getLogger(__name__)

POS_SUFFIXES = ("noun", "verb", "adj", "adv")

# adjective syntax markers appended to data-file lemmas, e.g. "galore(ip)"
_ADJ_MARKERS = ("(a)", "(p)", "(ip)")


class WordNetError(Exception):
    pass


class SynsetDb:
    """Bidirectional lemma <-> synset maps built from the data files."""

    def __init__(self):
        # (pos, offset) -> sorted member lemmas
        self.members: dict[tuple[str, int], list[str]] = {}
        # lemma -> set of (pos, offset)
        self.synsets_of: dict[str, set[tuple[str, int]]] = {}

    def add_synset(self, pos: str, offset: int, lemmas: list[str]) -> None:
        key = (pos, offset)
        self.members[key] = sorted(set(lemmas))
        for lemma in lemmas:
            self.synsets_of.setdefault(lemma, set()).add(key)

    def synsets(self, lemma: str) -> set[tuple[str, int]]:
        return self.synsets_of.get(lemma.lower(), set())


def _strip_marker(word: str) -> str:
    for marker in _ADJ_MARKERS:
        if word.endswith(marker):
            return word[: -len(marker)]
    return word


def _parse_data_line(line: str) -> tuple[int, str, list[str]]:
    """One data-file synset: offset, ss_type, member lemmas (lowercased)."""
    body = line.split("|", 1)[0]
    fields = body.split()
    if len(fields) < 5:
        raise ValueError("too few fields")
    offset = int(fields[0])
    ss_type = fields[2]
    w_cnt = int(fields[3], 16)
    if w_cnt < 1 or len(fields) < 4 + 2 * w_cnt:
        raise ValueError("word count does not match fields")
    lemmas = [
        _strip_marker(fields[4 + 2 * n]).lower() for n in range(w_cnt)
    ]
    return offset, ss_type, lemmas


def _parse_index_line(line: str) -> tuple[str, list[int]]:
    """One index-file entry: lemma and its synset offsets."""
    fields = line.split()
    if len(fields) < 6:
        raise ValueError("too few fields")
    lemma = fields[0].lower()
    synset_cnt = int(fields[2])
    p_cnt = int(fields[3])
    tail = fields[4 + p_cnt + 2:]
    if synset_cnt < 1 or len(tail) != synset_cnt:
        raise ValueError("synset count does not match fields")
    return lemma, [int(off) for off in tail]


def _parsed_lines(path: Path, parse: Callable[[str], tuple]) -> Iterator[tuple[int, tuple]]:
    """Line number and ``parse(line)`` of each line that is neither blank
    nor part of the license header (indented); a line ``parse`` refuses
    with a ValueError is logged with its position and skipped."""
    for lineno, line in text_lines(path):
        if line.startswith(" ") or not line.strip():
            continue
        try:
            yield lineno, parse(line)
        except ValueError as exc:  # raised by parse: the yield raises nothing
            logger.warning("%s:%d: %s; line skipped", path, lineno, exc)


def load_wordnet(dict_dir: str | Path) -> SynsetDb:
    """Load a WordNet dict directory into a SynsetDb.

    A missing index or data file is fatal. Index entries whose offsets do
    not resolve to a data-file synset are dropped with a warning.
    """
    dict_dir = Path(dict_dir)
    db = SynsetDb()
    for suffix in POS_SUFFIXES:
        for kind in ("index", "data"):
            path = dict_dir / f"{kind}.{suffix}"
            if not path.is_file():
                raise WordNetError(f"missing WordNet file: {path}")

    for suffix in POS_SUFFIXES:
        data_path = dict_dir / f"data.{suffix}"
        offsets_seen: set[int] = set()
        for _, (offset, ss_type, lemmas) in _parsed_lines(data_path, _parse_data_line):
            db.add_synset(suffix, offset, lemmas)
            offsets_seen.add(offset)

        index_path = dict_dir / f"index.{suffix}"
        for lineno, (lemma, offsets) in _parsed_lines(index_path, _parse_index_line):
            for off in offsets:
                if off not in offsets_seen:
                    logger.warning(
                        "%s:%d: offset %08d of %r missing from %s",
                        index_path, lineno, off, lemma, data_path.name,
                    )
    return db


def synonyms(db: SynsetDb, word: str) -> set[str]:
    """All single-word co-members of the word's synsets, across every part
    of speech, excluding the word itself. Unknown words yield an empty set."""
    word = word.lower()
    result: set[str] = set()
    for key in db.synsets(word):
        result.update(db.members[key])
    result.discard(word)
    return {w for w in result if "_" not in w}
