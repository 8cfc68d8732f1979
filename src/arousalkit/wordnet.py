"""Parser for WordNet 3.x plain-text database files into a synonym map.

Only the synset membership structure is read. Each line of
data.{noun,verb,adj,adv} is one synset, and ``load_wordnet`` maps every
lemma to the single-word lemmas it shares a synset with, in any part of
speech. index.{noun,verb,adj,adv} are read only to warn of offsets that
no data-file line holds. Pointers, glosses, and verb frames are ignored.
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


def _strip_marker(word: str) -> str:
    for marker in _ADJ_MARKERS:
        if word.endswith(marker):
            return word[: -len(marker)]
    return word


def _parse_data_line(line: str) -> tuple[int, list[str]]:
    """One data-file synset: offset and member lemmas (lowercased)."""
    body = line.split("|", 1)[0]
    fields = body.split()
    if len(fields) < 5:
        raise ValueError("too few fields")
    offset = int(fields[0])
    w_cnt = int(fields[3], 16)
    if w_cnt < 1 or len(fields) < 4 + 2 * w_cnt:
        raise ValueError("word count does not match fields")
    lemmas = [
        _strip_marker(fields[4 + 2 * n]).lower() for n in range(w_cnt)
    ]
    return offset, lemmas


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


def dict_files(dict_dir: str | Path) -> dict[str, tuple[Path, Path]]:
    """Part of speech -> its data and index file in a WordNet dict directory."""
    return {pos: (Path(dict_dir) / f"data.{pos}", Path(dict_dir) / f"index.{pos}")
            for pos in POS_SUFFIXES}


def load_wordnet(dict_dir: str | Path) -> dict[str, set[str]]:
    """Map each lemma of a WordNet dict directory's data files, lowercased,
    to the single-word lemmas that share a synset with it, in any part of
    speech, the lemma itself excluded.

    A missing index or data file is fatal. A data line whose offset an
    earlier line of its file holds is kept as a synset of its own, with a
    warning. Index entries whose offsets do not resolve to a data-file
    synset are dropped with a warning.
    """
    files = dict_files(dict_dir)
    for data_path, index_path in files.values():
        for path in (index_path, data_path):
            if not path.is_file():
                raise WordNetError(f"missing WordNet file: {path}")

    synonyms: dict[str, set[str]] = {}
    for data_path, index_path in files.values():
        line_of_offset: dict[int, int] = {}
        for lineno, (offset, lemmas) in _parsed_lines(data_path, _parse_data_line):
            first = line_of_offset.setdefault(offset, lineno)
            if first != lineno:
                logger.warning("%s:%d: offset %08d repeats line %d; kept as a synset of its own",
                               data_path, lineno, offset, first)
            single = {lemma for lemma in lemmas if "_" not in lemma}
            for lemma in lemmas:
                synonyms.setdefault(lemma, set()).update(single)

        for lineno, (lemma, offsets) in _parsed_lines(index_path, _parse_index_line):
            for off in offsets:
                if off not in line_of_offset:
                    logger.warning(
                        "%s:%d: offset %08d of %r missing from %s",
                        index_path, lineno, off, lemma, data_path.name,
                    )
    for lemma, others in synonyms.items():
        others.discard(lemma)
    return synonyms
