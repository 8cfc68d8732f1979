"""Per-text-unit arousal scoring via the max+min clamped rule.

A text unit's score considers the matched words with the highest and
lowest lexicon arousal; whichever of the two falls on the wrong side of
the lexicon average is clamped to that average, and the score is their
sum. Units matching no lexicon word receive no score. The combined mode
anchors on the general-purpose lexicon score and adds the centered
domain-lexicon score:

    combined = general + (sea_score - sea_avg)    when a sea match exists
    combined = general                            otherwise

``score_text`` and ``combined_score`` state the rule for one token
sequence. ``score_corpus`` applies it to every unit of a token store at
once. The matched words' sorted distinct arousal values are ranked, and
each word of the store's dictionary gets two codes in the narrowest
unsigned dtype: 0 for no match, rank + 1 for the max and the reversed
rank for the min. Per-unit match counts and largest codes are reductions
over slices of the token array, and a largest code indexes its clamped
value. Max and min over occurrences equal max and min over distinct
words, and codes order like their values, so both give the same floats.
"""

from __future__ import annotations

import math
import numbers
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .artifacts import (atomic_open, pack_strings, quote_cells, read_records, unpack_strings,
                        write_records)
from .corpus import Field, Priority, TokenStore

MODES = ("general", "sea", "combined")
#: the code of a field, mode or priority in a ScoreTable: its position in Field, MODES or Priority
CODES = {member: i for members in (Field, MODES, Priority) for i, member in enumerate(members)}

_FIELDS = tuple(Field)


class ScoringLexicon:
    """Immutable word -> arousal map with its over-all-words average."""

    def __init__(self, arousal: dict[str, float]):
        if not arousal:
            raise ValueError("scoring lexicon is empty")
        self._arousal = dict(arousal)
        for word, value in self._arousal.items():
            if not math.isfinite(value):
                raise ValueError(f"arousal of {word!r} is not finite: {value!r}")
        self.avg = statistics.fmean(self._arousal.values())

    def __contains__(self, word: str) -> bool:
        return word in self._arousal

    def __len__(self) -> int:
        return len(self._arousal)

    def __iter__(self) -> Iterator[str]:
        """The words in load order."""
        return iter(self._arousal)

    def arousal(self, word: str) -> float:
        return self._arousal[word]

    def arousal_map(self) -> dict[str, float]:
        return dict(self._arousal)

    def lookup(self, index: Mapping[str, int]) -> tuple[np.ndarray, np.ndarray]:
        """Arousal by id (0.0 where absent) and the mask of present ids, for
        a dictionary ``index`` that maps its words to the ids 0, 1, ...
        Each lexicon word is looked up once, however large the dictionary."""
        placed = {index[w]: a for w, a in self._arousal.items() if w in index}
        ids = np.fromiter(placed, dtype=np.intp, count=len(placed))
        arousal, present = np.zeros(len(index)), np.zeros(len(index), dtype=bool)
        arousal[ids] = np.fromiter(placed.values(), dtype=np.float64, count=len(placed))
        present[ids] = True
        return arousal, present


@dataclass
class UnitScore:
    n_matched: int  # matched occurrences, duplicates included
    max_used: float
    min_used: float
    score: float


def score_text(tokens: Sequence[str], lex: ScoringLexicon) -> Optional[UnitScore]:
    """Max+min clamped arousal score of one token sequence, or None when
    no token is in the lexicon.

    max/min are taken over the set of distinct matched words; a raw max
    below the lexicon average (or raw min above it) is clamped to the
    average.
    """
    matched = [token for token in tokens if token in lex]
    if not matched:
        return None
    arousals = [lex.arousal(w) for w in set(matched)]
    raw_max, raw_min = max(arousals), min(arousals)
    max_used = raw_max if raw_max >= lex.avg else lex.avg
    min_used = raw_min if raw_min <= lex.avg else lex.avg
    return UnitScore(len(matched), max_used, min_used, max_used + min_used)


def combined_score(tokens: Sequence[str], general: ScoringLexicon, sea: ScoringLexicon,
                   sea_avg: float) -> Optional[UnitScore]:
    """General-lexicon score adjusted by the centered domain score.

    Absent whenever the general lexicon has no match; a missing domain
    match contributes a zero adjustment. The reported matched count and
    max/min are the anchoring general-lexicon ones.
    """
    base = score_text(tokens, general)
    if base is None:
        return None
    domain = score_text(tokens, sea)
    adjustment = (domain.score - sea_avg) if domain is not None else 0.0
    return replace(base, score=base.score + adjustment)


def _score_units(ids: np.ndarray, index: Mapping[str, int], lex: ScoringLexicon,
                 bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``score_text`` of every unit ``ids[bounds[2k]:bounds[2k + 1]]`` as arrays: matched
    count, clamped max, clamped min and score; the last three mean something only where the
    count is positive. ``index`` maps each dictionary word to its id. The intp ``ids`` end in
    the sentinel ``len(index)``, so an end after the last token is a valid index; each
    per-word table gets one entry for the sentinel and is read token by token with one fancy
    index, ``table[ids]``. The extremes reduce the rank codes of the module docstring; code
    0, no match, reads as the average."""
    arousal, present = lex.lookup(index)
    counts = np.zeros(len(ids) + 1, dtype=np.int32)
    np.cumsum(np.append(present, False)[ids], out=counts[1:])
    values, rank = np.unique(arousal[present], return_inverse=True)
    top = np.where(values >= lex.avg, values, lex.avg)
    bottom = np.where(values <= lex.avg, values, lex.avg)[::-1]
    extremes = []
    for clamped, code in ((top, rank + 1), (bottom, len(values) - rank)):
        table = np.zeros(len(index) + 1, dtype=np.min_scalar_type(len(values)))
        table[:-1][present] = code
        # reduceat over interleaved (start, end) pairs reduces each [start, end)
        extremes.append(np.append(lex.avg, clamped)[np.maximum.reduceat(table[ids], bounds)[::2]])
    max_used, min_used = extremes
    return np.diff(counts[bounds])[::2], max_used, min_used, max_used + min_used


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Present scores, one array per column, in canonical (issue id, field,
    mode) order. Row r belongs to issue ``issue_ids[issue[r]]`` (int64
    index; the ids are sorted). ``field``, ``mode`` and ``priority`` are
    int8 ``CODES``; ``n_matched`` (int64) counts matched occurrences, and
    the reals are float64."""

    issue_ids: list[str]
    issue: np.ndarray
    field: np.ndarray
    mode: np.ndarray
    priority: np.ndarray
    n_matched: np.ndarray
    max_used: np.ndarray
    min_used: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.score)


def score_corpus(store: TokenStore, general: ScoringLexicon, sea: ScoringLexicon,
                 sea_avg: Union[str, float] = "lexicon") -> ScoreTable:
    """One row per (issue, field, mode) with a present score.

    ``sea_avg``, the centering constant subtracted from domain scores in
    combined mode, is "lexicon" (twice the mean word arousal of ``sea``,
    the score a text of all-average words would receive), "dataset" (the
    mean of the present sea-mode scores) or a number, used as-is. It
    shifts only the combined scores of units with a domain match, so it
    leaves effect sizes unchanged only if no unit has a general match
    without a domain match. Absent scores are omitted; rows come out in
    canonical (issue id, field, mode) order, each with its issue's
    priority from the store.
    """
    # units in corpus order, issue by issue, five per issue in Field order
    starts, ends, present = (a.ravel() for a in store.units())
    bounds = np.stack([starts, ends], axis=-1).ravel()
    ids = np.concatenate([store.ids, [len(store.words)]]).astype(np.intp, copy=False)
    index = {word: i for i, word in enumerate(store.words)}
    if len(index) != len(store.words):
        raise ValueError("the token store's dictionary repeats a word")
    # per mode: n_matched, max, min and score of every unit
    general_columns, sea_columns = (np.stack(_score_units(ids, index, lex, bounds))
                                    for lex in (general, sea))
    sea_n, _, _, sea_score = sea_columns
    if sea_avg == "lexicon":
        sea_avg = 2.0 * sea.avg
    elif sea_avg == "dataset":
        present_scores = sea_score[present & (sea_n > 0)]
        if not len(present_scores):
            raise ValueError("no sea-mode scores present; cannot take dataset mean")
        # what statistics.fmean computes: the exactly rounded sum over the count
        sea_avg = math.fsum(present_scores.tolist()) / len(present_scores)
    elif isinstance(sea_avg, numbers.Real) and not isinstance(sea_avg, bool):
        sea_avg = float(sea_avg)
    else:
        raise ValueError(f"unknown sea_avg setting: {sea_avg!r}")
    combined = general_columns.copy()
    combined[3] = np.where(sea_n > 0, combined[3] + (sea_score - sea_avg), combined[3] + 0.0)
    grid = np.stack([general_columns, sea_columns, combined])  # in MODES order
    # the (unit, mode) grid of present scores with its units in issue id
    # order, read row-major: canonical row order
    order = np.array(sorted(range(len(store.issue_ids)), key=store.issue_ids.__getitem__),
                     dtype=np.int64)
    issue_ids = [store.issue_ids[i] for i in order.tolist()]
    n_fields = len(_FIELDS)
    by_id = (order[:, None] * n_fields + np.arange(n_fields)).ravel()
    unit, column = np.nonzero((present[:, None] & (grid[:, 0].T > 0))[by_id])
    n_matched, max_used, min_used, score = grid[column, :, by_id[unit]].T
    issue = unit // n_fields
    return ScoreTable(issue_ids, issue, (unit % n_fields).astype(np.int8),
                      column.astype(np.int8), store.priority[order[issue]],
                      n_matched.astype(np.int64), max_used, min_used, score)


SCORE_HEADER = ("issue_id", "field", "mode", "n_matched", "max", "min", "score")
_REALS = ("max_used", "min_used", "score")
_CHUNK_ROWS = 1 << 16


def _four_decimals(values: np.ndarray) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The 4-decimal text of each distinct value by its bits (-0.0 is not
    0.0), formatted once; the position of each value's text; and the
    float64 that each value's text reads back to."""
    distinct, index = np.unique(values.view(np.int64), return_inverse=True)
    texts = list(map("{:.4f}".format, distinct.view(np.float64).tolist()))
    return texts, index, np.fromiter(map(float, texts), np.float64, len(texts))[index]


def save_scores(table: ScoreTable, path: str | Path) -> ScoreTable:
    """Write the ``scores.csv`` export: the bytes ``write_rows`` gives for
    one row per score with reals at 4 decimals. Each column becomes a table
    of its distinct cell texts with their separators (quoted ids, the 15
    ``field,mode`` pairs, distinct ``n_matched``, distinct bit patterns of
    each real); a chunk of rows is one gather of texts and one ``"".join``.
    A present row has ``n_matched >= 1``, so the distinct counts are the
    nonzero bins of one ``np.bincount``. Returns ``table`` with each real
    replaced by the float64 that its text reads back to: the reals that
    ``evaluate`` sees."""
    seen = np.bincount(table.n_matched) > 0
    texts = [[cell + "," for cell in quote_cells(table.issue_ids, path)],
             [f"{field.value},{mode}," for field in _FIELDS for mode in MODES],
             [f"{n}," for n in np.flatnonzero(seen).tolist()]]
    index = [table.issue, table.field.astype(np.intp) * len(MODES) + table.mode,
             (np.cumsum(seen) - 1)[table.n_matched]]
    reals = {}
    for name, end in zip(_REALS, ",,\n"):
        distinct, position, reals[name] = _four_decimals(getattr(table, name))
        texts.append([text + end for text in distinct])
        index.append(position)
    cells = np.array([text for column in texts for text in column], dtype=object)
    offsets = np.cumsum([0] + [len(column) for column in texts[:-1]])
    with atomic_open(path) as out:
        out.write(",".join(SCORE_HEADER) + "\n")
        for start in range(0, len(table), _CHUNK_ROWS):
            rows = np.stack([column[start:start + _CHUNK_ROWS] for column in index], axis=-1)
            out.write("".join(cells[(rows + offsets).ravel()].tolist()))
    return replace(table, **reals)


_SCORES_TAG = b"arousalkit scores 1"
#: dtype and number of dimensions of each score table record after the tag
_SCORES_LAYOUT = ((np.uint8, 1), (np.int64, 1), (np.int64, 1), (np.int8, 2), (np.int64, 1),
                  (np.float64, 2))


def save_score_records(table: ScoreTable, path: str | Path) -> None:
    """Seven ``.npy`` records: a format tag, the issue ids as UTF-8 bytes and
    byte offsets, then the columns: issue, the (3, rows) int8 field, mode
    and priority codes, n_matched, and the (3, rows) float64 max, min and score."""
    write_records(path, _SCORES_TAG, (
        *pack_strings(table.issue_ids), table.issue,
        np.stack([table.field, table.mode, table.priority]), table.n_matched,
        np.stack([table.max_used, table.min_used, table.score])))


def load_scores(path: str | Path) -> ScoreTable:
    """Read a table written by ``save_score_records``; a short, corrupt or
    inconsistent file raises CorpusFormatError naming the path."""
    return read_records(path, "score table", _SCORES_TAG, _SCORES_LAYOUT, _unpack_scores)


def _unpack_scores(id_data, id_offsets, issue, codes, n_matched, reals) -> ScoreTable:
    issue_ids = unpack_strings(id_data, id_offsets)
    if {codes.shape, reals.shape, (3, len(n_matched))} != {(3, len(issue))}:
        raise ValueError("columns differ in length")
    for name, column, n_codes in zip(("issue", "field", "mode", "priority"), (issue, *codes),
                                     (len(issue_ids), len(_FIELDS), len(MODES), len(Priority))):
        if len(column) and (column.min() < 0 or column.max() >= n_codes):
            raise ValueError(f"{name} code out of range")
    if np.any(np.diff((issue * len(_FIELDS) + codes[0]) * len(MODES) + codes[1]) <= 0):
        raise ValueError("rows are not in canonical order")
    return ScoreTable(issue_ids, issue, *codes, n_matched, *reals)
