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
once: a lexicon becomes an arousal vector over the store's dictionary,
and per-unit maxima, minima and match counts are reductions over slices
of the token array. Max and min over occurrences equal max and min over
distinct words, so both give the same floats.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .artifacts import read_rows, write_rows
from .corpus import CorpusFormatError, Field, Priority, TokenStore

MODES = ("general", "sea", "combined")

_FIELDS = tuple(Field)
_FIELD_BY_VALUE = {f.value: f for f in Field}
_MODE_BY_VALUE = {m: m for m in MODES}  # loaded rows share these strings


class ScoringLexicon:
    """Immutable word -> arousal map with its over-all-words average."""

    def __init__(self, arousal: dict[str, float]):
        if not arousal:
            raise ValueError("scoring lexicon is empty")
        self._arousal = dict(arousal)
        self.avg = statistics.fmean(self._arousal.values())

    def __contains__(self, word: str) -> bool:
        return word in self._arousal

    def __len__(self) -> int:
        return len(self._arousal)

    def arousal(self, word: str) -> float:
        return self._arousal[word]

    def lookup(self, words: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Arousal of each word (0.0 where absent) and the mask of present words."""
        arousal = np.array([self._arousal.get(w, 0.0) for w in words], dtype=np.float64)
        return arousal, np.array([w in self._arousal for w in words], dtype=bool)


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
    n_matched = 0
    matched: set[str] = set()
    for token in tokens:
        if token in lex:
            n_matched += 1
            matched.add(token)
    if not matched:
        return None
    arousals = [lex.arousal(w) for w in matched]
    raw_max = max(arousals)
    raw_min = min(arousals)
    max_used = raw_max if raw_max >= lex.avg else lex.avg
    min_used = raw_min if raw_min <= lex.avg else lex.avg
    return UnitScore(n_matched, max_used, min_used, max_used + min_used)


def combined_score(
    tokens: Sequence[str],
    general: ScoringLexicon,
    sea: ScoringLexicon,
    sea_avg: float,
) -> Optional[UnitScore]:
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
    return UnitScore(base.n_matched, base.max_used, base.min_used,
                     base.score + adjustment)


def _score_units(
    store: TokenStore, lex: ScoringLexicon, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``score_text`` of every unit ``store.ids[starts:ends]`` as arrays:
    matched count, clamped max, clamped min and score; the last three mean
    something only where the count is positive."""
    arousal, present = lex.lookup(store.words)
    counts = np.zeros(len(store.ids) + 1, dtype=np.int32)
    np.cumsum(present[store.ids], out=counts[1:])
    # reduceat over interleaved (start, end) pairs reduces each [start, end);
    # the extra last element keeps an end after the last token a valid index
    bounds = np.stack([starts, ends], axis=-1).ravel()
    per_token = np.empty(len(store.ids) + 1)
    extremes = []
    for ufunc, missing in ((np.maximum, -np.inf), (np.minimum, np.inf)):
        np.take(np.where(present, arousal, missing), store.ids, out=per_token[:-1])
        per_token[-1] = missing
        extremes.append(ufunc.reduceat(per_token, bounds)[::2])
    raw_max, raw_min = extremes
    max_used = np.where(raw_max >= lex.avg, raw_max, lex.avg)
    min_used = np.where(raw_min <= lex.avg, raw_min, lex.avg)
    return counts[ends] - counts[starts], max_used, min_used, max_used + min_used


def resolve_sea_avg(
    sea: ScoringLexicon,
    setting: Union[str, float] = "lexicon",
    store: Optional[TokenStore] = None,
) -> float:
    """The centering constant subtracted from domain scores in combined mode.

    "lexicon" (default): twice the mean word arousal, i.e. the score a
    text of all-average words would receive. "dataset": the mean of the
    present sea-mode text scores over the units of the given token store.
    A number is used as-is. Effect sizes are invariant to this choice;
    only raw combined scores move.
    """
    if isinstance(setting, (int, float)):
        return float(setting)
    if setting == "lexicon":
        return 2.0 * sea.avg
    if setting == "dataset":
        if store is None:
            raise ValueError("dataset sea_avg needs the token store")
        starts, ends, present = store.units()
        n_matched, _, _, scores = _score_units(store, sea, starts.ravel(), ends.ravel())
        scores = scores[present.ravel() & (n_matched > 0)]
        if not len(scores):
            raise ValueError("no sea-mode scores present; cannot take dataset mean")
        # what statistics.fmean computes: the exactly rounded sum over the count
        return math.fsum(scores.tolist()) / len(scores)
    raise ValueError(f"unknown sea_avg setting: {setting!r}")


@dataclass(slots=True)
class ScoredRow:
    issue_id: str
    priority: Priority
    field: Field
    mode: str
    n_matched: int
    max_used: float
    min_used: float
    score: float


def score_corpus(
    store: TokenStore,
    general: Optional[ScoringLexicon],
    sea: Optional[ScoringLexicon],
    sea_avg: Optional[float] = None,
    modes: Sequence[str] = MODES,
    priorities: Optional[Mapping[str, Priority]] = None,
) -> list[ScoredRow]:
    """One row per (issue, field, mode) with a present score.

    Absent scores are omitted; rows come out in canonical
    (issue id, field, mode) order. Priorities are joined from the given
    map (Unknown when absent).
    """
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown scoring mode: {mode!r}")
    if "general" in modes or "combined" in modes:
        if general is None:
            raise ValueError("general lexicon required for general/combined modes")
    if "sea" in modes or "combined" in modes:
        if sea is None:
            raise ValueError("sea lexicon required for sea/combined modes")
    if "combined" in modes and sea_avg is None:
        sea_avg = resolve_sea_avg(sea)
    modes = [m for m in MODES if m in modes]
    if not modes:
        return []
    # units in corpus order, issue by issue, five per issue in Field order
    starts, ends, present = (a.ravel() for a in store.units())
    by_lexicon = {}
    if "general" in modes or "combined" in modes:
        by_lexicon["general"] = _score_units(store, general, starts, ends)
    if "sea" in modes or "combined" in modes:
        by_lexicon["sea"] = _score_units(store, sea, starts, ends)
    columns = []  # (n_matched, max, min, score) per mode
    for mode in modes:
        if mode == "combined":
            n_matched, max_used, min_used, base = by_lexicon["general"]
            sea_n, _, _, sea_score = by_lexicon["sea"]
            score = np.where(sea_n > 0, base + (sea_score - sea_avg), base + 0.0)
            columns.append((n_matched, max_used, min_used, score))
        else:
            columns.append(by_lexicon[mode])
    # the (unit, mode) grid of present scores with its units in issue id
    # order, read row-major: canonical row order
    issue_order = sorted(range(len(store.issue_ids)), key=store.issue_ids.__getitem__)
    n_fields = len(_FIELDS)
    by_id = (np.asarray(issue_order, dtype=np.int64)[:, None] * n_fields
             + np.arange(n_fields)).ravel()
    scored = np.stack([present & (c[0] > 0) for c in columns], axis=1)[by_id]
    unit, column = np.nonzero(scored)
    unit = by_id[unit]
    values = [np.stack([c[k] for c in columns], axis=1)[unit, column].tolist()
              for k in range(4)]
    issue_ids = list(map(store.issue_ids.__getitem__, (unit // n_fields).tolist()))
    return list(map(
        ScoredRow, issue_ids,
        map((priorities or {}).get, issue_ids, repeat(Priority.UNKNOWN)),
        map(_FIELDS.__getitem__, (unit % n_fields).tolist()),
        map(modes.__getitem__, column.tolist()), *values,
    ))


SCORE_HEADER = ("issue_id", "field", "mode", "n_matched", "max", "min", "score")


def save_scores(rows: Iterable[ScoredRow], path: str | Path) -> None:
    write_rows(path, SCORE_HEADER, (
        (r.issue_id, r.field.value, r.mode, r.n_matched,
         f"{r.max_used:.4f}", f"{r.min_used:.4f}", f"{r.score:.4f}")
        for r in rows
    ))


def load_scores(
    path: str | Path, priorities: Optional[dict[str, Priority]] = None
) -> list[ScoredRow]:
    """Read a score table; issue priorities are joined from the given map
    (Unknown when absent, since the file format does not carry them)."""
    priorities = priorities or {}
    rows = []
    for lineno, (issue_id, field_text, mode_text, n_matched, mx, mn, score) in read_rows(
        path, SCORE_HEADER
    ):
        field = _FIELD_BY_VALUE.get(field_text)
        if field is None:
            raise CorpusFormatError(f"{path}:{lineno}: unknown text field {field_text!r}")
        mode = _MODE_BY_VALUE.get(mode_text)
        if mode is None:
            raise CorpusFormatError(f"{path}:{lineno}: unknown mode {mode_text!r}")
        # an issue has up to 15 rows: they share one id string
        issue_id = sys.intern(issue_id)
        rows.append(
            ScoredRow(
                issue_id, priorities.get(issue_id, Priority.UNKNOWN), field, mode,
                int(n_matched), float(mx), float(mn), float(score),
            )
        )
    return rows
