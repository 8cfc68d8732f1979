"""Per-text-unit arousal scoring via the max+min clamped rule.

A text unit's score considers the matched words with the highest and
lowest lexicon arousal; whichever of the two falls on the wrong side of
the lexicon average is clamped to that average, and the score is their
sum. Units matching no lexicon word receive no score. The combined mode
anchors on the general-purpose lexicon score and adds the centered
domain-lexicon score:

    combined = general + (sea_score - sea_avg)    when a sea match exists
    combined = general                            otherwise
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .artifacts import read_rows, write_rows
from .corpus import CorpusFormatError, Field, Issue, Priority, extract_units

MODES = ("general", "sea", "combined")

_FIELD_ORDER = {f: i for i, f in enumerate(Field)}
_FIELD_BY_VALUE = {f.value: f for f in Field}
_MODE_ORDER = {m: i for i, m in enumerate(MODES)}


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


def resolve_sea_avg(
    sea: ScoringLexicon,
    setting: Union[str, float] = "lexicon",
    issues: Optional[Iterable[Issue]] = None,
) -> float:
    """The centering constant subtracted from domain scores in combined mode.

    "lexicon" (default): twice the mean word arousal, i.e. the score a
    text of all-average words would receive. "dataset": the mean of the
    present sea-mode text scores over the given issues. A number is used
    as-is. Effect sizes are invariant to this choice; only raw combined
    scores move.
    """
    if isinstance(setting, (int, float)):
        return float(setting)
    if setting == "lexicon":
        return 2.0 * sea.avg
    if setting == "dataset":
        if issues is None:
            raise ValueError("dataset sea_avg needs the issue corpus")
        scores = []
        for issue in issues:
            for unit in extract_units(issue):
                unit_score = score_text(unit.tokens, sea)
                if unit_score is not None:
                    scores.append(unit_score.score)
        if not scores:
            raise ValueError("no sea-mode scores present; cannot take dataset mean")
        return statistics.fmean(scores)
    raise ValueError(f"unknown sea_avg setting: {setting!r}")


@dataclass
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
    issues: Iterable[Issue],
    general: Optional[ScoringLexicon],
    sea: Optional[ScoringLexicon],
    sea_avg: Optional[float] = None,
    modes: Sequence[str] = MODES,
) -> list[ScoredRow]:
    """One row per (issue, field, mode) with a present score.

    Absent scores are omitted; rows come out in canonical
    (issue id, field, mode) order.
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
    rows = []
    for issue in issues:
        for unit in extract_units(issue):
            for mode in modes:
                if mode == "general":
                    unit_score = score_text(unit.tokens, general)
                elif mode == "sea":
                    unit_score = score_text(unit.tokens, sea)
                else:
                    unit_score = combined_score(unit.tokens, general, sea, sea_avg)
                if unit_score is None:
                    continue
                rows.append(
                    ScoredRow(
                        issue.id, issue.priority, unit.field, mode,
                        unit_score.n_matched, unit_score.max_used,
                        unit_score.min_used, unit_score.score,
                    )
                )
    rows.sort(key=lambda r: (r.issue_id, _FIELD_ORDER[r.field], _MODE_ORDER[r.mode]))
    return rows


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
    for lineno, (issue_id, field_text, mode, n_matched, mx, mn, score) in read_rows(
        path, SCORE_HEADER
    ):
        field = _FIELD_BY_VALUE.get(field_text)
        if field is None:
            raise CorpusFormatError(f"{path}:{lineno}: unknown text field {field_text!r}")
        if mode not in MODES:
            raise CorpusFormatError(f"{path}:{lineno}: unknown mode {mode!r}")
        rows.append(
            ScoredRow(
                issue_id, priorities.get(issue_id, Priority.UNKNOWN), field, mode,
                int(n_matched), float(mx), float(mn), float(score),
            )
        )
    return rows
