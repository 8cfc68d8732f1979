"""Lexicon bootstrapping: seed selection, candidate expansion, the human
rating round-trip, agreement statistics, and final lexicon assembly.

File formats owned by this module:

* seed list             one ``word,pole,source`` per line
* selected seeds        header ``word,pole,source,freq``
* candidate list        header ``word,provenance``, written by expansion only
* review decisions      one ``word,accept|reject`` per line; the sheet's input
* rating sheet          ``#``-prefixed instruction block, then
                        ``word,rating,frequency,similar_words`` rows
* rating records        header ``word,rater,score``
* arousal lexicon       header ``word,arousal,r1,r2,source``

The headed tables are ``artifacts`` CSV files read by ``read_table``: a bad
cell, or a repeated word (a repeated word and rater in the rating records),
raises CorpusFormatError with the file and line. A domain lexicon row holds
scores in 1..9 and an arousal in [1, 9] equal to the mean of its scores.
The other three files are edited by people and read by one lenient rule,
``_hand_edited_rows``; the generated sheet and its filled copies alike.
"""

from __future__ import annotations

import csv
import logging
import statistics
from dataclasses import astuple, dataclass, field as dataclass_field
from pathlib import Path
from typing import Collection, Container, Iterable, Iterator, Optional, Sequence

import numpy as np

from .artifacts import CorpusFormatError, atomic_open, read_table, text_lines, write_rows
from .corpus import Vocabulary
from .embedding import WordVectors, nearest_neighbors_batch
from .scoring import ScoringLexicon
from .stats import pearson_r, weighted_kappa

logger = logging.getLogger(__name__)

SEED_SOURCES = (
    "general-lexicon",
    "survey",
    "circumplex",
    "liwc",
    "profanity",
    "brainstorm",
)

SHEET_HEADER = "word,rating,frequency,similar_words"

SHEET_INSTRUCTIONS = """\
Rating instructions:
Rate how a software developer likely felt when writing each word in an
issue report or comment, on a scale from 1 (calm) to 9 (excited).
1 means relaxed, calm, sluggish, dull, or unaroused; 9 means stimulated,
excited, frenzied, jittery, or wide-awake. If the word feels completely
neutral, neither calm nor excited, enter 5; use the other numbers for
intermediate levels of activation.
Each row lists words used in similar contexts in the issue corpus, each
with a similarity figure (1.00 = used identically, 0 = unrelated), as
clues to how the word is actually used.
Enter one whole number from 1 to 9 in the rating column, work at a quick
pace, and do not dwell on any single word."""


# ---------------------------------------------------------------------------
# general-purpose lexicon


DEFAULT_GENERAL_COLUMNS = {"word": "Word", "arousal": "A.Mean.Sum"}


def load_general_lexicon(path: str | Path,
                         columns: Optional[dict[str, str]] = None) -> ScoringLexicon:
    """Word -> arousal from a comma-separated lexicon with a header row.

    ``columns`` maps the logical names word and arousal to header names;
    defaults match the published general-purpose arousal lexicon, and no
    other column is read. Rows with an empty word or an arousal that is
    not a number in [1, 9] are rejected with a warning; duplicate words
    keep the last row. A file without a usable row, or a row csv cannot
    read (NUL on Python 3.10), is refused.
    """
    colmap = {**DEFAULT_GENERAL_COLUMNS, **(columns or {})}
    arousal_by_word: dict[str, float] = {}
    n_dupes = n_rejected = 0
    reader = csv.DictReader(line for _, line in text_lines(path))
    try:
        if reader.fieldnames is None:
            raise CorpusFormatError(f"{path}: empty lexicon file")
        for logical in ("word", "arousal"):
            if colmap[logical] not in reader.fieldnames:
                raise CorpusFormatError(
                    f"{path}: missing required column {colmap[logical]!r}"
                )
        for row in reader:
            word = (row[colmap["word"]] or "").strip().lower()
            if not word:
                n_rejected += 1
                continue
            try:
                arousal = float(row[colmap["arousal"]])
            except (TypeError, ValueError):
                logger.warning("%s: non-numeric arousal for %r", path, word)
                n_rejected += 1
                continue
            if not 1.0 <= arousal <= 9.0:
                logger.warning("%s: arousal %.3f out of [1,9] for %r", path, arousal, word)
                n_rejected += 1
                continue
            if word in arousal_by_word:
                n_dupes += 1
            arousal_by_word[word] = arousal
    except csv.Error as exc:
        # DictReader.line_num is set only after a row is read
        raise CorpusFormatError(f"{path}:{reader.reader.line_num}: {exc}") from None
    if n_dupes:
        logger.warning("%s: %d duplicate word(s), last row wins", path, n_dupes)
    if n_rejected:
        logger.warning("%s: rejected %d row(s)", path, n_rejected)
    if not arousal_by_word:
        raise CorpusFormatError(f"{path}: no usable lexicon row")
    return ScoringLexicon(arousal_by_word)


# ---------------------------------------------------------------------------
# seed selection


class _WordTable:
    """Entries with a ``word``, one per word in insertion order, stored as a
    table under the subclass's ``HEADER``: ``row(entry)`` gives the cells
    and ``parse(*cells)`` reads them back."""

    def __init__(self, entries: Iterable = ()):  # entries with distinct words
        self.entries: dict = {entry.word: entry for entry in entries}

    def add(self, entry) -> bool:
        """False (and no change) when the word is already present."""
        if entry.word in self.entries:
            return False
        self.entries[entry.word] = entry
        return True

    def __iter__(self):
        return iter(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def save(self, path: str | Path) -> None:
        write_rows(path, self.HEADER, map(self.row, self))

    @classmethod
    def load(cls, path: str | Path):
        """A bad cell or a repeated word raises CorpusFormatError with the file and line."""
        return cls(read_table(path, cls.HEADER, cls.parse))


@dataclass
class Seed:
    word: str
    pole: str  # "high" | "low"
    source: str
    freq: int

    def __post_init__(self):
        if self.pole not in ("high", "low"):
            raise ValueError(f"bad pole {self.pole!r} for seed {self.word!r}")
        if self.source not in SEED_SOURCES:
            raise ValueError(f"unknown seed source {self.source!r}")


class SeedSet(_WordTable):
    HEADER = ("word", "pole", "source", "freq")
    row = staticmethod(astuple)  # a Seed's fields are the columns

    @staticmethod
    def parse(word: str, pole: str, source: str, freq: str) -> Seed:
        return Seed(word, pole, source, int(freq))


@dataclass
class SeedConfig:
    n1: int = 10
    f1: int = 100
    n2: int = 10
    f2: int = 1000


class SeedSelectionError(Exception):
    pass


def select_seeds(
    general: ScoringLexicon, vocab: Vocabulary, cfg: SeedConfig = SeedConfig()
) -> SeedSet:
    """Pick frequency-validated extreme-arousal seeds from the general lexicon.

    Scanning by descending arousal (high pole) and ascending arousal (low
    pole), take the first n1 words with corpus frequency > f1, then the
    next n2 words with frequency > f2. Ties in arousal are broken
    lexicographically so the pick is independent of input row order.
    """
    by_desc = sorted(general, key=lambda w: (-general.arousal(w), w))
    by_asc = sorted(general, key=lambda w: (general.arousal(w), w))
    high = _scan_pole(by_desc, vocab, cfg, "high")
    low = _scan_pole(by_asc, vocab, cfg, "low")
    overlap = {s.word for s in high} & {s.word for s in low}
    if overlap:
        raise SeedSelectionError(
            f"words qualify for both poles: {sorted(overlap)}"
        )
    seeds = SeedSet()
    for seed in high + low:
        seeds.add(seed)
    return seeds


def _scan_pole(
    ordered_words: list[str], vocab: Vocabulary, cfg: SeedConfig, pole: str
) -> list[Seed]:
    tier1: list[Seed] = []
    tier2: list[Seed] = []
    for word in ordered_words:
        freq = vocab.freq(word)
        if len(tier1) < cfg.n1:
            if freq > cfg.f1:
                tier1.append(Seed(word, pole, "general-lexicon", freq))
        elif len(tier2) < cfg.n2:
            if freq > cfg.f2:
                tier2.append(Seed(word, pole, "general-lexicon", freq))
        else:
            break
    if len(tier1) < cfg.n1 or len(tier2) < cfg.n2:
        raise SeedSelectionError(
            f"{pole} pole short of seeds: tier1 {len(tier1)}/{cfg.n1} "
            f"(freq > {cfg.f1}), tier2 {len(tier2)}/{cfg.n2} (freq > {cfg.f2})"
        )
    return tier1 + tier2


def load_seed_list(path: str | Path, vocab: Vocabulary) -> list[Seed]:
    """Extra seeds from a ``word,pole,source`` file; frequency from the corpus.
    A bad row or a word outside the vocabulary is skipped with a warning."""
    seeds = []
    for lineno, parts in _hand_edited_rows(path):
        if len(parts) != 3 or parts[1] not in ("high", "low") or parts[2] not in SEED_SOURCES:
            logger.warning("%s:%d: bad seed row, skipped", path, lineno)
            continue
        word = parts[0].lower()
        if word not in vocab:
            logger.warning("%s:%d: seed %r is not in the vocabulary, skipped", path, lineno, word)
            continue
        seeds.append(Seed(word, parts[1], parts[2], vocab.freq(word)))
    return seeds


def _hand_edited_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """Line number and stripped comma-separated fields of each line that
    is neither blank nor a ``#`` comment."""
    for lineno, line in text_lines(path):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, [p.strip() for p in line.split(",")]


# ---------------------------------------------------------------------------
# candidate expansion


@dataclass
class Candidate:
    word: str
    provenance: str  # "seed", "wordnet:<seed>" or "embedding:<seed>:<similarity>"


def _checked_provenance(text: str) -> str:
    """``text`` as expansion writes it: an embedding similarity is
    re-rendered at 4 decimals, and a cell of no known form raises ValueError."""
    parts = text.split(":")
    if (parts[0], len(parts)) in (("seed", 1), ("wordnet", 2)):
        return text
    if parts[0] == "embedding" and len(parts) == 3:
        return f"embedding:{parts[1]}:{float(parts[2]):.4f}"
    raise ValueError(f"bad provenance: {text!r}")


class CandidateSet(_WordTable):
    HEADER = ("word", "provenance")
    row = staticmethod(astuple)  # a Candidate's fields are the columns

    @classmethod
    def from_seeds(cls, seeds: SeedSet) -> "CandidateSet":
        candidates = cls()
        for seed in seeds:
            candidates.add(Candidate(seed.word, "seed"))
        return candidates

    @staticmethod
    def parse(word: str, provenance: str) -> Candidate:
        return Candidate(word, _checked_provenance(provenance))


def expand_wordnet(
    candidates: CandidateSet, seeds: SeedSet, synonyms: dict[str, set[str]], words: Container[str]
) -> int:
    """Add the ``load_wordnet`` synonyms of every seed that are among ``words`` as candidates.

    A synonym reachable from several seeds keeps its first provenance.
    Returns the number of candidates added.
    """
    return sum(candidates.add(Candidate(syn, f"wordnet:{seed.word}"))
               for seed in seeds for syn in sorted(synonyms.get(seed.word.lower(), ()))
               if syn in words)


def expand_embedding(
    candidates: CandidateSet,
    seeds: SeedSet,
    vectors: WordVectors,
    k: int = 10,
) -> int:
    """Add the k nearest embedding neighbors of every seed as candidates.

    A neighbor shared by several seeds keeps the provenance with the
    higher similarity. Seeds that are not in the embedding vocabulary or
    have a zero vector are skipped with a warning. Returns the number of
    candidates added.
    """
    queries = _queryable(vectors, [seed.word for seed in seeds], "seed %r %s, skipped")
    best: dict[str, tuple[float, str]] = {}  # neighbor -> (similarity, seed)
    for word, neighbors in zip(queries, nearest_neighbors_batch(vectors, queries, k)):
        for neighbor, sim in neighbors:
            if neighbor in candidates:
                continue
            if neighbor not in best or sim > best[neighbor][0]:
                best[neighbor] = (sim, word)
    return sum(candidates.add(Candidate(neighbor, f"embedding:{seed}:{sim:.4f}"))
               for neighbor, (sim, seed) in best.items())


def _queryable(vectors: WordVectors, words: Sequence[str], warning: str) -> list[str]:
    """The words that can be neighbor queries, in order; every other word
    is logged with ``warning`` % (word, reason)."""
    queries = []
    for word in words:
        if word not in vectors:
            logger.warning(warning, word, "not in the embedding vocabulary")
        elif vectors.norm(word) == 0.0:
            logger.warning(warning, word, "has a zero embedding vector")
        else:
            queries.append(word)
    return queries


def read_review(candidates: CandidateSet, review_path: str | Path) -> list[str]:
    """The candidate words a review file accepts, in candidate order.

    The last decision for a word wins; a bad row or a word that is not a
    candidate is skipped with a warning.
    """
    accepted: dict[str, bool] = {}
    for lineno, parts in _hand_edited_rows(review_path):
        if len(parts) != 2 or parts[1] not in ("accept", "reject"):
            logger.warning("%s:%d: bad decision row, skipped", review_path, lineno)
            continue
        word = parts[0].lower()
        if word not in candidates:
            logger.warning("%s:%d: decision for unknown word %r", review_path, lineno, word)
            continue
        accepted[word] = parts[1] == "accept"
    return [c.word for c in candidates if accepted.get(c.word)]


# ---------------------------------------------------------------------------
# rating sheets


def generate_sheet(
    path: str | Path,
    words: Sequence[str],
    vocab: Vocabulary,
    vectors: WordVectors,
    k: int = 10,
    shuffle_seed: Optional[int] = None,
) -> None:
    """Write the rating sheet for the given candidate words.

    One row per word with an empty rating cell, the corpus frequency, and
    the k nearest embedding neighbors rendered ``word:sim`` (two decimals)
    joined by ``;``. Rows are alphabetical unless shuffle_seed is given.
    A word that is not in the embedding or has a zero vector gets an empty
    neighbor cell and a warning.
    """
    missing = [w for w in words if w not in vocab]
    if missing:
        raise ValueError(f"words not in vocabulary: {sorted(missing)[:10]}")
    ordered = sorted(words)
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        ordered = [ordered[i] for i in rng.permutation(len(ordered))]
    queries = _queryable(vectors, ordered, "word %r %s; empty neighbor cell")
    cells = {word: ";".join(f"{w}:{sim:.2f}" for w, sim in neighbors)
             for word, neighbors in zip(queries, nearest_neighbors_batch(vectors, queries, k))}
    with atomic_open(path) as out:
        for line in SHEET_INSTRUCTIONS.splitlines():
            out.write(f"# {line}\n")
        out.write(SHEET_HEADER + "\n")
        for word in ordered:
            out.write(f"{word},,{vocab.freq(word)},{cells.get(word, '')}\n")


@dataclass
class RatingRecord:
    word: str
    rater: str
    score: int

    def __post_init__(self):
        if not 1 <= self.score <= 9:
            raise ValueError(f"score {self.score} out of 1..9 for {self.word!r}")


@dataclass
class IngestReport:
    n_skipped: int = 0
    errors: list[str] = dataclass_field(default_factory=list)


def sheet_labels(sheet_paths: Sequence[str | Path],
                 rater_labels: Optional[Sequence[str]] = None) -> list[str]:
    """One rater label per rating sheet, by default the sheet's file stem;
    an empty label, one with surrounding whitespace or one given to two
    sheets is refused."""
    if not sheet_paths:
        raise ValueError("need at least one rating sheet")
    if rater_labels is None:
        rater_labels = [Path(p).stem for p in sheet_paths]
    if len(rater_labels) != len(sheet_paths):
        raise ValueError("one rater label per sheet required")
    for n, label in enumerate(rater_labels):
        if not label or label != label.strip():
            raise ValueError(f"rater label {label!r} of {sheet_paths[n]} is empty or has "
                             "surrounding whitespace")
        if (first := rater_labels.index(label)) != n:
            raise ValueError(f"rater label {label!r} is given to two sheets: "
                             f"{sheet_paths[first]} and {sheet_paths[n]}")
    return list(rater_labels)


def _sheet_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:  # the header skipped
    return (row for row in _hand_edited_rows(path) if ",".join(row[1]) != SHEET_HEADER)


def read_sheet_words(path: str | Path) -> set[str]:
    """The words a rating sheet lists, read as ``ingest_ratings`` reads them."""
    return {parts[0].lower() for _, parts in _sheet_rows(path)}


def ingest_ratings(
    sheet_paths: Sequence[str | Path],
    rater_labels: Optional[Sequence[str]] = None,
    sheet_words: Optional[Collection[str]] = None,
) -> tuple[list[RatingRecord], IngestReport]:
    """Read filled rating sheets, one per rater, by the rule of ``_sheet_rows``.

    Empty rating cells are skipped (counted); non-integer or out-of-range
    cells, and a filled row whose word is not among ``sheet_words`` (when
    given), are collected as row errors. A word duplicated within one file
    is fatal for that file, and so is a rater label given to two sheets.
    """
    labels = sheet_labels(sheet_paths, rater_labels)
    records: list[RatingRecord] = []
    report = IngestReport()
    for label, path in zip(labels, sheet_paths):
        path = Path(path)
        seen: set[str] = set()
        for lineno, parts in _sheet_rows(path):
            if len(parts) < 2:
                report.errors.append(f"{path}:{lineno}: too few columns")
                continue
            word, cell = parts[0].lower(), parts[1]
            if word in seen:
                raise CorpusFormatError(
                    f"{path}:{lineno}: word {word!r} appears twice in one sheet"
                )
            seen.add(word)
            if not cell:
                report.n_skipped += 1
                continue
            if sheet_words is not None and word not in sheet_words:
                report.errors.append(f"{path}:{lineno}: word {word!r} is not on the sheet")
                continue
            try:
                score = int(cell)
            except ValueError:
                report.errors.append(f"{path}:{lineno}: non-integer rating {cell!r}")
                continue
            if not 1 <= score <= 9:
                report.errors.append(f"{path}:{lineno}: rating {score} out of 1..9")
                continue
            records.append(RatingRecord(word, label, score))
    return records, report


RATING_HEADER = ("word", "rater", "score")


def save_rating_records(records: Iterable[RatingRecord], path: str | Path) -> None:
    write_rows(path, RATING_HEADER, ((r.word, r.rater, r.score) for r in records))


def load_rating_records(path: str | Path) -> list[RatingRecord]:
    """A bad score, or a word and rater repeated, raises CorpusFormatError
    with the file and line."""
    return read_table(path, RATING_HEADER,
                      lambda word, rater, score: RatingRecord(word, rater, int(score)),
                      key=("word", "rater"))


# ---------------------------------------------------------------------------
# the bootstrapped arousal lexicon


SEA_COLUMNS = ("r1", "r2")  # the domain lexicon's score columns, one per rater


def _scores_by_rater(records: Iterable[RatingRecord]) -> dict[str, dict[str, int]]:
    """rater -> word -> score; a word rated twice by one rater is refused."""
    by_rater: dict[str, dict[str, int]] = {}
    for record in records:
        scores = by_rater.setdefault(record.rater, {})
        if record.word in scores:
            raise ValueError(f"word {record.word!r} is rated twice by rater {record.rater!r}: "
                             f"{scores[record.word]} and {record.score}")
        scores[record.word] = record.score
    return by_rater


@dataclass
class SeaEntry:
    word: str
    arousal: float
    scores: list[tuple[str, int]]  # (rater, score), each rater one of SEA_COLUMNS
    provenance: str = ""

    def __post_init__(self):
        for rater, score in self.scores:
            if rater not in SEA_COLUMNS:
                raise ValueError(f"rater {rater!r} of {self.word!r} is not one of {SEA_COLUMNS}")
            RatingRecord(self.word, rater, score)  # refuses a score outside 1..9
        if not 1.0 <= self.arousal <= 9.0:
            raise ValueError(f"arousal {self.arousal} out of [1,9] for {self.word!r}")
        if self.scores and abs(self.arousal - statistics.fmean(s for _, s in self.scores)) > 5e-4:
            raise ValueError(f"arousal does not match the rater mean for {self.word!r}")


class SeaLexicon(_WordTable):
    """The bootstrapped arousal lexicon: per-word rater scores and means;
    an entry names its raters by the file's score columns, SEA_COLUMNS."""

    HEADER = ("word", "arousal", *SEA_COLUMNS, "source")

    @staticmethod
    def parse(word: str, arousal: str, *cells: str) -> SeaEntry:
        *score_cells, source = cells
        scores = [(rater, int(cell)) for rater, cell in zip(SEA_COLUMNS, score_cells) if cell]
        return SeaEntry(word, float(arousal), scores, source)

    @property
    def mu(self) -> float:
        """Mean arousal over all lexicon words, recomputed on demand."""
        if not self.entries:
            raise ValueError("empty lexicon has no mean")
        return statistics.fmean(e.arousal for e in self)

    def arousal_map(self) -> dict[str, float]:
        return {w: e.arousal for w, e in self.entries.items()}

    def save(self, path: str | Path) -> None:
        write_rows(path, self.HEADER, (
            (word, f"{e.arousal:.4f}", *(dict(e.scores).get(c, "") for c in SEA_COLUMNS),
             e.provenance)
            for word, e in sorted(self.entries.items())))


def aggregate_ratings(records: Iterable[RatingRecord],
                      provenance: Optional[dict[str, str]] = None) -> SeaLexicon:
    """Word arousal = arithmetic mean of its rater scores. The raters in sorted
    label order, not record order, are the columns ``r1`` and ``r2``; a third is refused."""
    by_rater = _scores_by_rater(records)
    if not by_rater:
        raise ValueError("no rating records to aggregate")
    if len(by_rater) > len(SEA_COLUMNS):
        raise ValueError(f"the domain lexicon holds at most {len(SEA_COLUMNS)} raters, "
                         f"got {len(by_rater)}: {', '.join(sorted(by_rater))}")
    by_word: dict[str, list[tuple[str, int]]] = {}
    for column, rater in zip(SEA_COLUMNS, sorted(by_rater)):
        for word, score in by_rater[rater].items():
            by_word.setdefault(word, []).append((column, score))
    provenance = provenance or {}
    return SeaLexicon(
        SeaEntry(word, statistics.fmean(s for _, s in scores), scores, provenance.get(word, ""))
        for word, scores in by_word.items())


# ---------------------------------------------------------------------------
# rater agreement


@dataclass
class AgreementReport:
    n_words: int
    raters: tuple[str, str]
    means: tuple[float, float]
    sds: Optional[tuple[float, float]]  # None below 2 words
    pearson: Optional[float]  # None when degenerate (n < 3 or zero variance)
    pearson_p: Optional[float]
    kappa: float
    kappa_weighting: str
    pct_exact: float
    pct_within_one: float
    pct_opposite: float

    def lines(self) -> list[str]:
        r1, r2 = self.raters
        if self.pearson is None:
            pearson_line = "correlation (pearson): n/a (degenerate input)"
        else:
            pearson_line = (
                f"correlation (pearson): {self.pearson:.2f} "
                f"(p-value {self.pearson_p:.3e})"
            )
        return [
            f"words rated by both: {self.n_words}",
            f"mean: {self.means[0]:.2f} ({r1}), {self.means[1]:.2f} ({r2})",
            "std deviation: n/a (fewer than 2 words)" if self.sds is None else
            f"std deviation: {self.sds[0]:.2f} ({r1}), {self.sds[1]:.2f} ({r2})",
            pearson_line,
            f"kappa (weighted, {self.kappa_weighting}): {self.kappa:.2f}",
            f"exact agreement: {self.pct_exact:.0f}%",
            f"exact or off-by-one agreement: {self.pct_within_one:.0f}%",
            f"opposite ratings (one >5, other <5): {self.pct_opposite:.0f}%",
        ]


def rater_agreement(records: Iterable[RatingRecord],
                    kappa_weighting: str = "linear") -> AgreementReport:
    """Agreement statistics for exactly two raters over the same word set;
    a word rated twice by one rater is refused."""
    by_rater = _scores_by_rater(records)
    if len(by_rater) != 2:
        raise ValueError(f"need exactly 2 raters, got {len(by_rater)}")
    (r1, scores1), (r2, scores2) = sorted(by_rater.items())
    only1 = sorted(set(scores1) - set(scores2))
    only2 = sorted(set(scores2) - set(scores1))
    if only1 or only2:
        raise ValueError(
            f"rater word sets differ: only {r1}: {only1[:10]}, only {r2}: {only2[:10]}"
        )
    words = sorted(scores1)
    x = np.array([scores1[w] for w in words], dtype=np.float64)
    y = np.array([scores2[w] for w in words], dtype=np.float64)
    try:
        r, p = pearson_r(x, y)
    except ValueError:
        r = p = None
    kappa = weighted_kappa(x.astype(int), y.astype(int), weighting=kappa_weighting)
    return AgreementReport(
        n_words=len(words),
        raters=(r1, r2),
        means=(float(x.mean()), float(y.mean())),
        sds=(float(x.std(ddof=1)), float(y.std(ddof=1))) if len(words) >= 2 else None,
        pearson=r,
        pearson_p=p,
        kappa=kappa,
        kappa_weighting=kappa_weighting,
        pct_exact=100.0 * float(np.mean(x == y)),
        pct_within_one=100.0 * float(np.mean(np.abs(x - y) <= 1)),
        pct_opposite=100.0 * float(np.mean(((x > 5) & (y < 5)) | ((x < 5) & (y > 5)))),
    )
