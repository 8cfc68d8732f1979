"""Spans around the public functions of each arousalkit module.

Functions are wrapped from outside, in the namespace their caller
resolves them from: ``arousalkit.pipeline`` imports ``count_cooccurrences``
by name, so the wrapper replaces ``arousalkit.pipeline.count_cooccurrences``;
``lexicon.expand_embedding`` calls ``nearest_neighbors`` from its own
module globals, so that name is replaced in ``arousalkit.lexicon``; methods
such as ``WordVectors.save`` are replaced on the class. A target that no
longer exists is reported as absent and its metrics read 0.

A span records name, start, end, parent and the episode it ran in.
Functions called once per issue or per text field are "rollup" targets:
all calls under one parent span share one record holding the summed busy
time and the call count, which keeps the span list small and the overhead
low. Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    episode: str
    start: float
    end: float = 0.0
    busy: float = 0.0
    calls: int = 0
    counts: dict = field(default_factory=dict)
    opened: float = 0.0


def _add(counts: dict, key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


def _count_modes(counts, args, kwargs, rows):
    _add(counts, "rows", len(rows))
    for row in rows:
        _add(counts, "rows." + row.mode, 1)


#: (module, attribute, span name, kind, counter). kind is "call", "rollup"
#: or "iter" (a generator function: each next() is a rollup child span).
#: counter(span_counts, args, kwargs, result) records counts of the call.
TARGETS: list[tuple[str, str, str, str, Optional[Callable]]] = [
    ("arousalkit.pipeline", "parse_corpus", "corpus.parse_corpus", "iter", None),
    ("arousalkit.corpus", "tokenize", "corpus.tokenize", "rollup",
     lambda c, a, k, r: _add(c, "tokens", len(r))),
    ("arousalkit.pipeline", "build_vocabulary", "corpus.build_vocabulary", "call",
     lambda c, a, k, r: _add(c, "words", len(r))),
    ("arousalkit.corpus", "Vocabulary.save", "corpus.Vocabulary.save", "call", None),
    ("arousalkit.corpus", "Vocabulary.load", "corpus.Vocabulary.load", "call", None),
    ("arousalkit.pipeline", "count_cooccurrences", "embedding.count_cooccurrences", "call",
     lambda c, a, k, r: _add(c, "cells", len(r))),
    ("arousalkit.pipeline", "glove_train", "embedding.glove_train", "call",
     lambda c, a, k, r: c.update(cells=len(a[0]), epochs=len(r.loss_history) - 1,
                                 final_loss=r.loss_history[-1])),
    ("arousalkit.embedding", "WordVectors.save", "embedding.WordVectors.save", "call",
     lambda c, a, k, r: _add(c, "bytes", os.path.getsize(a[1]))),
    ("arousalkit.embedding", "WordVectors.load", "embedding.WordVectors.load", "call", None),
    ("arousalkit.lexicon", "nearest_neighbors", "embedding.nearest_neighbors", "call", None),
    ("arousalkit.pipeline", "load_wordnet", "wordnet.load_wordnet", "call", None),
    ("arousalkit.pipeline", "select_seeds", "lexicon.select_seeds", "call",
     lambda c, a, k, r: _add(c, "added", len(r))),
    ("arousalkit.pipeline", "expand_wordnet", "lexicon.expand_wordnet", "call",
     lambda c, a, k, r: _add(c, "added", r)),
    ("arousalkit.pipeline", "expand_embedding", "lexicon.expand_embedding", "call",
     lambda c, a, k, r: _add(c, "added", r)),
    ("arousalkit.pipeline", "generate_sheet", "lexicon.generate_sheet", "call", None),
    ("arousalkit.pipeline", "ingest_ratings", "lexicon.ingest_ratings", "call", None),
    ("arousalkit.pipeline", "rater_agreement", "lexicon.rater_agreement", "call", None),
    ("arousalkit.pipeline", "aggregate_ratings", "lexicon.aggregate_ratings", "call", None),
    ("arousalkit.pipeline", "score_corpus", "scoring.score_corpus", "call", _count_modes),
    ("arousalkit.pipeline", "resolve_sea_avg", "scoring.resolve_sea_avg", "call", None),
    ("arousalkit.scoring", "extract_units", "scoring.extract_units", "rollup",
     lambda c, a, k, r: _add(c, "units", len(r))),
    ("arousalkit.scoring", "save_scores", "scoring.save_scores", "call",
     lambda c, a, k, r: _add(c, "bytes", os.path.getsize(a[1]))),
    ("arousalkit.scoring", "load_scores", "scoring.load_scores", "call", None),
    ("arousalkit.pipeline", "evaluate_priorities", "evalstats.evaluate_priorities", "call",
     lambda c, a, k, r: _add(c, "filled", sum(1 for v in r.cells.values() if v))),
    ("arousalkit.pipeline", "render_tables", "evalstats.render_tables", "call", None),
    ("arousalkit.pipeline", "Workspace.record_stage", "pipeline.manifest", "call", None),
    ("arousalkit.pipeline", "Workspace.check_stages", "pipeline.manifest", "call", None),
]

MODES = ("general", "sea", "combined")
STAGES = ("ingest", "train", "seeds", "expand", "sheet",
          "ratings", "agreement", "build", "score", "evaluate")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.count_errors: list[str] = []
        self.episode = ""
        self._stack: list[Span] = []
        self._rollups: dict[tuple, Span] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, rollup: bool = False) -> Span:
        parent = self._stack[-1].id if self._stack else None
        now = perf_counter()
        span = self._rollups.get((parent, name, self.episode)) if rollup else None
        if span is None:
            span = Span(len(self.spans), name, parent, self.episode, now)
            self.spans.append(span)
            if rollup:
                self._rollups[(parent, name, self.episode)] = span
        span.opened = now
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        now = perf_counter()
        self._stack.pop()
        span.busy += now - span.opened
        span.calls += 1
        span.end = now

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _count(self, counter, span, args, kwargs, result) -> None:
        try:
            counter(span.counts, args, kwargs, result)
        except (TypeError, AttributeError, IndexError, OSError) as exc:
            self.count_errors.append(f"{span.name}: {exc!r}")

    def _wrap(self, fn, name: str, kind: str, counter):
        tracer = self
        if kind == "iter":
            def timed(it):
                while True:
                    span = tracer._open(name + ".next", rollup=True)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    it = iter(fn(*args, **kwargs))
                return timed(it)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, rollup=(kind == "rollup"))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                tracer._count(counter, span, args, kwargs, result)
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name, kind, counter in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap(raw.__func__, name, kind, counter))
            elif callable(raw):
                replacement = self._wrap(raw, name, kind, counter)
            else:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, leaf, raw))
            setattr(owner, leaf, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, raw = self._saved.pop()
            setattr(owner, leaf, raw)

    @property
    def active(self) -> bool:
        return bool(self._saved)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        child_busy: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_busy[span.parent] = child_busy.get(span.parent, 0.0) + span.busy
        return {s.id: s.busy - child_busy.get(s.id, 0.0) for s in self.spans}

    def episode_totals(self, episode: str) -> dict[str, float]:
        """Additive per-layer quantities of one episode: times and counts.

        Keys starting with "_" are denominators that ``layer_metrics``
        turns into ratios after the episodes have been combined.
        """
        selft = self.self_times()
        spans = [s for s in self.spans if s.episode == episode]
        names = {s.id: s.name for s in self.spans}

        def busy(name):
            return sum(s.busy for s in spans if s.name == name)

        def own(name):
            return sum(selft[s.id] for s in spans if s.name == name)

        def calls(name):
            return sum(s.calls for s in spans if s.name == name)

        def count(name, key, under=None):
            return sum(s.counts.get(key, 0) for s in spans if s.name == name
                       and (under is None or names.get(s.parent) == under))

        t: dict[str, float] = {}
        for stage in STAGES:
            t[f"pipeline.stage.{stage}_s"] = busy(f"pipeline.run_{stage}")
        t["pipeline.manifest_s"] = busy("pipeline.manifest")

        t["embedding.cooc_s"] = own("embedding.count_cooccurrences")
        t["embedding.cooc_cells"] = count("embedding.count_cooccurrences", "cells")
        t["_cooc_tokens"] = count("corpus.tokenize", "tokens",
                                  under="embedding.count_cooccurrences")
        t["embedding.train_s"] = busy("embedding.glove_train")
        t["embedding.cell_updates"] = sum(
            s.counts.get("cells", 0) * s.counts.get("epochs", 0)
            for s in spans if s.name == "embedding.glove_train")
        # with 0 epochs the per-cell cost is set-up plus one loss pass
        t["_cell_passes"] = sum(
            s.counts.get("cells", 0) * max(s.counts.get("epochs", 0), 1)
            for s in spans if s.name == "embedding.glove_train")
        t["embedding.final_loss"] = count("embedding.glove_train", "final_loss")
        t["embedding.knn_queries"] = calls("embedding.nearest_neighbors")
        t["embedding.knn_s"] = busy("embedding.nearest_neighbors")
        t["embedding.dump_save_s"] = busy("embedding.WordVectors.save")
        t["embedding.dump_load_s"] = busy("embedding.WordVectors.load")
        t["embedding.dump_loads"] = calls("embedding.WordVectors.load")
        t["embedding.dump_bytes"] = count("embedding.WordVectors.save", "bytes")

        t["corpus.parse_s"] = busy("corpus.parse_corpus.next") + busy("corpus.tokenize")
        t["corpus.parse_passes"] = calls("corpus.parse_corpus")
        t["corpus.tokens"] = count("corpus.tokenize", "tokens")
        t["corpus.vocab_words"] = count("corpus.build_vocabulary", "words")
        t["corpus.vocab_io_s"] = (busy("corpus.Vocabulary.save")
                                  + busy("corpus.Vocabulary.load"))

        t["scoring.score_s"] = own("scoring.score_corpus") + own("scoring.resolve_sea_avg")
        t["scoring.units"] = count("scoring.extract_units", "units",
                                   under="scoring.score_corpus")
        t["scoring.rows_present"] = count("scoring.score_corpus", "rows")
        for mode in MODES:
            t[f"_rows.{mode}"] = count("scoring.score_corpus", "rows." + mode)
        t["scoring.scores_io_s"] = busy("scoring.save_scores") + busy("scoring.load_scores")
        t["scoring.scores_bytes"] = count("scoring.save_scores", "bytes")

        t["evalstats.evaluate_s"] = busy("evalstats.evaluate_priorities")
        t["evalstats.render_s"] = busy("evalstats.render_tables")
        t["_cells_filled"] = count("evalstats.evaluate_priorities", "filled")
        t["_evaluations"] = calls("evalstats.evaluate_priorities")

        t["lexicon.sheet_self_s"] = own("lexicon.generate_sheet")
        t["lexicon.expand_self_s"] = (own("lexicon.expand_wordnet")
                                      + own("lexicon.expand_embedding"))
        t["lexicon.candidates.seed"] = count("lexicon.select_seeds", "added")
        t["lexicon.candidates.wordnet"] = count("lexicon.expand_wordnet", "added")
        t["lexicon.candidates.embedding"] = count("lexicon.expand_embedding", "added")
        t["wordnet.load_s"] = busy("wordnet.load_wordnet")
        return t

    def durations(self, name: str) -> list[float]:
        """Busy time of every span with this name (one per call for "call" targets)."""
        return [s.busy for s in self.spans if s.name == name]

    def layer_table(self) -> str:
        """Calls, busy and self time per span name, largest self time first."""
        selft = self.self_times()
        rows: dict[str, list[float]] = {}
        for span in self.spans:
            row = rows.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += span.calls
            row[1] += span.busy
            row[2] += selft[span.id]
        total = sum(r[2] for r in rows.values()) or 1.0
        lines = [f"{'span':40s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s} {'self%':>6s}"]
        for name, (n, b, s) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{name:40s} {n:9d} {b:10.4f} {s:10.4f} {100 * s / total:6.1f}")
        return "\n".join(lines) + "\n"

    def write(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / "spans.jsonl").open("w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "episode": s.episode,
                    "start": s.start, "end": s.end, "busy": s.busy, "calls": s.calls,
                    "counts": s.counts,
                }) + "\n")
        (out_dir / "layers.txt").write_text(self.layer_table(), encoding="utf-8")


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from combined episode totals: the totals plus ratios."""
    def ratio(a, b):
        return a / b if b else 0.0

    m = {k: v for k, v in totals.items() if not k.startswith("_")}
    m["embedding.cooc_us_per_token"] = ratio(totals["embedding.cooc_s"] * 1e6,
                                             totals["_cooc_tokens"])
    m["embedding.us_per_cell_update"] = ratio(totals["embedding.train_s"] * 1e6,
                                              totals["_cell_passes"])
    m["embedding.knn_ms_per_query"] = ratio(totals["embedding.knn_s"] * 1e3,
                                            totals["embedding.knn_queries"])
    m["corpus.tokens_per_s"] = ratio(totals["corpus.tokens"], totals["corpus.parse_s"])
    for mode in MODES:
        m[f"scoring.coverage.{mode}"] = ratio(totals[f"_rows.{mode}"], totals["scoring.units"])
    m["evalstats.cells_filled"] = ratio(totals["_cells_filled"], totals["_evaluations"])
    return m
