"""Stage orchestration over a work directory.

Each stage reads the artifacts of the stages it names, writes its own
artifacts into the work directory, and records a hash of its
configuration slice in ``manifest.json``. A stage's slice is the config
keys its body reads plus the slices of the stages whose artifacts it reads. A
stage first checks the recorded hashes of the stages it reads, so a
config change that invalidates earlier artifacts is reported instead of
silently mixing stale and fresh files. A stage drops its own entry before
it writes, so a run that fails leaves the stage unrecorded, and the stages
that read it refuse to run until it is re-run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

from . import scoring as scoring_mod
from . import synthetic
from .artifacts import atomic_open
from .config import PipelineConfig, hash_config_slice
from .corpus import TokenStore, Vocabulary, build_vocabulary, read_corpus
from .embedding import (EmbeddingModel, WordVectors, count_cooccurrences, glove_train,
                        nearest_neighbors)
from .evalstats import EvalTable, evaluate_priorities, render_tables
from .lexicon import (
    AgreementReport,
    CandidateSet,
    SEA_COLUMNS,
    SeaLexicon,
    SeedSet,
    aggregate_ratings,
    expand_embedding,
    expand_wordnet,
    generate_sheet,
    ingest_ratings,
    load_general_lexicon,
    load_rating_records,
    load_seed_list,
    rater_agreement,
    read_review,
    read_sheet_words,
    save_rating_records,
    select_seeds,
    sheet_labels,
)
from .scoring import ScoringLexicon, score_corpus
from .wordnet import load_wordnet

logger = logging.getLogger(__name__)


class PipelineError(Exception):
    pass


@dataclass(frozen=True)
class Stage:
    keys: tuple[str, ...]  # config keys its body reads
    reads: tuple[str, ...]  # stages whose artifacts it reads
    artifacts: tuple[str, ...]


STAGES: dict[str, Stage] = {
    "ingest": Stage(("corpus", "min_count"), (), ("vocab.csv", "tokens.bin")),
    "train": Stage(("embedding.dim", "embedding.window", "embedding.x_max", "embedding.alpha",
                    "embedding.learning_rate", "embedding.epochs", "embedding.seed",
                    "min_count"),
                   ("ingest",), ("embedding.txt", "embedding.bin")),
    "seeds": Stage(("general_lexicon", "general_columns", "extra_seeds",
                    "seeds.n1", "seeds.f1", "seeds.n2", "seeds.f2", "min_count"),
                   ("ingest",), ("seeds.csv",)),
    "expand": Stage(("wordnet_dir", "k"), ("train", "seeds"), ("candidates.csv",)),
    "sheet": Stage(("shuffle_sheet", "min_count", "k"), ("ingest", "train", "expand"),
                   ("sheet.csv",)),
    "ratings": Stage((), ("sheet",), ("ratings.csv",)),
    "agreement": Stage(("kappa_weighting",), ("ratings",), ("agreement.txt",)),
    "build": Stage((), ("ratings", "expand"), ("sea_lexicon.csv",)),
    "score": Stage(("sea_avg", "general_lexicon", "general_columns"), ("ingest", "build"),
                   ("scores.csv", "scores.bin")),
    "evaluate": Stage(("t_test",), ("score",),
                      ("eval_d.csv", "eval_t.csv", "eval_df.csv", "eval_p.csv",
                       "eval_tables.txt")),
}


@functools.cache
def stage_keys(stage: str) -> frozenset[str]:
    """The config keys a stage's outputs depend on: its configuration slice."""
    spec = STAGES[stage]
    return frozenset(spec.keys).union(*map(stage_keys, spec.reads))


class Workspace:
    """Work-directory paths plus the stage manifest."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.work_dir = Path(config.work_dir)
        self.manifest_path = self.work_dir / "manifest.json"

    def path(self, name: str) -> Path:
        return self.work_dir / name

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[Workspace]:
        """Check the stages ``name`` reads, create the work directory, drop
        the entry of ``name`` from the manifest, run the block, then record
        ``name``. A block that raises leaves ``name`` unrecorded, so that no
        reader takes a mix of old and new artifacts for a finished run."""
        manifest = self.check_stages(STAGES[name].reads)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        if manifest.pop(name, None) is not None:
            self.write_manifest(manifest)
        yield self
        self.record_stage(name, manifest)

    def record_stage(self, stage: str, manifest: dict) -> None:
        manifest[stage] = {
            "config_hash": hash_config_slice(self.config, stage_keys(stage)),
            "artifacts": STAGES[stage].artifacts,
        }
        self.write_manifest(manifest)

    def write_manifest(self, manifest: dict) -> None:
        with atomic_open(self.manifest_path) as out:
            out.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    def check_stages(self, stages: Sequence[str]) -> dict:
        """Refuse missing or stale artifacts of ``stages``; return the manifest."""
        manifest = {}
        if self.manifest_path.is_file():
            try:
                manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
            except ValueError:
                manifest = None
            if not (isinstance(manifest, dict)
                    and all(isinstance(entry, dict) for entry in manifest.values())):
                raise PipelineError(
                    f"damaged stage manifest {self.manifest_path}: expected a JSON object "
                    "of stage entries; delete it and re-run the stages"
                )
        for upstream in stages:
            for artifact in STAGES[upstream].artifacts:
                if not self.path(artifact).is_file():
                    raise PipelineError(
                        f"missing artifact {artifact!r}; run the {upstream!r} stage first"
                    )
            entry = manifest.get(upstream)
            if entry is None:
                raise PipelineError(
                    f"the last run of stage {upstream!r} did not complete; re-run {upstream!r}"
                )
            if entry.get("config_hash") != hash_config_slice(self.config, stage_keys(upstream)):
                raise PipelineError(
                    f"artifacts of stage {upstream!r} are stale for the current "
                    f"configuration; re-run {upstream!r}"
                )
        return manifest


# ---------------------------------------------------------------------------
# stages


def run_ingest(config: PipelineConfig) -> Vocabulary:
    with Workspace(config).stage("ingest") as ws:
        store = read_corpus(config.corpus)
        vocab = build_vocabulary(store, min_count=config.min_count)
        vocab.save(ws.path("vocab.csv"))
        store.save(ws.path("tokens.bin"))
    logger.info("ingest: %d issues, %d vocabulary words", len(store.issue_ids), len(vocab))
    return vocab


def run_train(config: PipelineConfig) -> EmbeddingModel:
    """Train and write the combined (main + context) vectors. They are
    summed into the model's main block, so that no third word-by-dimension
    array is made: read the returned model only for its words, dim and
    loss history."""
    with Workspace(config).stage("train") as ws:
        vocab, cooc = _count_store(TokenStore.load(ws.path("tokens.bin")), config)
        if not len(cooc):
            raise PipelineError(
                "the train stage has nothing to fit: the co-occurrence matrix is empty with "
                f"{len(vocab)} vocabulary words at min_count {config.min_count} and "
                f"embedding.window {config.embedding.window}")
        model = glove_train(cooc, vocab.words, config.embedding)
        model.w_main += model.w_context
        vectors = WordVectors(model.words, model.w_main)
        vectors.save(ws.path("embedding.txt"))
        vectors.save_binary(ws.path("embedding.bin"))
    logger.info(
        "train: %d cells, loss %.2f -> %.2f",
        len(cooc), model.loss_history[0], model.loss_history[-1],
    )
    return model


def _count_store(store: TokenStore, config: PipelineConfig):
    """The vocabulary of ``store`` and its co-occurrence cells."""
    vocab = build_vocabulary(store, config.min_count)
    # store ids -> vocabulary ids, -1 for words below min_count
    ids, offsets = vocab.lookup(store.words)[store.ids], store.offsets
    del store  # the store's own ids are not needed while counting
    return vocab, count_cooccurrences(ids, offsets, config.embedding.window)


def run_neighbors(config: PipelineConfig, word: str, k: Optional[int] = None):
    ws = Workspace(config)
    ws.check_stages(["train"])
    vectors = WordVectors.load_binary(ws.path("embedding.bin"))
    return nearest_neighbors(vectors, word.lower(), k if k is not None else config.k)


def run_seeds(config: PipelineConfig) -> SeedSet:
    with Workspace(config).stage("seeds") as ws:
        vocab = build_vocabulary(TokenStore.load(ws.path("tokens.bin")), config.min_count)
        general = load_general_lexicon(config.general_lexicon, config.general_columns)
        seeds = select_seeds(general, vocab, config.seeds)
        if config.extra_seeds:
            for seed in load_seed_list(config.extra_seeds, vocab):
                if not seeds.add(seed):
                    logger.warning("extra seed %r already selected, skipped", seed.word)
        seeds.save(ws.path("seeds.csv"))
    return seeds


def run_expand(config: PipelineConfig) -> CandidateSet:
    with Workspace(config).stage("expand") as ws:
        seeds = SeedSet.load(ws.path("seeds.csv"))
        candidates = CandidateSet.from_seeds(seeds)
        synonyms = load_wordnet(config.wordnet_dir)
        # train writes one vector for each word of the vocabulary
        vectors = WordVectors.load_binary(ws.path("embedding.bin"))
        n_wn = expand_wordnet(candidates, seeds, synonyms, vectors)
        n_emb = expand_embedding(candidates, seeds, vectors, config.k)
        candidates.save(ws.path("candidates.csv"))
    logger.info(
        "expand: %d seeds + %d wordnet + %d embedding = %d candidates",
        len(seeds), n_wn, n_emb, len(candidates),
    )
    return candidates


def run_sheet(config: PipelineConfig, review: str | Path) -> Path:
    with Workspace(config).stage("sheet") as ws:
        candidates = CandidateSet.load(ws.path("candidates.csv"))
        words = read_review(candidates, review)
        if not words:
            raise PipelineError(f"review file {review} accepts none of the "
                                f"{len(candidates)} candidates; nothing to rate")
        logger.info("review: %d of %d candidates accepted", len(words), len(candidates))
        vocab = build_vocabulary(TokenStore.load(ws.path("tokens.bin")), config.min_count)
        vectors = WordVectors.load_binary(ws.path("embedding.bin"))
        generate_sheet(ws.path("sheet.csv"), words, vocab, vectors,
                       k=config.k, shuffle_seed=config.shuffle_sheet)
    return ws.path("sheet.csv")


def run_ratings(config: PipelineConfig, sheet_files: Sequence[str],
                labels: Optional[Sequence[str]] = None):
    if len(sheet_files) > len(SEA_COLUMNS):  # one score column per rater
        raise PipelineError(f"the ratings stage takes at most {len(SEA_COLUMNS)} rating sheets, "
                            f"one per rater; got {len(sheet_files)}: "
                            f"{', '.join(map(str, sheet_files))}")
    labels = sheet_labels(sheet_files, labels)  # refused before the sheet is looked at
    with Workspace(config).stage("ratings") as ws:
        records, report = ingest_ratings(sheet_files, labels,
                                         read_sheet_words(ws.path("sheet.csv")))
        for error in report.errors:
            logger.warning("rating row rejected: %s", error)
        save_rating_records(records, ws.path("ratings.csv"))
    logger.info(
        "ratings: %d records, %d empty cells skipped, %d rejected rows",
        len(records), report.n_skipped, len(report.errors),
    )
    return records, report


def run_agreement(config: PipelineConfig) -> AgreementReport:
    with Workspace(config).stage("agreement") as ws:
        records = load_rating_records(ws.path("ratings.csv"))
        report = rater_agreement(records, kappa_weighting=config.kappa_weighting)
        with atomic_open(ws.path("agreement.txt")) as out:
            out.write("\n".join(report.lines()) + "\n")
    return report


def run_build(config: PipelineConfig) -> SeaLexicon:
    with Workspace(config).stage("build") as ws:
        records = load_rating_records(ws.path("ratings.csv"))
        candidates = CandidateSet.load(ws.path("candidates.csv"))
        sea = aggregate_ratings(records, {c.word: c.provenance for c in candidates})
        sea.save(ws.path("sea_lexicon.csv"))
    logger.info("build: %d lexicon words, mean arousal %.3f", len(sea), sea.mu)
    return sea


def run_score(config: PipelineConfig):
    with Workspace(config).stage("score") as ws:
        general = load_general_lexicon(config.general_lexicon, config.general_columns)
        sea = ScoringLexicon(SeaLexicon.load(ws.path("sea_lexicon.csv")).arousal_map())
        table = score_corpus(TokenStore.load(ws.path("tokens.bin")), general, sea,
                             config.sea_avg)
        if not len(table):
            raise PipelineError(
                "the score stage has nothing to write: no text unit matches a word of the "
                f"general lexicon {config.general_lexicon} or of {ws.path('sea_lexicon.csv')}")
        # evaluation reads the reals as the export states them, at 4 decimals
        table = scoring_mod.save_scores(table, ws.path("scores.csv"))
        scoring_mod.save_score_records(table, ws.path("scores.bin"))
    logger.info("score: %d present rows (sea_avg %s)", len(table), config.sea_avg)
    return table


def run_evaluate(config: PipelineConfig) -> EvalTable:
    with Workspace(config).stage("evaluate") as ws:
        table = evaluate_priorities(scoring_mod.load_scores(ws.path("scores.bin")),
                                    t_test=config.t_test)
        for warning in table.warnings:
            logger.warning(warning)
        render_tables(table, ws.work_dir)
    return table


# ---------------------------------------------------------------------------
# demo


def demo_config(work_dir: str | Path, seed: int = 7,
                n_issues: int = 1000) -> PipelineConfig:
    """Toy-scale settings sized to the bundled synthetic corpus.

    The seed frequency thresholds scale with the corpus size; each
    designated pole word occurs roughly n_issues/10 times.
    """
    config = PipelineConfig(
        corpus=str(Path(work_dir) / "inputs" / "corpus.jsonl"),
        general_lexicon=str(Path(work_dir) / "inputs" / "general_lexicon.csv"),
        wordnet_dir=str(Path(work_dir) / "inputs" / "wordnet"),
        work_dir=str(work_dir),
        min_count=min(5, max(2, n_issues // 60)),
    )
    config.embedding.dim = 32
    config.embedding.epochs = 6
    config.embedding.seed = seed
    config.seeds.f1 = max(2, n_issues // 50)
    config.seeds.f2 = max(4, n_issues // 16)
    return config


def run_demo(work_dir: str | Path, n_issues: int = 1000, seed: int = 7) -> EvalTable:
    """Full pipeline on generated inputs, with simulated raters."""
    work_dir = Path(work_dir)
    truth = synthetic.generate_demo_inputs(work_dir, n_issues=n_issues, seed=seed)
    config = demo_config(work_dir, seed=seed, n_issues=n_issues)
    config.save(work_dir / "inputs" / "config.json")

    run_ingest(config)
    run_train(config)
    run_seeds(config)
    candidates = run_expand(config)

    review_path = work_dir / "review_accept_all.csv"
    review_path.write_text("".join(f"{c.word},accept\n" for c in candidates), encoding="utf-8")
    run_sheet(config, review=str(review_path))

    rater_files = []
    for n, label in enumerate(("r1", "r2"), start=1):
        out_path = work_dir / f"ratings_{label}.csv"
        synthetic.fill_ratings(work_dir / "sheet.csv", out_path, truth, seed + n)
        rater_files.append(str(out_path))
    run_ratings(config, rater_files, labels=["r1", "r2"])
    run_agreement(config)
    run_build(config)
    run_score(config)
    return run_evaluate(config)
