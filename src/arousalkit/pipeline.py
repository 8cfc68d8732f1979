"""Stage orchestration over a work directory.

Each stage reads its declared inputs, writes its artifacts into the work
directory, and records a hash of the configuration slice it depends on
in ``manifest.json``. A stage consuming an upstream artifact checks that
hash first, so a config change that invalidates earlier artifacts is
reported instead of silently mixing stale and fresh files.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import scoring as scoring_mod
from . import synthetic
from .artifacts import atomic_open
from .config import PipelineConfig, hash_config_slice
from .corpus import TokenStore, Vocabulary, build_vocabulary, parse_corpus
from .embedding import WordVectors, count_cooccurrences, glove_train, nearest_neighbors
from .evalstats import EvalTable, evaluate_priorities, render_tables
from .lexicon import (
    AgreementReport,
    CandidateSet,
    SeaLexicon,
    SeedSet,
    aggregate_ratings,
    apply_review,
    expand_embedding,
    expand_wordnet,
    generate_sheet,
    ingest_ratings,
    load_general_lexicon,
    load_rating_records,
    load_seed_list,
    rater_agreement,
    save_rating_records,
    select_seeds,
)
from .scoring import MODES, ScoringLexicon, score_corpus
from .wordnet import load_wordnet

logger = logging.getLogger(__name__)


class PipelineError(Exception):
    pass


#: config keys each stage's output depends on (cumulative over upstream)
_INGEST_KEYS = ["corpus", "min_count"]
_TRAIN_KEYS = _INGEST_KEYS + [
    "embedding.dim", "embedding.window", "embedding.x_max", "embedding.alpha",
    "embedding.learning_rate", "embedding.epochs", "embedding.seed",
]
_SEEDS_KEYS = _INGEST_KEYS + [
    "general_lexicon", "general_columns", "extra_seeds",
    "seeds.n1", "seeds.f1", "seeds.n2", "seeds.f2",
]
_EXPAND_KEYS = sorted(set(_TRAIN_KEYS + _SEEDS_KEYS + ["wordnet_dir", "k"]))
_SHEET_KEYS = _EXPAND_KEYS + ["shuffle_sheet"]

STAGE_KEYS: dict[str, list[str]] = {
    "ingest": _INGEST_KEYS,
    "train": _TRAIN_KEYS,
    "seeds": _SEEDS_KEYS,
    "expand": _EXPAND_KEYS,
    "sheet": _SHEET_KEYS,
    "ratings": _SHEET_KEYS,
    "agreement": _SHEET_KEYS + ["kappa_weighting"],
    "build": _SHEET_KEYS,
    "score": _SHEET_KEYS + ["sea_avg"],
    "evaluate": _SHEET_KEYS + ["sea_avg", "t_test"],
}

STAGE_REQUIRES: dict[str, list[str]] = {
    "ingest": [],
    "train": ["ingest"],
    "seeds": ["ingest"],
    "expand": ["ingest", "train", "seeds"],
    "sheet": ["ingest", "train", "expand"],
    "ratings": [],
    "agreement": ["ratings"],
    "build": ["ratings", "expand"],
    "score": ["ingest", "build"],
    "evaluate": ["ingest", "score"],
}

STAGE_ARTIFACTS: dict[str, list[str]] = {
    "ingest": ["vocab.csv", "tokens.bin"],
    "train": ["embedding.txt", "embedding.bin"],
    "seeds": ["seeds.csv"],
    "expand": ["candidates.csv"],
    "sheet": ["sheet.csv"],
    "ratings": ["ratings.csv"],
    "agreement": ["agreement.txt"],
    "build": ["sea_lexicon.csv"],
    "score": ["scores.csv", "scores.bin"],
    "evaluate": ["eval_d.csv", "eval_t.csv", "eval_df.csv", "eval_p.csv",
                 "eval_tables.txt"],
}


class Workspace:
    """Work-directory paths plus the stage manifest."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.work_dir = Path(config.work_dir)
        self.manifest_path = self.work_dir / "manifest.json"

    def path(self, name: str) -> Path:
        return self.work_dir / name

    def _manifest(self) -> dict:
        if self.manifest_path.is_file():
            return json.loads(self.manifest_path.read_text(encoding="utf-8"))
        return {}

    def record_stage(self, stage: str) -> None:
        manifest = self._manifest()
        manifest[stage] = {
            "config_hash": hash_config_slice(self.config, STAGE_KEYS[stage]),
            "artifacts": STAGE_ARTIFACTS[stage],
        }
        self.work_dir.mkdir(parents=True, exist_ok=True)
        with atomic_open(self.manifest_path) as out:
            out.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    def check_upstream(self, stage: str) -> None:
        self.check_stages(STAGE_REQUIRES[stage])

    def check_stages(self, stages: list[str]) -> None:
        manifest = self._manifest()
        for upstream in stages:
            for artifact in STAGE_ARTIFACTS[upstream]:
                if not self.path(artifact).is_file():
                    raise PipelineError(
                        f"missing artifact {artifact!r}; run the {upstream!r} stage first"
                    )
            entry = manifest.get(upstream)
            expected = hash_config_slice(self.config, STAGE_KEYS[upstream])
            if entry is None or entry.get("config_hash") != expected:
                raise PipelineError(
                    f"artifacts of stage {upstream!r} are stale for the current "
                    f"configuration; re-run {upstream!r}"
                )


# ---------------------------------------------------------------------------
# stages


def run_ingest(config: PipelineConfig) -> Vocabulary:
    ws = Workspace(config)
    ws.work_dir.mkdir(parents=True, exist_ok=True)
    store = TokenStore.from_issues(parse_corpus(config.corpus))
    vocab = build_vocabulary(store, min_count=config.min_count)
    vocab.save(ws.path("vocab.csv"))
    store.save(ws.path("tokens.bin"))
    ws.record_stage("ingest")
    logger.info("ingest: %d issues, %d vocabulary words", len(store.issue_ids), len(vocab))
    return vocab


def run_train(config: PipelineConfig):
    ws = Workspace(config)
    ws.check_upstream("train")
    vocab = Vocabulary.load(ws.path("vocab.csv"))
    cooc = _count_store(TokenStore.load(ws.path("tokens.bin")), vocab, config.embedding.window)
    model = glove_train(cooc, vocab.words, config.embedding)
    vectors = model.to_vectors()
    vectors.save(ws.path("embedding.txt"))
    vectors.save_binary(ws.path("embedding.bin"))
    ws.record_stage("train")
    logger.info(
        "train: %d cells, loss %.2f -> %.2f",
        len(cooc), model.loss_history[0], model.loss_history[-1],
    )
    return model


def _count_store(store: TokenStore, vocab: Vocabulary, window: int):
    # store ids -> vocabulary ids, -1 for words below min_count
    to_vocab = np.array([vocab.id(w) if w in vocab else -1 for w in store.words],
                        dtype=np.int32)
    ids, offsets = to_vocab[store.ids], store.offsets
    del store  # the store's own ids are not needed while counting
    return count_cooccurrences(ids, offsets, window)


def run_neighbors(config: PipelineConfig, word: str, k: Optional[int] = None):
    ws = Workspace(config)
    ws.check_stages(["train"])
    vectors = WordVectors.load_binary(ws.path("embedding.bin"))
    return nearest_neighbors(vectors, word, k if k is not None else config.k)


def run_seeds(config: PipelineConfig) -> SeedSet:
    ws = Workspace(config)
    ws.check_upstream("seeds")
    vocab = Vocabulary.load(ws.path("vocab.csv"))
    general = load_general_lexicon(config.general_lexicon, config.general_columns)
    seeds = select_seeds(general, vocab, config.seeds)
    if config.extra_seeds:
        for seed in load_seed_list(config.extra_seeds, vocab):
            if not seeds.add(seed):
                logger.warning("extra seed %r already selected, skipped", seed.word)
    seeds.save(ws.path("seeds.csv"))
    ws.record_stage("seeds")
    return seeds


def run_expand(config: PipelineConfig) -> CandidateSet:
    ws = Workspace(config)
    ws.check_upstream("expand")
    vocab = Vocabulary.load(ws.path("vocab.csv"))
    seeds = SeedSet.load(ws.path("seeds.csv"))
    candidates = CandidateSet.from_seeds(seeds)
    db = load_wordnet(config.wordnet_dir)
    n_wn = expand_wordnet(candidates, seeds, db, vocab)
    vectors = WordVectors.load_binary(ws.path("embedding.bin"))
    n_emb = expand_embedding(candidates, seeds, vectors, config.k)
    candidates.save(ws.path("candidates.csv"))
    ws.record_stage("expand")
    logger.info(
        "expand: %d seeds + %d wordnet + %d embedding = %d candidates",
        len(seeds), n_wn, n_emb, len(candidates),
    )
    return candidates


def run_sheet(config: PipelineConfig, review: Optional[str] = None) -> Path:
    ws = Workspace(config)
    ws.check_upstream("sheet")
    candidates = CandidateSet.load(ws.path("candidates.csv"))
    if review:
        n_accept, n_reject = apply_review(candidates, review)
        candidates.save(ws.path("candidates.csv"))
        logger.info("review: %d accepted, %d rejected", n_accept, n_reject)
    vocab = Vocabulary.load(ws.path("vocab.csv"))
    vectors = WordVectors.load_binary(ws.path("embedding.bin"))
    out = ws.path("sheet.csv")
    generate_sheet(out, candidates.accepted_words(), vocab, vectors,
                   k=config.k, shuffle_seed=config.shuffle_sheet)
    ws.record_stage("sheet")
    return out


def run_ratings(
    config: PipelineConfig,
    sheet_files: Sequence[str],
    labels: Optional[Sequence[str]] = None,
):
    ws = Workspace(config)
    records, report = ingest_ratings(sheet_files, labels)
    ws.work_dir.mkdir(parents=True, exist_ok=True)
    for error in report.errors:
        logger.warning("rating row rejected: %s", error)
    save_rating_records(records, ws.path("ratings.csv"))
    ws.record_stage("ratings")
    logger.info(
        "ratings: %d records, %d empty cells skipped, %d rejected rows",
        report.n_records, report.n_skipped, len(report.errors),
    )
    return records, report


def run_agreement(config: PipelineConfig) -> AgreementReport:
    ws = Workspace(config)
    ws.check_upstream("agreement")
    records = load_rating_records(ws.path("ratings.csv"))
    report = rater_agreement(records, kappa_weighting=config.kappa_weighting)
    with atomic_open(ws.path("agreement.txt")) as out:
        out.write("\n".join(report.lines()) + "\n")
    ws.record_stage("agreement")
    return report


def run_build(config: PipelineConfig) -> SeaLexicon:
    ws = Workspace(config)
    ws.check_upstream("build")
    records = load_rating_records(ws.path("ratings.csv"))
    candidates = CandidateSet.load(ws.path("candidates.csv"))
    sea = aggregate_ratings(records, provenance=candidates.provenance_map())
    sea.save(ws.path("sea_lexicon.csv"))
    ws.record_stage("build")
    logger.info("build: %d lexicon words, mean arousal %.3f", len(sea), sea.mu)
    return sea


def run_score(config: PipelineConfig, modes: Sequence[str] = MODES):
    ws = Workspace(config)
    ws.check_upstream("score")
    general = load_general_lexicon(config.general_lexicon, config.general_columns)
    sea = ScoringLexicon(SeaLexicon.load(ws.path("sea_lexicon.csv")).arousal_map())
    table = score_corpus(TokenStore.load(ws.path("tokens.bin")), general, sea, config.sea_avg,
                         modes)
    # evaluation reads the reals as the export states them, at 4 decimals
    table = scoring_mod.save_scores(table, ws.path("scores.csv"))
    scoring_mod.save_score_records(table, ws.path("scores.bin"))
    ws.record_stage("score")
    logger.info("score: %d present rows (sea_avg %s)", len(table), config.sea_avg)
    return table


def run_evaluate(config: PipelineConfig) -> EvalTable:
    ws = Workspace(config)
    ws.check_upstream("evaluate")
    table = evaluate_priorities(scoring_mod.load_scores(ws.path("scores.bin")),
                                t_test=config.t_test)
    render_tables(table, ws.work_dir)
    ws.record_stage("evaluate")
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
    inputs = synthetic.generate_demo_inputs(work_dir, n_issues=n_issues, seed=seed)
    config = demo_config(work_dir, seed=seed, n_issues=n_issues)
    config.save(work_dir / "inputs" / "config.json")

    run_ingest(config)
    run_train(config)
    run_seeds(config)
    candidates = run_expand(config)

    review_path = work_dir / "review_accept_all.csv"
    review_path.write_text("".join(f"{c.word},accept\n" for c in candidates), encoding="utf-8")
    run_sheet(config, review=str(review_path))

    truth = synthetic.load_truth(inputs.truth_path)
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
