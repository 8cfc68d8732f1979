import json
import os
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from arousalkit import synthetic
from arousalkit.config import PipelineConfig
from arousalkit.corpus import TokenStore, Vocabulary, build_vocabulary, read_corpus
from arousalkit.embedding import WordVectors
from arousalkit.lexicon import (
    CandidateSet,
    SeaLexicon,
    SeedSet,
    ingest_ratings,
    load_general_lexicon,
    load_rating_records,
    load_seed_list,
    read_review,
    read_sheet_words,
)
from arousalkit.pipeline import (
    demo_config,
    run_build,
    run_demo,
    run_evaluate,
    run_expand,
    run_ingest,
    run_ratings,
    run_score,
    run_seeds,
    run_sheet,
    run_train,
    run_agreement,
)
from arousalkit.scoring import load_scores
from arousalkit.wordnet import load_wordnet


def demo_vocabulary(work_dir: Path) -> Vocabulary:
    """The vocabulary that ``seeds`` and ``sheet`` build in a demo work directory:
    its token store counted at the demo's ``min_count``."""
    min_count = PipelineConfig.load(work_dir / "inputs" / "config.json").min_count
    return build_vocabulary(TokenStore.load(work_dir / "tokens.bin"), min_count)


#: Every file a stage reads, by its path in a ``reader_demo`` work directory,
#: with a loader that reads it as the stage does. A loader takes the file's
#: path and finds any other file it needs (the token store, the candidates,
#: the sheet, the rest of the WordNet directory) beside it, unedited.
READERS = {
    # artifacts
    "tokens.bin": TokenStore.load,
    "embedding.bin": WordVectors.load_binary,
    "seeds.csv": SeedSet.load,
    "candidates.csv": CandidateSet.load,
    "sheet.csv": read_sheet_words,
    "ratings.csv": load_rating_records,
    "sea_lexicon.csv": SeaLexicon.load,
    "scores.bin": load_scores,
    # outside inputs
    "inputs/corpus.jsonl": read_corpus,
    "inputs/general_lexicon.csv": load_general_lexicon,
    "review_accept_all.csv":
        lambda path: read_review(CandidateSet.load(path.parent / "candidates.csv"), path),
    "ratings_r1.csv":
        lambda path: ingest_ratings([path], ["r1"], read_sheet_words(path.parent / "sheet.csv")),
    "extra_seeds.csv": lambda path: load_seed_list(path, demo_vocabulary(path.parent)),
    "inputs/wordnet/data.noun": lambda path: load_wordnet(path.parent),
    "inputs/wordnet/index.verb": lambda path: load_wordnet(path.parent),
}


REPO = Path(__file__).resolve().parents[1]


def subprocess_env() -> dict:
    """The environment, with this checkout's sources first on the import path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))


def corpus_store(records):
    """The token store ``read_corpus`` gives for ``records`` (dicts) written
    as a JSON-lines corpus file, one record per line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in records),
                        encoding="utf-8")
        return read_corpus(path)


@pytest.fixture(scope="session")
def reader_demo(tmp_path_factory):
    """A 120-issue demo work directory holding every file of ``READERS``;
    tests copy it before they edit a file."""
    work_dir = tmp_path_factory.mktemp("reader_demo")
    run_demo(work_dir, n_issues=120, seed=7)
    seeds = SeedSet.load(work_dir / "seeds.csv")
    (work_dir / "extra_seeds.csv").write_text(
        "".join(f"{seed.word},{seed.pole},survey\n" for seed in seeds), encoding="utf-8")
    return work_dir


@pytest.fixture(scope="session")
def demo_run(tmp_path_factory):
    """One full pipeline run on the bundled synthetic corpus, with stage
    timings, shared by the acceptance tests."""
    work_dir = tmp_path_factory.mktemp("demo")
    t_start = time.time()
    truth = synthetic.generate_demo_inputs(work_dir, n_issues=1000, seed=7)
    config = demo_config(work_dir, seed=7, n_issues=1000)
    config.save(work_dir / "inputs" / "config.json")

    run_ingest(config)
    t0 = time.time()
    model = run_train(config)
    train_seconds = time.time() - t0
    run_seeds(config)
    candidates = run_expand(config)

    review = work_dir / "review_accept_all.csv"
    review.write_text(
        "".join(f"{c.word},accept\n" for c in candidates), encoding="utf-8"
    )
    run_sheet(config, review=str(review))
    rater_files = []
    for n, label in enumerate(("r1", "r2"), start=1):
        out = work_dir / f"ratings_{label}.csv"
        synthetic.fill_ratings(work_dir / "sheet.csv", out, truth, 7 + n)
        rater_files.append(str(out))
    run_ratings(config, rater_files, labels=["r1", "r2"])
    run_agreement(config)
    sea = run_build(config)
    run_score(config)
    table = run_evaluate(config)
    total_seconds = time.time() - t_start
    return SimpleNamespace(
        work_dir=work_dir,
        config=config,
        model=model,
        sea=sea,
        table=table,
        truth=truth,
        train_seconds=train_seconds,
        total_seconds=total_seconds,
    )


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed", "skipped"):
        for report in terminalreporter.stats.get(outcome, []):
            if getattr(report, "when", "call") != "call" and outcome != "skipped":
                continue
            if "test_acceptance.py" not in report.nodeid:
                continue
            name = report.nodeid.split("::")[-1]
            lines.append((name, outcome.upper()))
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in sorted(set(lines)):
        terminalreporter.write_line(f"{name}: {outcome}")
