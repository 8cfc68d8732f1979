import dataclasses
import functools
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from arousalkit import evalstats, scoring, synthetic
from arousalkit.artifacts import CorpusFormatError
from arousalkit.cli import main
from arousalkit.config import PipelineConfig
from arousalkit.corpus import Priority, TokenStore
from arousalkit.embedding import WordVectors
from arousalkit.lexicon import CandidateSet, SeaLexicon, load_rating_records
from arousalkit.pipeline import (
    STAGES,
    PipelineError,
    Workspace,
    demo_config,
    run_agreement,
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
    stage_keys,
)
from conftest import REPO, subprocess_env

N_ISSUES = 150

# the config keys each stage's outputs depend on
_INGEST = {"corpus", "min_count"}
_TRAIN = _INGEST | {"embedding.dim", "embedding.window", "embedding.x_max",
                    "embedding.alpha", "embedding.learning_rate", "embedding.epochs",
                    "embedding.seed"}
_SEEDS = _INGEST | {"general_lexicon", "general_columns", "extra_seeds",
                    "seeds.n1", "seeds.f1", "seeds.n2", "seeds.f2"}
_EXPAND = _TRAIN | _SEEDS | {"wordnet_dir", "k"}
_SHEET = _EXPAND | {"shuffle_sheet"}
STAGE_SLICES = {
    "ingest": _INGEST,
    "train": _TRAIN,
    "seeds": _SEEDS,
    "expand": _EXPAND,
    "sheet": _SHEET,
    "ratings": _SHEET,
    "agreement": _SHEET | {"kappa_weighting"},
    "build": _SHEET,
    "score": _SHEET | {"sea_avg"},
    "evaluate": _SHEET | {"sea_avg", "t_test"},
}

# a valid value for each key that differs from the demo configuration's
OTHER_VALUES = {
    "corpus": "other.jsonl",
    "min_count": 9,
    "embedding.dim": 33,
    "embedding.window": 3,
    "embedding.x_max": 50.0,
    "embedding.alpha": 0.5,
    "embedding.learning_rate": 0.1,
    "embedding.epochs": 2,
    "embedding.seed": 12,
    "general_lexicon": "other.csv",
    "general_columns": {"word": "term"},
    "extra_seeds": "extra.csv",
    "seeds.n1": 7,
    "seeds.f1": 77,
    "seeds.n2": 8,
    "seeds.f2": 88,
    "wordnet_dir": "otherwn",
    "k": 4,
    "shuffle_sheet": 3,
    "kappa_weighting": "quadratic",
    "sea_avg": 4.5,
    "t_test": "pooled",
}

DAMAGED_MANIFESTS = [b'{"ingest": ', b"[]", b'{"ingest": 5}', b"null", b'"ingest"', b"\xff{}"]


#: every file the stages write
STAGE_FILES = [*(name for spec in STAGES.values() for name in spec.artifacts), "manifest.json"]

STAGE_RUNS = {"ingest": run_ingest, "train": run_train, "score": run_score,
              "evaluate": run_evaluate}

#: ``arousalkit [command] --help`` at click's default width, for the group and
#: the commands with options or arguments
HELP = {
    "": """\
Usage: arousalkit [OPTIONS] COMMAND [ARGS]...

  Bootstrap and evaluate an issue-tracker arousal lexicon.

Options:
  --config PATH    Pipeline config JSON (env AROUSALKIT_CONFIG).
  --work-dir PATH  Override the work directory.
  --seed INTEGER   Override the training seed.
  -v, --verbose    Log stage progress.
  --help           Show this message and exit.

Commands:
  agreement  Two-rater agreement statistics over the ingested ratings.
  build      Aggregate ratings into the arousal lexicon file.
  demo       Run the full pipeline on a generated corpus with simulated...
  evaluate   Group scores by priority and render the effect-size tables.
  expand     Add WordNet synonyms and embedding neighbors as candidates.
  ingest     Parse the corpus, build the vocabulary, record issue...
  neighbors  Print the nearest embedding neighbors of a word.
  ratings    Ingest filled rating sheets, one per rater.
  score      Score every issue text unit under the general, sea and...
  seeds      Select frequency-validated extreme-arousal seed words.
  sheet      Write the rating sheet for the candidate words the review...
  train      Count co-occurrences and train the embedding.
""",
    "neighbors": """\
Usage: arousalkit neighbors [OPTIONS]

  Print the nearest embedding neighbors of a word.

Options:
  --word TEXT  Query word.  [required]
  -k INTEGER   Neighbor count (default config k).
  --help       Show this message and exit.
""",
    "sheet": """\
Usage: arousalkit sheet [OPTIONS]

  Write the rating sheet for the candidate words the review accepts.

Options:
  --review PATH  Accept/reject decisions file: one word,accept or word,reject
                 per line.  [required]
  --help         Show this message and exit.
""",
    "ratings": """\
Usage: arousalkit ratings [OPTIONS] SHEET_FILES...

  Ingest filled rating sheets, one per rater.

Options:
  --labels TEXT  Comma-separated rater labels (default: file stems).
  --help         Show this message and exit.
""",
    "demo": """\
Usage: arousalkit demo [OPTIONS]

  Run the full pipeline on a generated corpus with simulated raters.

Options:
  --issues INTEGER  Synthetic corpus size.
  --help            Show this message and exit.
""",
}
#: the help of each command that takes no option, from its one-line text
HELP.update({name: f"Usage: arousalkit {name} [OPTIONS]\n\n  {text}\n\n"
                   "Options:\n  --help  Show this message and exit.\n"
             for name, text in {
                 "ingest": "Parse the corpus, build the vocabulary, record issue priorities.",
                 "train": "Count co-occurrences and train the embedding.",
                 "seeds": "Select frequency-validated extreme-arousal seed words.",
                 "expand": "Add WordNet synonyms and embedding neighbors as candidates.",
                 "agreement": "Two-rater agreement statistics over the ingested ratings.",
                 "build": "Aggregate ratings into the arousal lexicon file.",
                 "score": "Score every issue text unit under the general, sea and combined "
                          "modes.",
                 "evaluate": "Group scores by priority and render the effect-size tables.",
             }.items()})

#: the stdout of each command run one by one on the ``demo_workdir`` inputs,
#: ``{work}`` standing for the work directory: the commands whose output holds
#: no trained float, then the others
FLOAT_FREE_STDOUT = {
    "ingest": "vocabulary: 176 words\n",
    "seeds": "40 seeds (20 high, 20 low)\n",
    "sheet": "sheet written to {work}/sheet.csv\n",
}
STAGE_STDOUT = {
    **FLOAT_FREE_STDOUT,
    "train": "trained 176 x 32 vectors; loss 2171.97 -> 360.60\n",
    "expand": "116 candidates pending review\n",
    "ratings": "232 ratings ingested, 0 empty cells, 0 rejected rows\n",
    "agreement": """\
words rated by both: 116
mean: 5.13 (r1), 5.15 (r2)
std deviation: 1.90 (r1), 2.01 (r2)
correlation (pearson): 0.88 (p-value 2.313e-39)
kappa (weighted, linear): 0.68
exact agreement: 41%
exact or off-by-one agreement: 90%
opposite ratings (one >5, other <5): 6%
""",
    "build": "lexicon built: 116 words, mean arousal 5.138\n",
    "score": "2052 scored rows written\n",
    "evaluate": "evaluation tables written (75 populated cells)\n",
    "neighbors": """\
integer\t0.4305
row\t0.4055
object\t0.3904
patient\t0.3609
mellow\t0.3509
input\t0.3358
path\t0.3143
minor\t0.3082
install\t0.3035
while\t0.3007
""",
}


@pytest.fixture(scope="module")
def demo_workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("cliwork")
    run_demo(work, n_issues=N_ISSUES, seed=11)
    return work


def workdir_digest(work: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(work.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(work))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digests


class TestDemo:
    def test_all_stage_artifacts_produced(self, demo_workdir):
        for name in STAGE_FILES:
            assert (demo_workdir / name).is_file(), name

    def test_manifest_records_every_stage(self, demo_workdir):
        manifest = json.loads((demo_workdir / "manifest.json").read_text())
        assert set(manifest) == set(STAGES)

    def test_rerun_in_same_workdir_is_byte_identical(self, demo_workdir):
        before = workdir_digest(demo_workdir)
        run_demo(demo_workdir, n_issues=N_ISSUES, seed=11)
        assert workdir_digest(demo_workdir) == before

    def test_sheet_rows_have_k_neighbor_entries(self, demo_workdir):
        config = demo_config(demo_workdir, seed=11, n_issues=N_ISSUES)
        rows = [
            line for line in
            (demo_workdir / "sheet.csv").read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#") and not line.startswith("word,")
        ]
        assert rows
        for line in rows:
            cell = line.split(",")[3]
            assert len(cell.split(";")) == config.k


def pinned(table: str) -> dict[str, str]:
    """name -> digest, from one ``name digest`` line each."""
    return dict(line.split() for line in table.strip().splitlines())


#: sha256 of the ``reader_demo`` files whose bytes hold no trained float
FLOAT_FREE_DIGESTS = pinned("""
extra_seeds.csv             b7a3ddfd7653f13fb575637f4911c209d5847c1630716e960c1cb309f0ee911f
inputs/corpus.jsonl         c7d39e3999b35ca1b3d613ce49f2c0eccc13728154c7ffb332c64c9fdcb5825f
inputs/general_lexicon.csv  17ed272b4268933edea4971e869f158ec458bdefcad4df89bbf47c67b38a5efb
inputs/truth.csv            e5e0281a34348b0b97c61312e291a4b35bea7fa11eadafcf037af3ec8967997f
inputs/wordnet/data.adj     2f470986fc9299acc2abdb54fc7ae1be3e34d84ff1636598e9ef7322c8433791
inputs/wordnet/data.adv     bc66b19ee12160937a577c162e0ff9edf8ef8fb4cf6464408c51261bfae9be58
inputs/wordnet/data.noun    9f6ef18dc0cd3e2fa5b58d2affc2efd816ce3b4ae74103734b4f48b00b59e5f3
inputs/wordnet/data.verb    fdf91951a9e0b5e3f52cae8495b5b82d0d4b56c91b130f2aded60ab651304826
inputs/wordnet/index.adj    341388c2d3c60a6ebcd2f64b7ad34e70f62f728e41b261f2af1d52c6a6a0a054
inputs/wordnet/index.adv    be28694e651a6e6035162dcfb1f45d19b7cd38f9ddd05b74cf2bf9ca927d23aa
inputs/wordnet/index.noun   d142f9332e450a218593de2447397405df3d9159a7ea95cedd61f21556c09c5d
inputs/wordnet/index.verb   c626e227cadf3179835b92bfabf7b8869adbc206a11b5ac34fdd201870ba0363
seeds.csv                   9cbe6c606069a150fd8e4ffbe09d5784107e1f5bb445608934141750859050a9
tokens.bin                  621f988a39382860d95e07d3da4ff68fcd3e6d70b522fb775a398e66ed6c0444
vocab.csv                   4129785b9b20eeb5f5ce3e58361a65f08f22da4c7e32aeef3c0170f57ef941ec
""")

#: sha256 of the ``reader_demo`` files that derive from the trained embedding
EMBEDDING_DIGESTS = pinned("""
agreement.txt               dd708fdd34952b87024b8b348d7db4b24456e8d25941ca06e537cd567d879e52
candidates.csv              6305de0e419b98b35d4e27a3eea754c9c823c6457adbf69a80cda8047ae7593b
embedding.bin               366c677e81f3d43f2e3e754d5fb61609c138a602356433da51ab55baa87e32bf
embedding.txt               c179a9d02c321d32bbca2391e2b0be63ff0a3923acd862d5aba2c357141670a5
eval_d.csv                  449259134b93bb71d4cac889d5a42128658ca39247f40dfda572a32da16a4168
eval_df.csv                 d48e9173cdd01a2b3aeb80716dc3f3bf179a670057c197d83dde2cad2fa11cf0
eval_p.csv                  633830079701e5ef9d285a64f970be43c5b3c47b723dda35cd6cafd53f3b20df
eval_t.csv                  448fa1b9be643ce35c177cd252e370b9e153b252127bbde3f717145563fe6f88
eval_tables.txt             822780d06033bad0149cf225eee738076bca3648b57d7d4d81c45a7078c5cbf3
ratings.csv                 0b93da02ad3e3b729c951d1ea40c2b3601d140ad88eea9042d936b8fe9cfb6bb
ratings_r1.csv              db03263e294a8600c2df64a8ef7bfa69b63d72c9cf9bc3dfc3e50942e5d90a73
ratings_r2.csv              9faac328381a83f2c7738cfe1724a56c91c5556697b49e2c6c613a848757259c
review_accept_all.csv       7659e5364270749789ef982ec71c9d09e8ad5426ce6574bab72371680984a4db
scores.bin                  312f45ff2ca0bb95dbced339a19924cfc2948659d07eedea2c4398a883102252
scores.csv                  036f8a1f2fe89193ff20b2dd9312d0d3e4f831c3602158842ded1004a55a6ab6
sea_lexicon.csv             5dfc24b9222e7c96de13d0e7310cff9956894d5fddf1c2da867d7d12affce3dd
sheet.csv                   62e8e43358cd6cdf6fb28b7f98321b4c95c4a44db9080bbc37865a932c07a2b6
""")


class TestPinnedDemo:
    """The 120-issue, seed-7 demo writes the same bytes from one version of
    the code to the next. ``inputs/config.json`` and ``manifest.json`` are
    left out: they hold the paths of the work directory."""

    def test_float_free_files(self, reader_demo):
        digests = workdir_digest(reader_demo)
        assert set(digests) == {*FLOAT_FREE_DIGESTS, *EMBEDDING_DIGESTS,
                                "inputs/config.json", "manifest.json"}
        assert {name: digests[name] for name in FLOAT_FREE_DIGESTS} == FLOAT_FREE_DIGESTS

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="digests taken under numpy 2; the trained floats were never "
                               "compared under numpy 1")
    def test_embedding_derived_files(self, reader_demo):
        digests = workdir_digest(reader_demo)
        assert {name: digests[name] for name in EMBEDDING_DIGESTS} == EMBEDDING_DIGESTS


SPLIT_DEMO = """\
import os, sys
if sys.argv[2] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from arousalkit import corpus, embedding, pipeline
from arousalkit.embedding import WordVectors
from arousalkit.parallel import split
if sys.argv[2] == "all":  # ingest and the text dump both split
    corpus._READ_PARALLEL_MIN = 1 << 12
    embedding._DUMP_PARALLEL_MIN = 1 << 8
pipeline.run_demo(sys.argv[1], n_issues=300, seed=3)
vectors = WordVectors.load_binary(os.path.join(sys.argv[1], "embedding.bin"))
print(len(corpus._line_ranges(os.path.join(sys.argv[1], "inputs", "corpus.jsonl"))),
      len(split(len(vectors.words), vectors.matrix.size, embedding._DUMP_PARALLEL_MIN)))
"""


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="fewer than 2 usable CPUs: nothing splits")
def test_one_cpu_and_every_cpu_write_the_same_demo(tmp_path):
    # the two demos run at one path, since manifest.json holds the work directory
    work, digests, ranges = tmp_path / "demo", {}, {}
    for cpus in ("one", "all"):
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::DeprecationWarning", "-c", SPLIT_DEMO,
             str(work), cpus], capture_output=True, text=True, env=subprocess_env(),
            timeout=600)
        assert result.returncode == 0, result.stderr
        ranges[cpus] = tuple(map(int, result.stdout.split()))
        digests[cpus] = workdir_digest(work)
        del digests[cpus]["inputs/config.json"]
        shutil.rmtree(work)
    assert ranges["one"] == (1, 1)
    assert min(ranges["all"]) >= 2
    assert digests["one"] == digests["all"]


@pytest.fixture
def staged(demo_workdir, tmp_path):
    """A copy of the demo work directory and its configuration."""
    work = tmp_path / "work"
    shutil.copytree(demo_workdir, work)
    config = PipelineConfig.load(demo_workdir / "inputs" / "config.json")
    config.work_dir = str(work)
    return work, config


class TestReviewFile:
    """The review file is an input of ``sheet``; ``candidates.csv`` belongs to ``expand``."""

    def test_sheet_leaves_candidates_byte_identical(self, staged):
        work, config = staged
        before = (work / "candidates.csv").read_bytes()
        review = work / "review.csv"
        review.write_text("".join(f"{c.word},reject\n" for c in run_expand(config))
                          + "panic,accept\n", encoding="utf-8")
        expanded = (work / "candidates.csv").read_bytes()
        sheet = run_sheet(config, review=review)
        assert (work / "candidates.csv").read_bytes() == expanded == before
        rows = [line for line in sheet.read_text(encoding="utf-8").splitlines()
                if line and not line.startswith("#")]
        assert [row.split(",")[0] for row in rows] == ["word", "panic"]

    def test_candidate_file_holds_word_and_provenance(self, demo_workdir):
        lines = (demo_workdir / "candidates.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "word,provenance"
        assert all(line.count(",") == 1 for line in lines)

    @pytest.mark.parametrize("text", ["", "# nothing decided\n", "panic,reject\n",
                                      "ghost,accept\n", "panic,yes\n"])
    def test_review_accepting_nothing_fails_and_records_no_sheet(self, staged, text):
        work, config = staged
        (work / "sheet.csv").unlink()
        manifest = json.loads((work / "manifest.json").read_text())
        del manifest["sheet"]
        (work / "manifest.json").write_text(json.dumps(manifest))
        review = work / "review.csv"
        review.write_text(text, encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(f"review file {review} accepts none")):
            run_sheet(config, review=review)
        assert "sheet" not in json.loads((work / "manifest.json").read_text())
        assert not (work / "sheet.csv").exists()

    def test_three_column_candidate_file_is_refused_by_sheet(self, staged):
        work, config = staged
        candidates = work / "candidates.csv"
        candidates.write_text("word,provenance,status\npanic,seed,accepted\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=re.escape(f"{candidates}:1: expected header")):
            run_sheet(config, review=work / "review_accept_all.csv")

    def test_sheet_without_review_is_a_usage_error(self, demo_workdir):
        config_path = demo_workdir / "inputs" / "config.json"
        result = CliRunner().invoke(main, ["--config", str(config_path), "sheet"])
        assert result.exit_code == 2
        assert "Missing option '--review'" in result.output

    def test_sheet_with_review_rejecting_all_fails_without_traceback(self, staged):
        work, config = staged
        config_path = work / "config.json"
        config.save(config_path)
        review = work / "review.csv"
        review.write_text("panic,reject\n", encoding="utf-8")
        result = CliRunner().invoke(main, ["--config", str(config_path), "sheet",
                                           "--review", str(review)])
        assert result.exit_code == 1
        assert f"review file {review} accepts none" in result.output
        assert "Traceback" not in result.output

    def test_score_has_no_modes_option(self, demo_workdir):
        config_path = demo_workdir / "inputs" / "config.json"
        result = CliRunner().invoke(main, ["--config", str(config_path), "score",
                                           "--modes", "general"])
        assert result.exit_code == 2
        assert "No such option" in result.output


class TestCandidateProvenance:
    def test_edited_similarity_reaches_the_lexicon_at_four_decimals(self, staged):
        work, config = staged
        word = next(iter(SeaLexicon.load(work / "sea_lexicon.csv"))).word
        path = work / "candidates.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = next(n for n, line in enumerate(lines) if line.startswith(f"{word},"))
        lines[row] = f"{word},embedding:a:0.81234\n"
        path.write_text("".join(lines), encoding="utf-8")
        loaded = CandidateSet.load(path).entries[word]
        assert CandidateSet.row(loaded) == (word, "embedding:a:0.8123")
        run_build(config)
        built = (work / "sea_lexicon.csv").read_text(encoding="utf-8").splitlines()
        assert next(line for line in built if line.startswith(f"{word},")).endswith(
            ",embedding:a:0.8123")


class TestRatingRefusals:
    """Rating input that the domain lexicon cannot hold fails at the stage that
    reads it, names the file and records nothing."""

    @staticmethod
    def repeat_first_rating(work: Path) -> str:
        """Append a second score for the first (word, rater) of ratings.csv;
        return the error message expected for it."""
        ratings = work / "ratings.csv"
        lines = ratings.read_text(encoding="utf-8").splitlines()
        word, rater, _ = lines[1].split(",")
        with ratings.open("a", encoding="utf-8") as out:
            out.write(f"{word},{rater},9\n")
        return (f"{ratings}:{len(lines) + 1}: duplicate word, rater "
                f"{(word, rater)!r} (first on line 2)")

    @pytest.mark.parametrize("stage, name, artifact", [
        (run_agreement, "agreement", "agreement.txt"),
        (run_build, "build", "sea_lexicon.csv"),
    ])
    def test_repeated_rating_is_refused_with_its_line(self, staged, stage, name, artifact):
        work, config = staged
        manifest = json.loads((work / "manifest.json").read_text())
        del manifest[name]  # so that a new entry for the stage would show
        (work / "manifest.json").write_text(json.dumps(manifest))
        before = {path: (work / path).read_bytes() for path in ("manifest.json", artifact)}
        message = self.repeat_first_rating(work)
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            stage(config)
        assert {path: (work / path).read_bytes() for path in before} == before

    def test_repeated_rating_fails_agreement_without_traceback(self, staged):
        work, _ = staged
        message = self.repeat_first_rating(work)
        result = CliRunner().invoke(main, ["--config", str(work / "inputs" / "config.json"),
                                           "--work-dir", str(work), "agreement"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert message in result.output

    def test_third_rating_sheet_is_refused_by_name(self, staged):
        work, config = staged
        sheets = [work / "ratings_r1.csv", work / "ratings_r2.csv", work / "ratings_r3.csv"]
        shutil.copy(sheets[0], sheets[2])
        before = {path: (work / path).read_bytes() for path in ("manifest.json", "ratings.csv")}
        with pytest.raises(PipelineError, match=re.escape(
                f"at most 2 rating sheets, one per rater; got 3: "
                f"{sheets[0]}, {sheets[1]}, {sheets[2]}")):
            run_ratings(config, sheets)
        assert {path: (work / path).read_bytes() for path in before} == before

    def test_third_rating_sheet_fails_without_traceback(self, tmp_path):
        sheets = []
        for rater in ("alice", "bob", "carol"):
            sheets.append(tmp_path / f"{rater}.csv")
            sheets[-1].write_text("word,rating,frequency,similar_words\nalpha,5,5,\n",
                                  encoding="utf-8")
        result = CliRunner().invoke(main, ["--work-dir", str(tmp_path / "w"), "ratings",
                                           *map(str, sheets)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "got 3" in result.output
        assert not (tmp_path / "w").exists()

    @staticmethod
    def ratings_command(work: Path, labels: str):
        return CliRunner().invoke(main, ["--config", str(work / "inputs" / "config.json"),
                                         "--work-dir", str(work), "ratings",
                                         str(work / "ratings_r1.csv"), str(work / "ratings_r2.csv"),
                                         "--labels", labels])

    def test_spaces_around_rater_labels_are_stripped(self, staged):
        work, _ = staged
        # the demo ran the ratings stage with the labels r1,r2
        before = {name: (work / name).read_bytes() for name in ("ratings.csv", "manifest.json")}
        result = self.ratings_command(work, "r1, r2")
        assert result.exit_code == 0, result.output
        assert {name: (work / name).read_bytes() for name in before} == before

    def test_empty_rater_label_fails_naming_it(self, staged):
        work, _ = staged
        before = {name: (work / name).read_bytes() for name in ("ratings.csv", "manifest.json")}
        result = self.ratings_command(work, "r1,")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (f"Error: rater label '' of {work}/ratings_r2.csv is empty or "
                                 "has surrounding whitespace\n")
        # refused before the stage starts: its earlier run stays recorded
        assert {name: (work / name).read_bytes() for name in before} == before
        assert "ratings" in json.loads(before["manifest.json"])

    def test_empty_labels_option_names_the_raters_by_file_stem(self, staged):
        work, _ = staged
        result = self.ratings_command(work, "")
        assert result.exit_code == 0, result.output
        raters = {record.rater for record in load_rating_records(work / "ratings.csv")}
        assert raters == {"ratings_r1", "ratings_r2"}

    def test_word_not_on_the_sheet_is_rejected_per_sheet(self, staged, tmp_path):
        work, config = staged
        before = {name: (work / name).read_bytes() for name in ("ratings.csv", "sea_lexicon.csv")}
        sheets, expected = [], []
        for label in ("r1", "r2"):
            sheets.append(tmp_path / f"filled_{label}.csv")
            lines = (work / f"ratings_{label}.csv").read_text(encoding="utf-8").splitlines()
            sheets[-1].write_text("\n".join([*lines, "zzzword,7,1,"]) + "\n", encoding="utf-8")
            expected.append(f"{sheets[-1]}:{len(lines) + 1}: word 'zzzword' is not on the sheet")
        records, report = run_ratings(config, sheets, labels=["r1", "r2"])
        assert report.errors == expected
        assert "zzzword" not in {record.word for record in records}
        result = CliRunner().invoke(main, ["--config", str(work / "inputs" / "config.json"),
                                           "--work-dir", str(work), "ratings", *map(str, sheets),
                                           "--labels", "r1,r2"])
        assert result.exit_code == 0, result.output
        assert result.output.endswith(", 2 rejected rows\n")
        run_build(config)
        assert {name: (work / name).read_bytes() for name in before} == before


class TestAdversarialIssueIds:
    IDS = ("A,1", " B-2", 'C"3', "D\n4")

    def test_ids_keep_their_priority_through_evaluate(self, tmp_path):
        config = demo_config(tmp_path, seed=11, n_issues=N_ISSUES)
        before = run_demo(tmp_path, n_issues=N_ISSUES, seed=11)
        corpus = Path(config.corpus)
        records = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
        renamed = {}
        for record, new_id in zip(records, self.IDS):
            renamed[new_id] = record["priority"]
            record["id"] = new_id
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

        run_ingest(config)
        run_score(config)
        after = run_evaluate(config)
        stored = stored_priorities(config)
        assert {i: stored[i].value for i in self.IDS} == renamed
        assert self.group_sizes(after) == self.group_sizes(before)

    @staticmethod
    def group_sizes(table):
        return {key: (c.n_high, c.n_low) for key, c in table.cells.items() if c}

    def test_lone_surrogate_id_is_refused_with_line_and_id(self, tmp_path):
        synthetic.generate_demo_inputs(tmp_path, n_issues=40, seed=3)
        config = demo_config(tmp_path, seed=3, n_issues=40)
        record = {"id": "\ud800x", "priority": "Major", "title": "fix", "description": ""}
        Path(config.corpus).write_text(json.dumps(record) + "\n", encoding="utf-8")
        message = f"{config.corpus}:1: issue id '\\ud800x' cannot be encoded as UTF-8"
        with pytest.raises(CorpusFormatError) as info:
            run_ingest(config)
        assert str(info.value) == message

        config_path = tmp_path / "config.json"
        config.save(config_path)
        result = CliRunner().invoke(main, ["--config", str(config_path), "ingest"])
        assert result.exit_code == 1
        assert message in result.output
        assert isinstance(result.exception, SystemExit)

    def test_nul_in_id_round_trips_or_is_refused_by_name(self, tmp_path):
        run_demo(tmp_path, n_issues=N_ISSUES, seed=11)
        config = demo_config(tmp_path, seed=11, n_issues=N_ISSUES)
        corpus = Path(config.corpus)
        records = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
        records[0]["id"] = "A\x00B"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        run_ingest(config)
        assert stored_priorities(config)["A\x00B"].value == records[0]["priority"]
        if sys.version_info >= (3, 11):
            assert "A\x00B" in run_score(config).issue_ids
        else:  # Python 3.10's csv module cannot write NUL
            with pytest.raises(CorpusFormatError, match="scores.csv"):
                run_score(config)
            assert not list(Path(config.work_dir).glob(".scores.*"))


def stored_priorities(config) -> dict[str, Priority]:
    store = TokenStore.load(Path(config.work_dir) / "tokens.bin")
    return {i: list(Priority)[c] for i, c in zip(store.issue_ids, store.priority.tolist())}


class TestExtraSeeds:
    def test_seed_outside_the_vocabulary_does_not_reach_the_sheet(self, tmp_path):
        synthetic.generate_demo_inputs(tmp_path, n_issues=N_ISSUES, seed=11)
        config = demo_config(tmp_path, seed=11, n_issues=N_ISSUES)
        config.extra_seeds = str(tmp_path / "extra_seeds.csv")
        Path(config.extra_seeds).write_text("zzzword,high,survey\n", encoding="utf-8")
        run_ingest(config)
        run_train(config)
        assert "zzzword" not in run_seeds(config)
        candidates = run_expand(config)
        review = tmp_path / "review.csv"
        review.write_text("".join(f"{c.word},accept\n" for c in candidates), encoding="utf-8")
        sheet = run_sheet(config, review=str(review))
        assert "\nzzzword," not in sheet.read_text(encoding="utf-8")


class TestManifestChecks:
    def test_missing_artifact_names_the_stage(self, tmp_path):
        synthetic.generate_demo_inputs(tmp_path, n_issues=40, seed=3)
        config = demo_config(tmp_path, seed=3, n_issues=40)
        with pytest.raises(PipelineError, match="ingest"):
            run_train(config)

    def test_score_without_token_store_says_to_run_ingest(self, tmp_path):
        run_demo(tmp_path, n_issues=N_ISSUES, seed=11)
        (tmp_path / "tokens.bin").unlink()
        config = demo_config(tmp_path, seed=11, n_issues=N_ISSUES)
        with pytest.raises(PipelineError, match="'tokens.bin'; run the 'ingest' stage"):
            run_score(config)

    def test_evaluate_reads_the_scores_alone(self, demo_workdir, staged):
        # evaluate reads scores.bin only: ingest's files may be gone
        work, config = staged
        for name in (*STAGES["ingest"].artifacts, *STAGES["evaluate"].artifacts):
            (work / name).unlink()
        run_evaluate(config)
        assert [name for name in STAGES["evaluate"].artifacts
                if (work / name).read_bytes() != (demo_workdir / name).read_bytes()] == []

    def test_stale_upstream_detected(self, tmp_path):
        synthetic.generate_demo_inputs(tmp_path, n_issues=40, seed=3)
        config = demo_config(tmp_path, seed=3, n_issues=40)
        run_ingest(config)
        config.min_count = config.min_count + 1  # invalidates ingest outputs
        with pytest.raises(PipelineError, match="stale"):
            run_train(config)

    def test_check_passes_when_fresh(self, tmp_path):
        synthetic.generate_demo_inputs(tmp_path, n_issues=40, seed=3)
        config = demo_config(tmp_path, seed=3, n_issues=40)
        run_ingest(config)
        Workspace(config).check_stages(["ingest"])

    def test_stage_slices_match_the_table(self):
        assert {stage: set(stage_keys(stage)) for stage in STAGES} == STAGE_SLICES

    @pytest.mark.parametrize("key,value", sorted(OTHER_VALUES.items()))
    def test_changed_key_makes_exactly_its_stages_stale(self, demo_workdir, key, value):
        config = demo_config(demo_workdir, seed=11, n_issues=N_ISSUES)
        *parents, name = key.split(".")
        owner = functools.reduce(getattr, parents, config)
        assert getattr(owner, name) != value
        setattr(owner, name, value)
        config.validate()
        stale = set()
        for stage in STAGE_SLICES:
            try:
                Workspace(config).check_stages([stage])
            except PipelineError as exc:
                assert "stale" in str(exc)
                stale.add(stage)
        assert stale == {stage for stage, keys in STAGE_SLICES.items() if key in keys}

    def test_every_config_key_but_the_work_dir_is_varied(self):
        config = dataclasses.asdict(PipelineConfig())
        groups = ("embedding", "seeds")
        keys = {name for name in config if name not in groups}
        keys |= {f"{group}.{sub}" for group in groups for sub in config[group]}
        assert keys - set(OTHER_VALUES) == {"work_dir"}
        assert set().union(*STAGE_SLICES.values()) == set(OTHER_VALUES)

    def test_failed_stage_records_nothing(self, tmp_path):
        synthetic.generate_demo_inputs(tmp_path, n_issues=40, seed=3)
        config = demo_config(tmp_path, seed=3, n_issues=40)
        run_ingest(config)
        config.general_lexicon = str(tmp_path / "missing.csv")
        with pytest.raises(CorpusFormatError, match="missing.csv"):
            run_seeds(config)
        assert set(json.loads((tmp_path / "manifest.json").read_text())) == {"ingest"}
        assert not (tmp_path / "seeds.csv").exists()

    @pytest.mark.parametrize("name, key, value, last_writer, reader", [
        ("ingest", "min_count", 4, (TokenStore, "save"), run_train),
        ("train", "embedding.seed", 12, (WordVectors, "save_binary"), run_expand),
        ("score", "sea_avg", 7.25, (scoring, "save_score_records"), run_evaluate),
        ("evaluate", "t_test", "pooled", (evalstats, "atomic_open"),
         lambda config: Workspace(config).check_stages(["evaluate"])),
    ])
    def test_failed_rerun_leaves_the_stage_unrecorded(self, demo_workdir, staged, monkeypatch,
                                                      name, key, value, last_writer, reader):
        work, config = staged
        data = dataclasses.asdict(config)
        *parents, leaf = key.split(".")
        functools.reduce(dict.__getitem__, parents, data)[leaf] = value
        changed = PipelineConfig.from_dict(data)
        owner, attribute = last_writer
        writer = getattr(owner, attribute)

        def fail_last(*args):
            # every artifact of the stage but its last has been written anew
            if attribute != "atomic_open" or Path(args[0]).name == STAGES[name].artifacts[-1]:
                raise OSError("disk full")
            return writer(*args)

        monkeypatch.setattr(owner, attribute, fail_last)
        with pytest.raises(OSError, match="disk full"):
            STAGE_RUNS[name](changed)
        monkeypatch.undo()
        assert name not in json.loads((work / "manifest.json").read_text())
        with pytest.raises(PipelineError, match=re.escape(
                f"the last run of stage {name!r} did not complete; re-run {name!r}")):
            reader(config)
        STAGE_RUNS[name](config)
        assert workdir_digest(work) == workdir_digest(demo_workdir)

    @pytest.mark.parametrize("text", DAMAGED_MANIFESTS)
    def test_damaged_manifest_is_refused_by_name(self, tmp_path, text):
        synthetic.generate_demo_inputs(tmp_path, n_issues=40, seed=3)
        config = demo_config(tmp_path, seed=3, n_issues=40)
        run_ingest(config)
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(text)
        with pytest.raises(PipelineError, match=re.escape(f"damaged stage manifest {manifest}")):
            run_train(config)
        assert not (tmp_path / "embedding.bin").exists()

    @pytest.mark.parametrize("text", DAMAGED_MANIFESTS)
    def test_damaged_manifest_fails_without_traceback(self, tmp_path, text):
        synthetic.generate_demo_inputs(tmp_path, n_issues=40, seed=3)
        config = demo_config(tmp_path, seed=3, n_issues=40)
        config_path = tmp_path / "config.json"
        config.save(config_path)
        run_ingest(config)
        (tmp_path / "manifest.json").write_bytes(text)
        result = CliRunner().invoke(main, ["--config", str(config_path), "train"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"damaged stage manifest {tmp_path / 'manifest.json'}" in result.output
        assert "re-run the stages" in result.output
        assert "Traceback" not in result.output


class TestCommandLine:
    def test_unknown_subcommand_fails_with_usage(self):
        result = CliRunner().invoke(main, ["frobnicate"])
        assert result.exit_code != 0
        assert "Usage" in result.output or "No such command" in result.output

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_is_pinned(self, command):
        result = CliRunner().invoke(main, [*filter(None, [command]), "--help"],
                                    prog_name="arousalkit", terminal_width=78)
        assert result.exit_code == 0
        assert result.output == HELP[command]

    def test_neighbors_after_train(self, demo_workdir):
        config_path = demo_workdir / "inputs" / "config.json"
        result = CliRunner().invoke(
            main,
            ["--config", str(config_path), "neighbors", "--word", "panic", "-k", "10"],
        )
        assert result.exit_code == 0, result.output
        lines = [l for l in result.output.splitlines() if l.strip()]
        assert len(lines) == 10
        for line in lines:
            word, sim = line.split("\t")
            assert -1.0 <= float(sim) <= 1.0

    def test_neighbors_word_is_looked_up_in_lower_case(self, demo_workdir):
        config_path = demo_workdir / "inputs" / "config.json"
        results = [CliRunner().invoke(main, ["--config", str(config_path), "neighbors",
                                             "--word", word]) for word in ("panic", "PANIC")]
        assert [result.exit_code for result in results] == [0, 0], results[1].output
        assert results[1].output == results[0].output

    def test_neighbors_unknown_word_fails_cleanly(self, demo_workdir):
        config_path = demo_workdir / "inputs" / "config.json"
        result = CliRunner().invoke(
            main, ["--config", str(config_path), "neighbors", "--word", "qqqq"]
        )
        assert result.exit_code != 0
        assert "qqqq" in result.output

    def test_missing_stage_gives_nonzero_exit_naming_stage(self, tmp_path):
        synthetic.generate_demo_inputs(tmp_path, n_issues=40, seed=5)
        config = demo_config(tmp_path, seed=5, n_issues=40)
        config_path = tmp_path / "config.json"
        config.save(config_path)
        result = CliRunner().invoke(main, ["--config", str(config_path), "train"])
        assert result.exit_code != 0
        assert "ingest" in result.output

    def test_train_with_nothing_to_fit_names_its_inputs(self, tmp_path):
        synthetic.generate_demo_inputs(tmp_path, n_issues=50, seed=2)
        config = demo_config(tmp_path, seed=2, n_issues=50)
        config.min_count = 100000
        config_path = tmp_path / "config.json"
        config.save(config_path)
        result = CliRunner().invoke(main, ["--config", str(config_path), "ingest"])
        assert result.output == "vocabulary: 0 words\n"
        result = CliRunner().invoke(main, ["--config", str(config_path), "train"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            "Error: the train stage has nothing to fit: the co-occurrence matrix is empty with "
            "0 vocabulary words at min_count 100000 and embedding.window 10\n")
        assert set(json.loads((tmp_path / "manifest.json").read_text())) == {"ingest"}

    def test_demo_subcommand_smoke(self, tmp_path):
        result = CliRunner().invoke(
            main, ["--work-dir", str(tmp_path / "w"), "demo", "--issues", "80"]
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "w" / "eval_tables.txt").is_file()

    def test_stage_subcommands_one_by_one_reproduce_the_demo(self, demo_workdir, tmp_path):
        work, config_path = tmp_path / "staged", demo_workdir / "inputs" / "config.json"

        def run(*args):
            result = CliRunner().invoke(main, ["--config", str(config_path),
                                               "--work-dir", str(work), *args])
            assert result.exit_code == 0, result.output
            return result.output

        stdout = {args[0]: run(*args) for args in (
            ["ingest"], ["train"], ["seeds"], ["expand"],
            ["sheet", "--review", str(demo_workdir / "review_accept_all.csv")],
            ["ratings", str(demo_workdir / "ratings_r1.csv"),
             str(demo_workdir / "ratings_r2.csv"), "--labels", "r1,r2"],
            ["agreement"], ["build"], ["score"], ["evaluate"], ["neighbors", "--word", "panic"])}
        # the trained floats are pinned under numpy 2 only, as in TestPinnedDemo
        pinned = (STAGE_STDOUT if np.lib.NumpyVersion(np.__version__) >= "2.0.0"
                  else FLOAT_FREE_STDOUT)
        assert stdout["ratings"].endswith(", 0 rejected rows\n")
        assert {name: stdout[name] for name in pinned} == {
            name: text.format(work=work) for name, text in pinned.items()}
        assert [name for name in STAGE_FILES
                if (work / name).read_bytes() != (demo_workdir / name).read_bytes()] == []
        # neighbors prints the words of a sheet row's similar_words cell, in
        # order: both take k from the config
        rows = [line.split(",") for line in (work / "sheet.csv").read_text(encoding="utf-8")
                .splitlines() if not line.startswith("#")][1:6]
        assert len(rows) == 5
        for word, _, _, similar in rows:
            printed = [line.split("\t")[0]
                       for line in run("neighbors", "--word", word).splitlines()]
            assert printed == [entry.split(":")[0] for entry in similar.split(";")]

    @pytest.mark.parametrize("labels", [[], ["--labels", "r1,r1"]])
    def test_repeated_rater_label_fails_without_traceback(self, tmp_path, labels):
        sheets = []
        for rater in ("alice", "bob"):
            (tmp_path / rater).mkdir()
            sheets.append(tmp_path / rater / "sheet.csv")
            sheets[-1].write_text("word,rating,frequency,similar_words\nalpha,5,5,\n",
                                  encoding="utf-8")
        result = CliRunner().invoke(main, ["--work-dir", str(tmp_path / "w"), "ratings",
                                           *map(str, sheets), *labels])
        assert result.exit_code == 1
        label = "r1" if labels else "sheet"
        assert f"rater label '{label}' is given to two sheets: {sheets[0]} and {sheets[1]}" \
            in result.output
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "w" / "ratings.csv").exists()

    def test_ratings_without_a_sheet_is_refused_naming_it(self, tmp_path):
        # ratings reads sheet.csv, so it cannot be the first stage in a new work dir
        sheets = []
        for rater in ("alice", "bob"):
            sheets.append(tmp_path / f"{rater}.csv")
            sheets[-1].write_text("word,rating,frequency,similar_words\nalpha,5,5,\n",
                                  encoding="utf-8")
        work = tmp_path / "new" / "w"
        message = "missing artifact 'sheet.csv'; run the 'sheet' stage first"
        with pytest.raises(PipelineError, match=re.escape(message)):
            run_ratings(PipelineConfig(work_dir=str(work)), sheets)
        result = CliRunner().invoke(main, ["--work-dir", str(work), "ratings",
                                           *map(str, sheets)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert not (work / "ratings.csv").exists()
        assert not (work / "manifest.json").exists()

    def test_agreement_subcommand_reports(self, demo_workdir):
        config_path = demo_workdir / "inputs" / "config.json"
        result = CliRunner().invoke(main, ["--config", str(config_path), "agreement"])
        assert result.exit_code == 0, result.output
        assert "kappa" in result.output

    @pytest.mark.parametrize("data, message", [
        ({"embedding": {"threads": 2}}, "'embedding.threads'"),
        ({"seeds": {"n3": 1, "f3": 2}}, "'seeds.f3', 'seeds.n3'"),
        ({"workdir": "w", "k": 3}, "'workdir'"),
    ])
    def test_unknown_config_key_is_named(self, data, message):
        with pytest.raises(ValueError) as info:
            PipelineConfig.from_dict(data)
        assert str(info.value) == "unknown config key " + message

    def test_unknown_config_key_fails_without_traceback(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"embedding": {"dim": 8, "threads": 2}}))
        result = CliRunner().invoke(main, ["--config", str(config_path), "ingest"])
        assert result.exit_code == 1
        assert "unknown config key 'embedding.threads'" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_config_value_of_wrong_type_fails_without_traceback(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"min_count": "5"}))
        result = CliRunner().invoke(main, ["--config", str(config_path), "ingest"])
        assert result.exit_code == 1
        assert "min_count must be an integer, got '5'" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("value", [
        True, False, None, float("nan"), float("inf"), -float("inf"), 10**400, [1], {}, "bogus",
        "Lexicon",
    ])
    def test_bad_sea_avg_is_refused(self, value):
        with pytest.raises(ValueError, match="^sea_avg must be"):
            PipelineConfig.from_dict({"sea_avg": value})

    @pytest.mark.parametrize("value", ["lexicon", "dataset", 10.5, -2, 0])
    def test_sea_avg_settings_accepted(self, value):
        assert PipelineConfig.from_dict({"sea_avg": value}).sea_avg == value

    def test_bad_sea_avg_fails_without_traceback(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"sea_avg": True}))
        result = CliRunner().invoke(main, ["--config", str(config_path), "ingest"])
        assert result.exit_code == 1
        assert "sea_avg must be a finite number, got True" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("key, kind, value", [
        (key, kind, value)
        for key, kind in [("corpus", "a string"), ("general_lexicon", "a string"),
                          ("wordnet_dir", "a string"), ("work_dir", "a string"),
                          ("extra_seeds", "null or a string")]
        for value in (5, None, True, ["a.jsonl"], {"path": "a"}, 1.5)
        if not (key == "extra_seeds" and value is None)
    ])
    def test_path_keys_must_be_strings(self, key, kind, value):
        with pytest.raises(ValueError) as info:
            PipelineConfig.from_dict({key: value})
        assert str(info.value) == f"{key} must be {kind}, got {value!r}"

    def test_path_key_of_wrong_type_fails_without_traceback(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"corpus": 5}))
        result = CliRunner().invoke(main, ["--config", str(config_path), "ingest"])
        assert result.exit_code == 1
        assert "Error: corpus must be a string, got 5" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("value", [
        "Word", ["word", "Word"], {"Word": "token"}, {"valence": "V"},
        {"word": "Word", "arousal_sd": "A.SD.Sum"}, {"word": ""}, {"arousal": None},
        {"arousal": 3},
    ])
    def test_bad_general_columns_are_refused(self, value):
        with pytest.raises(ValueError, match="^general_columns must map word and/or arousal"):
            PipelineConfig.from_dict({"general_columns": value})

    @pytest.mark.parametrize("value", [None, {}, {"word": "token"},
                                       {"word": "token", "arousal": "activation"}])
    def test_general_columns_accepted(self, value):
        assert PipelineConfig.from_dict({"general_columns": value}).general_columns == value

    def test_bad_general_columns_fail_without_traceback(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"general_columns": {"valence": "V"}}))
        result = CliRunner().invoke(main, ["--config", str(config_path), "seeds"])
        assert result.exit_code == 1
        assert ("general_columns must map word and/or arousal to column names, "
                "got {'valence': 'V'}") in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("content, message", [
        (b'{"corpus": "x.jsonl",', ": invalid JSON: Expecting property name enclosed in double "
                                   "quotes: line 1 column 22 (char 21)"),
        (b'{"corpus": "caf\xe9"}', ":1: byte 0xe9 at column 16 is not UTF-8"),
        (b"[1]", ": expected a JSON object of config keys, got list"),
        (b'"config"', ": expected a JSON object of config keys, got str"),
        (b"[" * 100000 + b"]" * 100000, ": invalid JSON: maximum recursion depth exceeded"),
    ])
    def test_damaged_config_is_refused_naming_the_file(self, tmp_path, content, message):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(content)
        with pytest.raises(CorpusFormatError, match=re.escape(f"{config_path}{message}")):
            PipelineConfig.load(config_path)
        result = CliRunner().invoke(main, ["--config", str(config_path), "ingest"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {config_path}{message}" in result.output
        assert "Traceback" not in result.output

    def test_unreadable_config_is_refused_naming_the_file(self, tmp_path):
        with pytest.raises(CorpusFormatError, match=re.escape(f"cannot read {tmp_path}: ")):
            PipelineConfig.load(tmp_path)  # a directory
        result = CliRunner().invoke(main, ["--config", str(tmp_path), "ingest"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: cannot read {tmp_path}: " in result.output

    @pytest.mark.parametrize("group", ["embedding", "seeds"])
    def test_config_group_that_is_not_an_object_is_refused(self, group):
        with pytest.raises(ValueError, match=re.escape(
                f"{group} must be an object of config keys, got 5")):
            PipelineConfig.from_dict({group: 5})

    def test_config_round_trip(self, tmp_path):
        config = PipelineConfig()
        config.embedding.dim = 64
        config.sea_avg = 10.5
        path = tmp_path / "config.json"
        config.save(path)
        loaded = PipelineConfig.load(path)
        assert loaded.embedding.dim == 64
        assert loaded.sea_avg == 10.5
        assert loaded.seeds.f2 == 1000

    def test_defaults_match_reference_settings(self):
        config = PipelineConfig()
        assert config.embedding.dim == 300
        assert config.embedding.window == 10
        assert config.k == 10
        assert (config.seeds.n1, config.seeds.f1) == (10, 100)
        assert (config.seeds.n2, config.seeds.f2) == (10, 1000)

    def test_config_path_from_environment(self, demo_workdir):
        config_path = demo_workdir / "inputs" / "config.json"
        result = CliRunner().invoke(
            main, ["agreement"], env={"AROUSALKIT_CONFIG": str(config_path)}
        )
        assert result.exit_code == 0, result.output
        assert "kappa" in result.output


class TestReproduceScript:
    def test_scores_the_demo_corpus_with_both_lexicons(self, demo_run, tmp_path):
        inputs, out_dir = demo_run.work_dir / "inputs", tmp_path / "eval"
        result = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "reproduce_published_eval.py"),
             str(inputs / "corpus.jsonl"), str(inputs / "general_lexicon.csv"),
             str(demo_run.work_dir / "sea_lexicon.csv"), "--out-dir", str(out_dir)],
            capture_output=True, text=True, env=subprocess_env(), timeout=300)
        assert result.returncode == 0, result.stderr
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "eval_d.csv", "eval_df.csv", "eval_p.csv", "eval_t.csv", "eval_tables.txt",
            "scores.csv"]
        # the script writes the export through `score`'s writer and evaluates
        # the reals that it states, as `evaluate` does
        for path in out_dir.iterdir():
            assert path.read_bytes() == (demo_run.work_dir / path.name).read_bytes(), path.name
        match = re.search(r"^combined all_comments .*: d=(-?\d+\.\d+) ", result.stdout, re.M)
        assert match, result.stdout
        assert float(match.group(1)) > 0


class TestEmptyScoreTable:
    """Lexicons that match no text unit are refused by name, not scored to an empty table."""

    GENERAL, SEA_ROW = "Word,A.Mean.Sum\nzzzz,5.0\n", "qqqq,5.0000,5,5,seed\n"

    def test_score_refuses_and_stays_unrecorded(self, tmp_path):
        run_demo(tmp_path, n_issues=N_ISSUES, seed=11)
        config = demo_config(tmp_path, seed=11, n_issues=N_ISSUES)
        # in-place edits, which the manifest does not see
        (tmp_path / "inputs" / "general_lexicon.csv").write_text(self.GENERAL, encoding="utf-8")
        sea = tmp_path / "sea_lexicon.csv"
        sea.write_text(sea.read_text(encoding="utf-8").splitlines(keepends=True)[0]
                       + self.SEA_ROW, encoding="utf-8")
        before = {name: (tmp_path / name).read_bytes() for name in STAGES["score"].artifacts}
        args = ["--config", str(tmp_path / "inputs" / "config.json")]
        result = CliRunner().invoke(main, [*args, "score"])
        assert result.exit_code == 1
        assert result.output == (
            "Error: the score stage has nothing to write: no text unit matches a word of the "
            f"general lexicon {config.general_lexicon} or of {sea}\n")
        assert {name: (tmp_path / name).read_bytes() for name in before} == before
        result = CliRunner().invoke(main, [*args, "evaluate"])
        assert result.exit_code == 1
        assert "the last run of stage 'score' did not complete" in result.output

    def test_reproduction_script_prints_one_error_line(self, demo_run, tmp_path):
        (tmp_path / "general.csv").write_text(self.GENERAL, encoding="utf-8")
        sea = demo_run.work_dir / "sea_lexicon.csv"
        (tmp_path / "sea.csv").write_text(sea.read_text(encoding="utf-8").splitlines(
            keepends=True)[0] + self.SEA_ROW, encoding="utf-8")
        corpus = demo_run.work_dir / "inputs" / "corpus.jsonl"
        result = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "reproduce_published_eval.py"), str(corpus),
             str(tmp_path / "general.csv"), str(tmp_path / "sea.csv"),
             "--out-dir", str(tmp_path / "eval")],
            capture_output=True, text=True, env=subprocess_env(), timeout=300)
        assert result.returncode == 1
        assert (result.stdout, result.stderr) == ("", (
            f"error: no text unit of {corpus} matches a word of {tmp_path / 'general.csv'} "
            f"or {tmp_path / 'sea.csv'}; nothing to evaluate\n"))
        assert not (tmp_path / "eval").exists()


class TestEmptyCellWarnings:
    """Each empty evaluation cell is reported once per run."""

    def test_evaluate_command_reports_each_empty_cell_once(self, staged):
        work, _ = staged
        table = scoring.load_scores(work / "scores.bin")
        trivial = table.priority == scoring.CODES[Priority.TRIVIAL]
        # one Trivial issue left: its groups are too small for a t test
        keep = ~trivial | (table.issue == table.issue[trivial][0])
        scoring.save_score_records(dataclasses.replace(table, **{
            column.name: getattr(table, column.name)[keep]
            for column in dataclasses.fields(table) if column.name != "issue_ids"
        }), work / "scores.bin")
        warnings = evalstats.evaluate_priorities(scoring.load_scores(work / "scores.bin")).warnings
        assert any("Blocker-Trivial: group too small" in w for w in warnings)
        result = subprocess.run(
            [sys.executable, "-m", "arousalkit.cli", "--config",
             str(work / "inputs" / "config.json"), "--work-dir", str(work), "evaluate"],
            capture_output=True, text=True, env=subprocess_env(), timeout=300)
        assert result.returncode == 0, result.stderr
        for warning in warnings:
            assert (result.stdout + result.stderr).count(warning) == 1, warning
            assert f"WARNING arousalkit.pipeline: {warning}\n" in result.stderr

    def test_reproduction_script_prints_each_empty_cell_once(self, demo_run, tmp_path):
        inputs = demo_run.work_dir / "inputs"
        corpus = tmp_path / "corpus.jsonl"
        lines = (inputs / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        trivial = [line for line in lines if json.loads(line)["priority"] == "Trivial"]
        # one Trivial issue left: its groups are too small for a t test
        corpus.write_text("".join(line for line in lines if line not in trivial[1:]),
                          encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "reproduce_published_eval.py"), str(corpus),
             str(inputs / "general_lexicon.csv"), str(demo_run.work_dir / "sea_lexicon.csv"),
             "--out-dir", str(tmp_path / "eval")],
            capture_output=True, text=True, env=subprocess_env(), timeout=300)
        assert result.returncode == 0, result.stderr
        warnings = [line[len("warning: "):] for line in result.stdout.splitlines()
                    if line.startswith("warning: ")]
        assert any("Blocker-Trivial: group too small" in w for w in warnings)
        for warning in warnings:
            assert (result.stdout + result.stderr).count(warning) == 1, warning
