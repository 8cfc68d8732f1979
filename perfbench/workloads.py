"""The three benchmark workloads, driven only through ``arousalkit.pipeline.run_*``.

Each workload builds its configuration explicitly with
``PipelineConfig.from_dict`` and writes its inputs from the workload seed.
A run is a list of episodes of three kinds: ``setup`` episodes write the
inputs (and, for ``rescore``, run the upstream stages); ``upstream``
episodes run ingest .. build; ``round`` episodes run score and evaluate
under both settings. Only stage calls are timed; simulated raters,
the accept-all review file, output checks and digests run between them.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from arousalkit import pipeline, synthetic
from arousalkit.config import PipelineConfig
from arousalkit.corpus import Field, Priority

import zipfgen

SETUP_REPS = 5
#: after each upstream episode, rescore rounds repeat until they have taken
#: this long, so that the medians of the short round stages rest on samples
#: spread over several seconds
ROUND_SECONDS = 6.0
EVAL_CELLS = 75  # 5 fields x 3 modes x 5 priority pairs


@dataclass
class Workload:
    """Inputs and configuration of one workload; BENCHMARK.json says why."""

    name: str
    write_corpus: Callable[[Path, int], None]
    config: dict
    #: run ingest..build once per setup episode and time only rescore rounds
    prep_in_setup: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "demo-train",
            lambda path, seed: synthetic.generate_corpus(path, n_issues=4000, seed=seed),
            {"min_count": 5, "embedding": {"dim": 32, "window": 10, "epochs": 6},
             "seeds": {"f1": 80, "f2": 250}},
        ),
        Workload(
            "zipf-vocab",
            lambda path, seed: zipfgen.generate_zipf_corpus(path, n_issues=1900, seed=seed),
            {"min_count": 2, "embedding": {"dim": 300, "window": 2, "epochs": 0},
             "seeds": {"f1": 100, "f2": 150}},
        ),
        Workload(
            "rescore",
            lambda path, seed: synthetic.generate_corpus(path, n_issues=10000, seed=seed),
            {"min_count": 5, "embedding": {"dim": 8, "window": 1, "epochs": 0},
             "seeds": {"f1": 200, "f2": 600}},
            prep_in_setup=True,
        ),
    )
}

class StageFailed(Exception):
    pass


@dataclass
class Episode:
    kind: str  # "setup" | "upstream" | "round"
    index: int
    traced: bool
    start: float = 0.0
    end: float = 0.0
    generate_s: float = 0.0
    complete: bool = False
    #: (stage label, start, end) of every timed stage call
    calls: list[tuple[str, float, float]] = field(default_factory=list)
    #: seconds per stage label at the reference speed, and the wall seconds
    stages: dict[str, float] = field(default_factory=dict)
    raw_stages: dict[str, float] = field(default_factory=dict)
    wall: float = 0.0
    raw_wall: float = 0.0

    def normalise(self, sampler) -> None:
        """Fill ``stages`` and ``wall`` from the sampler's record of host speed."""
        self.raw_wall = self.end - self.start
        self.wall = sampler.normalise(self.start, self.end)
        for label, start, end in self.calls:
            self.raw_stages[label] = self.raw_stages.get(label, 0.0) + end - start
            self.stages[label] = self.stages.get(label, 0.0) + sampler.normalise(start, end)

    @property
    def label(self) -> str:
        return f"{self.kind}{self.index}"


class Session:
    """Stage calls, output checks, digests and episodes of one run."""

    def __init__(self, workload: Workload, seed: int, work_root: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.work_root = work_root
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.episodes: list[Episode] = []
        self.episode: Optional[Episode] = None
        self.peak_rss_mb: Optional[float] = None

    # -- bookkeeping -------------------------------------------------------

    @contextlib.contextmanager
    def begin(self, kind: str, traced: bool):
        """An episode; it counts as complete only if the block raises nothing."""
        index = sum(1 for e in self.episodes if e.kind == kind)
        self.episode = Episode(kind, index, traced)
        self.episodes.append(self.episode)
        if self.tracer is not None:
            self.tracer.episode = self.episode.label
            if traced and not self.tracer.active:
                self.tracer.install()
            elif not traced and self.tracer.active:
                self.tracer.uninstall()
        self.episode.start = perf_counter()
        yield self.episode
        self.episode.end = perf_counter()
        self.episode.complete = True

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    def stage(self, label: str, fn, *args, **kwargs):
        """One timed stage call; its interval is recorded in the episode."""
        self.attempted += 1
        span = (self.tracer.span(f"pipeline.run_{label.removesuffix('_b')}")
                if self.episode.traced else contextlib.nullcontext())
        start = perf_counter()
        try:
            with span:
                result = fn(*args, **kwargs)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self._fail(f"{self.episode.label} stage {label}: {exc!r}")
            raise StageFailed(label) from exc
        self.episode.calls.append((label, start, perf_counter()))
        return result

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"{self.episode.label} check: {what}")

    def check_digest(self, key: str, path: Path) -> None:
        """The file must have the same content every time the key recurs."""
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        first = self.digests.setdefault(key, digest)
        self.check(digest == first, f"{key} digest {digest} differs from {first}")

    # -- pipeline pieces ---------------------------------------------------

    def write_inputs(self, inputs: Path) -> dict[str, Path]:
        inputs.mkdir(parents=True, exist_ok=True)
        paths = {
            "corpus": inputs / "corpus.jsonl",
            "general_lexicon": inputs / "general_lexicon.csv",
            "wordnet_dir": inputs / "wordnet",
            "truth": inputs / "truth.csv",
        }
        start = perf_counter()
        self.workload.write_corpus(paths["corpus"], self.seed)
        self.episode.generate_s = perf_counter() - start
        synthetic.generate_general_lexicon(paths["general_lexicon"])
        synthetic.write_wordnet_fixture(paths["wordnet_dir"])
        synthetic.write_truth(paths["truth"], synthetic.planted_truth())
        self.check_digest("corpus.jsonl", paths["corpus"])
        return paths

    def configs(self, inputs: dict[str, Path], work_dir: Path):
        data = dict(self.workload.config)
        data["embedding"] = dict(data["embedding"], seed=self.seed)
        data.update(corpus=str(inputs["corpus"]),
                    general_lexicon=str(inputs["general_lexicon"]),
                    wordnet_dir=str(inputs["wordnet_dir"]),
                    work_dir=str(work_dir))
        default = PipelineConfig.from_dict(dict(data, sea_avg="lexicon", t_test="welch"))
        alternative = PipelineConfig.from_dict(dict(data, sea_avg="dataset", t_test="pooled"))
        return default, alternative

    def upstream(self, config: PipelineConfig, inputs: dict[str, Path]) -> None:
        """ingest .. build, with an accept-all review and simulated raters."""
        work_dir = Path(config.work_dir)
        self.stage("ingest", pipeline.run_ingest, config)
        self.stage("train", pipeline.run_train, config)
        self.check_digest("embedding.txt", work_dir / "embedding.txt")
        self.stage("seeds", pipeline.run_seeds, config)
        candidates = self.stage("expand", pipeline.run_expand, config)
        review = work_dir / "review_accept_all.csv"
        review.write_text("".join(f"{c.word},accept\n" for c in candidates), encoding="utf-8")
        self.stage("sheet", pipeline.run_sheet, config, review=str(review))
        truth = synthetic.load_truth(inputs["truth"])
        sheets = []
        for n, label in enumerate(("r1", "r2"), start=1):
            out = work_dir / f"ratings_{label}.csv"
            synthetic.fill_ratings(work_dir / "sheet.csv", out, truth, self.seed + n)
            sheets.append(str(out))
        _, report = self.stage("ratings", pipeline.run_ratings, config, sheets,
                               labels=["r1", "r2"])
        self.check(not report.errors, f"{len(report.errors)} rating rows rejected")
        self.stage("agreement", pipeline.run_agreement, config)
        self.stage("build", pipeline.run_build, config)

    def rescore_round(self, default: PipelineConfig, alternative: PipelineConfig) -> None:
        work_dir = Path(default.work_dir)
        for suffix, config in (("", default), ("_b", alternative)):
            self.stage("score" + suffix, pipeline.run_score, config)
            table = self.stage("evaluate" + suffix, pipeline.run_evaluate, config)
            setting = f"{config.sea_avg}/{config.t_test}"
            filled = sum(1 for cell in table.cells.values() if cell is not None)
            self.check(filled == EVAL_CELLS,
                       f"{setting}: {filled} of {EVAL_CELLS} evaluation cells filled")
            cell = table.cell(Field.ALL_COMMENTS, "combined",
                              (Priority.BLOCKER, Priority.TRIVIAL))
            self.check(cell is not None and cell.cohen_d > 0,
                       f"{setting}: combined all_comments Blocker-Trivial d is "
                       f"{cell.cohen_d if cell else None}, expected > 0")
            self.check_digest(f"scores.csv[{setting}]", work_dir / "scores.csv")
            self.check_digest(f"eval_d.csv[{setting}]", work_dir / "eval_d.csv")


def run_workload(session: Session, seconds: float, traced: bool) -> None:
    """Set up SETUP_REPS times, then repeat the timed unit for ``seconds``.

    The timed unit is one upstream episode followed by rounds on its
    artifacts for at least ROUND_SECONDS, or, for ``rescore``, one round on
    the last set-up's artifacts. A traced run alternates untraced and
    traced units (at least one of each) so that the tracing overhead is
    measured in the same process; its set-up episodes are all traced.
    """
    workload = session.workload
    work_root = session.work_root
    for rep in range(SETUP_REPS):
        base = work_root / f"setup{rep}"
        with session.begin("setup", traced):
            inputs = session.write_inputs(base / "inputs")
            default, alternative = session.configs(inputs, base / "work")
            if workload.prep_in_setup:
                session.upstream(default, inputs)
        if rep + 1 < SETUP_REPS:
            shutil.rmtree(base)

    start = perf_counter()
    n = 0
    while perf_counter() - start < seconds or (traced and n < 2):
        traced_now = traced and n % 2 == 1
        if workload.prep_in_setup:
            with session.begin("round", traced_now):
                session.rescore_round(default, alternative)
        else:
            work_dir = work_root / f"timed{n}"
            default, alternative = session.configs(inputs, work_dir)
            with session.begin("upstream", traced_now):
                session.upstream(default, inputs)
            rounds_start = perf_counter()
            while perf_counter() - rounds_start < ROUND_SECONDS:
                with session.begin("round", traced_now):
                    session.rescore_round(default, alternative)
            shutil.rmtree(work_dir)
        if n == 0:
            # the peak of set-up plus one unit does not depend on how many
            # units fit into the run
            session.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        n += 1
