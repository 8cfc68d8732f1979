"""Command-line pipeline driver.

All subcommands share one JSON configuration file (``--config``, or the
AROUSALKIT_CONFIG environment variable) and a work directory holding the
stage artifacts. ``demo`` runs the whole pipeline on a bundled synthetic
corpus with simulated raters.
"""

from __future__ import annotations

import logging
import sys

import click

from . import pipeline
from .artifacts import CorpusFormatError
from .config import PipelineConfig
from .corpus import Field
from .embedding import TrainingDivergedError
from .evalstats import PRIORITY_PAIRS, pair_label
from .lexicon import SeedSelectionError
from .wordnet import WordNetError

_USER_ERRORS = (
    pipeline.PipelineError,
    CorpusFormatError,
    SeedSelectionError,
    WordNetError,
    TrainingDivergedError,
    ValueError,
    OSError,
)


@click.group()
@click.option("--config", "config_path", envvar="AROUSALKIT_CONFIG", default=None,
              type=click.Path(), help="Pipeline config JSON (env AROUSALKIT_CONFIG).")
@click.option("--work-dir", default=None, type=click.Path(),
              help="Override the work directory.")
@click.option("--seed", default=None, type=int, help="Override the training seed.")
@click.option("-v", "--verbose", is_flag=True, help="Log stage progress.")
@click.pass_context
def main(ctx, config_path, work_dir, seed, verbose):
    """Bootstrap and evaluate an issue-tracker arousal lexicon."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    config = _run(PipelineConfig.load, config_path) if config_path else PipelineConfig()
    if work_dir is not None:
        config.work_dir = work_dir
    if seed is not None:
        config.embedding.seed = seed
    _run(config.validate)  # an override is refused before any stage runs
    ctx.obj = {"config": config, "seed": seed}


def _run(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except _USER_ERRORS as exc:
        raise click.ClickException(str(exc)) from exc


def _stage_command(name, run, help_text, *params, summary):
    """Register the subcommand ``name``: it calls ``run`` with the configuration
    and the parsed ``params``, and prints each line ``summary`` makes of the result."""
    @click.pass_context
    def command(ctx, **values):
        for line in summary(_run(run, ctx.obj["config"], **values)):
            click.echo(line)
    main.add_command(click.Command(name, callback=command, params=list(params), help=help_text))


def _labels(ctx, param, value):
    """The stripped comma-separated labels of ``--labels``; None (the file stems) if empty."""
    return [label.strip() for label in value.split(",")] if value else None


def _seeds_summary(seed_set):
    n_high = sum(1 for s in seed_set if s.pole == "high")
    return [f"{len(seed_set)} seeds ({n_high} high, {len(seed_set) - n_high} low)"]


def _ratings_summary(result):
    records, report = result
    return [f"{len(records)} ratings ingested, {report.n_skipped} empty cells, "
            f"{len(report.errors)} rejected rows"]


def _evaluate_summary(table):
    populated = sum(1 for cell in table.cells.values() if cell is not None)
    return [f"evaluation tables written ({populated} populated cells)"]


_stage_command("ingest", pipeline.run_ingest,
               "Parse the corpus, build the vocabulary, record issue priorities.",
               summary=lambda vocab: [f"vocabulary: {len(vocab)} words"])
_stage_command("train", pipeline.run_train, "Count co-occurrences and train the embedding.",
               summary=lambda model: [f"trained {len(model.words)} x {model.dim} vectors; "
                                      f"loss {model.loss_history[0]:.2f} -> "
                                      f"{model.loss_history[-1]:.2f}"])
_stage_command("neighbors", pipeline.run_neighbors,
               "Print the nearest embedding neighbors of a word.",
               click.Option(["--word"], required=True, help="Query word."),
               click.Option(["-k"], default=None, type=int,
                            help="Neighbor count (default config k)."),
               summary=lambda result: [f"{neighbor}\t{sim:.4f}" for neighbor, sim in result])
_stage_command("seeds", pipeline.run_seeds,
               "Select frequency-validated extreme-arousal seed words.",
               summary=_seeds_summary)
_stage_command("expand", pipeline.run_expand,
               "Add WordNet synonyms and embedding neighbors as candidates.",
               summary=lambda candidates: [f"{len(candidates)} candidates pending review"])
_stage_command("sheet", pipeline.run_sheet,
               "Write the rating sheet for the candidate words the review accepts.",
               click.Option(["--review"], required=True, type=click.Path(exists=True),
                            help="Accept/reject decisions file: one word,accept or "
                                 "word,reject per line."),
               summary=lambda path: [f"sheet written to {path}"])
_stage_command("ratings", pipeline.run_ratings, "Ingest filled rating sheets, one per rater.",
               click.Argument(["sheet_files"], nargs=-1, required=True,
                              type=click.Path(exists=True)),
               click.Option(["--labels"], default=None, callback=_labels,
                            help="Comma-separated rater labels (default: file stems)."),
               summary=_ratings_summary)
_stage_command("agreement", pipeline.run_agreement,
               "Two-rater agreement statistics over the ingested ratings.",
               summary=lambda report: report.lines())
_stage_command("build", pipeline.run_build, "Aggregate ratings into the arousal lexicon file.",
               summary=lambda sea: [f"lexicon built: {len(sea)} words, mean arousal {sea.mu:.3f}"])
_stage_command("score", pipeline.run_score,
               "Score every issue text unit under the general, sea and combined modes.",
               summary=lambda table: [f"{len(table)} scored rows written"])
_stage_command("evaluate", pipeline.run_evaluate,
               "Group scores by priority and render the effect-size tables.",
               summary=_evaluate_summary)


@main.command()
@click.option("--issues", default=1000, type=int, help="Synthetic corpus size.")
@click.pass_context
def demo(ctx, issues):
    """Run the full pipeline on a generated corpus with simulated raters."""
    config = ctx.obj["config"]
    seed = ctx.obj["seed"] if ctx.obj["seed"] is not None else 7
    table = _run(pipeline.run_demo, config.work_dir, n_issues=issues, seed=seed)
    click.echo(f"demo artifacts in {config.work_dir}")
    for mode in table.modes:
        cell = table.cell(Field.ALL_COMMENTS, mode, PRIORITY_PAIRS[0])
        if cell:
            click.echo(
                f"all_comments {pair_label(PRIORITY_PAIRS[0])} [{mode}]: "
                f"d={cell.cohen_d:.4f} p={cell.p:.3g}"
            )


if __name__ == "__main__":
    sys.exit(main())
