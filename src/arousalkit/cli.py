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

from .artifacts import CorpusFormatError
from .config import PipelineConfig
from .corpus import Field
from .embedding import TrainingDivergedError
from .evalstats import PRIORITY_PAIRS, pair_label
from .lexicon import SeedSelectionError
from .pipeline import (
    PipelineError,
    run_agreement,
    run_build,
    run_demo,
    run_evaluate,
    run_expand,
    run_ingest,
    run_neighbors,
    run_ratings,
    run_score,
    run_seeds,
    run_sheet,
    run_train,
)
from .wordnet import WordNetError

_USER_ERRORS = (
    PipelineError,
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
    ctx.obj = {"config": config, "seed": seed}


def _run(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except _USER_ERRORS as exc:
        raise click.ClickException(str(exc)) from exc


@main.command()
@click.pass_context
def ingest(ctx):
    """Parse the corpus, build the vocabulary, record issue priorities."""
    vocab = _run(run_ingest, ctx.obj["config"])
    click.echo(f"vocabulary: {len(vocab)} words")


@main.command()
@click.pass_context
def train(ctx):
    """Count co-occurrences and train the embedding."""
    model = _run(run_train, ctx.obj["config"])
    click.echo(
        f"trained {len(model.words)} x {model.dim} vectors; "
        f"loss {model.loss_history[0]:.2f} -> {model.loss_history[-1]:.2f}"
    )


@main.command()
@click.option("--word", required=True, help="Query word.")
@click.option("-k", default=None, type=int, help="Neighbor count (default config k).")
@click.pass_context
def neighbors(ctx, word, k):
    """Print the nearest embedding neighbors of a word."""
    result = _run(run_neighbors, ctx.obj["config"], word, k)
    for neighbor, sim in result:
        click.echo(f"{neighbor}\t{sim:.4f}")


@main.command()
@click.pass_context
def seeds(ctx):
    """Select frequency-validated extreme-arousal seed words."""
    seed_set = _run(run_seeds, ctx.obj["config"])
    n_high = sum(1 for s in seed_set if s.pole == "high")
    click.echo(f"{len(seed_set)} seeds ({n_high} high, {len(seed_set) - n_high} low)")


@main.command()
@click.pass_context
def expand(ctx):
    """Add WordNet synonyms and embedding neighbors as candidates."""
    candidates = _run(run_expand, ctx.obj["config"])
    click.echo(f"{len(candidates)} candidates pending review")


@main.command()
@click.option("--review", required=True, type=click.Path(exists=True),
              help="Accept/reject decisions file: one word,accept or word,reject per line.")
@click.pass_context
def sheet(ctx, review):
    """Write the rating sheet for the candidate words the review accepts."""
    path = _run(run_sheet, ctx.obj["config"], review)
    click.echo(f"sheet written to {path}")


@main.command()
@click.argument("sheet_files", nargs=-1, required=True,
                type=click.Path(exists=True))
@click.option("--labels", default=None,
              help="Comma-separated rater labels (default: file stems).")
@click.pass_context
def ratings(ctx, sheet_files, labels):
    """Ingest filled rating sheets, one per rater."""
    label_list = labels.split(",") if labels else None
    records, report = _run(run_ratings, ctx.obj["config"], list(sheet_files), label_list)
    click.echo(
        f"{len(records)} ratings ingested, {report.n_skipped} empty cells, "
        f"{len(report.errors)} rejected rows"
    )


@main.command()
@click.pass_context
def agreement(ctx):
    """Two-rater agreement statistics over the ingested ratings."""
    report = _run(run_agreement, ctx.obj["config"])
    for line in report.lines():
        click.echo(line)


@main.command()
@click.pass_context
def build(ctx):
    """Aggregate ratings into the arousal lexicon file."""
    sea = _run(run_build, ctx.obj["config"])
    click.echo(f"lexicon built: {len(sea)} words, mean arousal {sea.mu:.3f}")


@main.command()
@click.pass_context
def score(ctx):
    """Score every issue text unit under the general, sea and combined modes."""
    table = _run(run_score, ctx.obj["config"])
    click.echo(f"{len(table)} scored rows written")


@main.command()
@click.pass_context
def evaluate(ctx):
    """Group scores by priority and render the effect-size tables."""
    table = _run(run_evaluate, ctx.obj["config"])
    populated = sum(1 for cell in table.cells.values() if cell is not None)
    click.echo(f"evaluation tables written ({populated} populated cells)")


@main.command()
@click.option("--issues", default=1000, type=int, help="Synthetic corpus size.")
@click.pass_context
def demo(ctx, issues):
    """Run the full pipeline on a generated corpus with simulated raters."""
    config = ctx.obj["config"]
    seed = ctx.obj["seed"] if ctx.obj["seed"] is not None else 7
    table = _run(run_demo, config.work_dir, n_issues=issues, seed=seed)
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
