"""Priority-pair effect sizes and significance tables over a score table.

Scores are grouped by (field, mode, priority); for each of the five
priority pairs the group means are compared with Cohen's d and a two
sample t test (Welch by default, pooled selectable). Output is rendered
both as machine-readable per-statistic files and as a display table with
significance annotations (*** p<0.001, ** p<0.01, * p<0.05).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Optional

import numpy as np

from .artifacts import atomic_open, write_rows
from .corpus import Field, Priority
from .scoring import CODES, MODES, ScoreTable
from .stats import Moments, cohens_d_moments, pooled_t_moments, welch_t_moments

#: (higher priority, lower priority) comparisons, in table column order.
PRIORITY_PAIRS = (
    (Priority.BLOCKER, Priority.TRIVIAL),
    (Priority.BLOCKER, Priority.CRITICAL),
    (Priority.CRITICAL, Priority.MAJOR),
    (Priority.MAJOR, Priority.MINOR),
    (Priority.MINOR, Priority.TRIVIAL),
)

DISPLAY_FIELD_LABELS = {
    Field.TITLE: "Title",
    Field.DESCRIPTION: "Desc",
    Field.ALL_COMMENTS: "All comments",
    Field.FIRST_COMMENT: "First comment",
    Field.LAST_COMMENT: "Last comment",
}


_N_MODES, _N_PRIORITIES = len(MODES), len(Priority)


def _group_key(field, mode, priority):
    """Integer key of the (field, mode, priority) codes, ordered like the
    tuple; the codes may be int8 arrays, as every key is below 90."""
    return (field * _N_MODES + mode) * _N_PRIORITIES + priority


def pair_label(pair: tuple[Priority, Priority]) -> str:
    return f"{pair[0].value}-{pair[1].value}"


@dataclass
class ComparisonCell:
    """Statistics of one cell; its key in ``EvalTable.cells`` says which."""

    cohen_d: float
    t: float
    df: float
    p: float
    n_high: int
    n_low: int


@dataclass
class EvalTable:
    """Cells over every ``Field`` x mode seen x ``PRIORITY_PAIRS``."""

    modes: tuple[str, ...]
    cells: dict[tuple[Field, str, tuple[Priority, Priority]], Optional[ComparisonCell]]
    warnings: list[str] = dataclass_field(default_factory=list)

    def cell(self, field: Field, mode: str, pair) -> Optional[ComparisonCell]:
        return self.cells.get((field, mode, pair))


def evaluate_priorities(scores: ScoreTable, t_test: str = "welch") -> EvalTable:
    """Build the full field x mode x priority-pair comparison grid.

    Unknown-priority rows are dropped; if none is left, the table has no
    modes and one warning says why. A pair whose groups are too small
    (or degenerate) yields an empty cell and a line in ``warnings``, never
    an error.
    """
    t_test_fn = {"welch": welch_t_moments, "pooled": pooled_t_moments}.get(t_test)
    if t_test_fn is None:
        raise ValueError(f"unknown t-test variant: {t_test!r}")
    if not len(scores):
        raise ValueError("empty score table")
    # one int8 key per row; a stable sort (a radix sort on int8) keeps table
    # order within a group
    keys = _group_key(scores.field, scores.mode, scores.priority)
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], scores.score[order]
    known = keys % _N_PRIORITIES != CODES[Priority.UNKNOWN]
    keys, values = keys[known], values[known]
    if not len(keys):
        return EvalTable((), {}, ["no scored row has a Blocker, Critical, Major, Minor or "
                                  "Trivial priority; every table is empty"])
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    group_keys, ends = keys[starts], np.append(starts[1:], len(keys))
    sizes = dict(zip(group_keys.tolist(), (ends - starts).tolist()))
    # each group's moments, computed once for the two pairs it sits in
    moments = {key: Moments.of(values[start:end]) for key, start, end
               in zip(group_keys.tolist(), starts.tolist(), ends.tolist()) if end - start >= 2}
    modes_seen = {MODES[key // _N_PRIORITIES % _N_MODES] for key in sizes}
    modes = tuple(m for m in MODES if m in modes_seen)
    table = EvalTable(modes, {})
    for field in Field:
        for mode in modes:
            for pair in PRIORITY_PAIRS:
                high_key, low_key = (_group_key(CODES[field], CODES[mode], CODES[p])
                                     for p in pair)
                key = (field, mode, pair)
                table.cells[key] = None
                if high_key not in moments or low_key not in moments:
                    problem = (f"group too small ({sizes.get(high_key, 0)} vs"
                               f" {sizes.get(low_key, 0)}), cell left empty")
                else:
                    high, low = moments[high_key], moments[low_key]
                    try:
                        table.cells[key] = ComparisonCell(cohens_d_moments(high, low),
                                                          *t_test_fn(high, low), high.n, low.n)
                        continue
                    except ValueError as exc:
                        problem = f"{exc}; cell left empty"
                table.warnings.append(f"{field.value}/{mode}/{pair_label(pair)}: {problem}")
    return table


def significance_marker(p: float) -> str:
    return "***" if p < 0.001 else "**" if p < 0.01 else "*" if p < 0.05 else ""


def render_tables(table: EvalTable, out_dir: str | Path) -> list[Path]:
    """Write per-statistic delimited files and the annotated display table.

    Returns the written paths, deterministically ordered.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ("field", "mode", *map(pair_label, PRIORITY_PAIRS))
    paths = []
    for stat, fmt, name in (
        ("cohen_d", ".4f", "eval_d.csv"),
        ("t", ".4f", "eval_t.csv"),
        ("df", ".6g", "eval_df.csv"),
        ("p", ".4g", "eval_p.csv"),
    ):
        paths.append(out_dir / name)
        write_rows(paths[-1], header, (
            (field.value, mode, *(format(getattr(cell, stat), fmt)
                                  if (cell := table.cell(field, mode, pair)) else ""
                                  for pair in PRIORITY_PAIRS))
            for field in Field for mode in table.modes))
    paths.append(out_dir / "eval_tables.txt")
    with atomic_open(paths[-1]) as out:
        out.write(_render_display(table))
    return paths


def _render_display(table: EvalTable) -> str:
    col_width, label_width = 18, 16
    header = " " * label_width + "".join(pair_label(p).rjust(col_width) for p in PRIORITY_PAIRS)
    out = []
    for title, render in (
        ("Cohen's d between issue priorities", lambda cell: f"{cell.cohen_d:.4f}"),
        ("t-test p-values (*** p<0.001, ** p<0.01, * p<0.05)",
         lambda cell: f"{cell.p:.3g}{significance_marker(cell.p)}"),
    ):
        out += [title, header]
        for field in Field:
            for i, mode in enumerate(table.modes):
                label = (DISPLAY_FIELD_LABELS[field] if i == 0 else "") + f" [{mode}]"
                cells = [render(cell) if (cell := table.cell(field, mode, pair)) else "-"
                         for pair in PRIORITY_PAIRS]
                out.append(label.ljust(label_width) + "".join(c.rjust(col_width) for c in cells))
        out.append("")
    return "\n".join(out) + "\n"
