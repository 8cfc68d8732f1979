from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arousalkit.corpus import Field, Priority
from arousalkit.evalstats import (
    PRIORITY_PAIRS,
    evaluate_priorities,
    pair_label,
    render_tables,
    significance_marker,
)
from arousalkit.scoring import CODES, MODES, ScoreTable
from arousalkit.stats import Moments, cohens_d, pooled_t_moments, welch_t_test


class Row(NamedTuple):
    issue_id: str
    priority: Priority
    field: Field
    mode: str
    score: float


def row(issue_id, priority, score, field=Field.TITLE, mode="sea"):
    return Row(issue_id, priority, field, mode, score)


def rows_for(priority_scores, field=Field.TITLE, mode="sea"):
    rows = []
    n = 0
    for priority, scores in priority_scores.items():
        for score in scores:
            rows.append(row(f"i{n}", priority, score, field, mode))
            n += 1
    return rows


def table_of(rows):
    """A score table holding ``rows`` in the given order, one issue per row."""
    def codes(values):
        return np.array([CODES[v] for v in values], dtype=np.int8)

    scores = np.array([r.score for r in rows], dtype=np.float64)
    return ScoreTable([r.issue_id for r in rows], np.arange(len(rows), dtype=np.int64),
                      codes(r.field for r in rows), codes(r.mode for r in rows),
                      codes(r.priority for r in rows), np.ones(len(rows), dtype=np.int64),
                      scores, scores, scores)


def reference_evaluate_priorities(rows, t_test="welch"):
    """The row-based grouping that the column-based evaluation replaced:
    scores are collected per (field, mode, priority) in row order."""
    t_test_fn = {"welch": welch_t_test,
                 "pooled": lambda a, b: pooled_t_moments(Moments.of(a), Moments.of(b))}[t_test]
    groups = {}
    for r in rows:
        if r.priority is not Priority.UNKNOWN:
            groups.setdefault((r.field, r.mode, r.priority), []).append(r.score)
    modes = tuple(m for m in MODES if any(key[1] == m for key in groups))
    cells, warnings = {}, []
    for field in Field:
        for mode in modes:
            for pair in PRIORITY_PAIRS:
                high = np.array(groups.get((field, mode, pair[0]), []), dtype=np.float64)
                low = np.array(groups.get((field, mode, pair[1]), []), dtype=np.float64)
                cells[(field, mode, pair)] = None
                label = f"{field.value}/{mode}/{pair_label(pair)}"
                if len(high) < 2 or len(low) < 2:
                    warnings.append(f"{label}: group too small ({len(high)} vs {len(low)}), "
                                    "cell left empty")
                    continue
                try:
                    d = cohens_d(high, low)
                    t, df, p = t_test_fn(high, low)
                except ValueError as exc:
                    warnings.append(f"{label}: {exc}; cell left empty")
                    continue
                cells[(field, mode, pair)] = (d, t, df, p, len(high), len(low))
    return modes, cells, warnings


@st.composite
def evaluation_rows(draw):
    """Rows over two fields, a subset of the modes and every priority,
    Unknown included, with few distinct scores so that small and
    zero-variance groups are common."""
    modes = draw(st.lists(st.sampled_from(MODES), min_size=1, max_size=3, unique=True))
    score = st.sampled_from([1.0, 2.5, 2.5000000000000004, -0.0, 7.25]) | st.floats(-9, 9)
    fields = st.sampled_from([Field.TITLE, Field.LAST_COMMENT])
    cells = st.lists(st.tuples(st.sampled_from(list(Priority)), fields, st.sampled_from(modes),
                               score), min_size=1, max_size=40)
    return [Row(f"i{n}", *cell) for n, cell in enumerate(draw(cells))]


class TestAgainstRowReference:
    @settings(max_examples=300, deadline=None)
    @given(evaluation_rows(), st.sampled_from(["welch", "pooled"]))
    def test_every_cell_and_warning_is_bit_equal(self, rows, t_test):
        table = evaluate_priorities(table_of(rows), t_test=t_test)
        modes, cells, warnings = reference_evaluate_priorities(rows, t_test)
        assert table.modes == modes
        assert table.cells.keys() == cells.keys()
        for key, cell in table.cells.items():
            got = cell and (cell.cohen_d, cell.t, cell.df, cell.p, cell.n_high, cell.n_low)
            assert repr(got) == repr(cells[key]), key
        assert table.warnings == warnings

    def test_reference_sees_every_kind_of_empty_cell(self):
        rows = (rows_for({Priority.BLOCKER: [1.0, 1.0], Priority.TRIVIAL: [1.0, 1.0],
                          Priority.UNKNOWN: [3.0, 4.0]})
                + rows_for({Priority.MAJOR: [1.0, 2.0, 3.0], Priority.MINOR: [2.0]},
                           mode="general"))
        table = evaluate_priorities(table_of(rows))
        assert table.modes == ("general", "sea")
        assert table.cell(Field.TITLE, "sea", PRIORITY_PAIRS[0]) is None
        assert any("zero pooled standard deviation" in w for w in table.warnings)
        assert any("group too small (3 vs 1)" in w for w in table.warnings)
        assert table.warnings == reference_evaluate_priorities(rows)[2]


class TestEvaluatePriorities:
    def test_only_present_pairs_populated(self):
        rng = np.random.default_rng(0)
        rows = rows_for({
            Priority.BLOCKER: rng.normal(12, 1, 20).tolist(),
            Priority.TRIVIAL: rng.normal(10, 1, 20).tolist(),
        })
        table = evaluate_priorities(table_of(rows))
        populated = {key for key, cell in table.cells.items() if cell is not None}
        assert populated == {(Field.TITLE, "sea", PRIORITY_PAIRS[0])}
        assert table.warnings  # the empty groups each warned

    def test_positive_d_when_higher_priority_scores_higher(self):
        rng = np.random.default_rng(1)
        rows = rows_for({
            Priority.BLOCKER: rng.normal(12, 1, 30).tolist(),
            Priority.TRIVIAL: rng.normal(10, 1, 30).tolist(),
        })
        cell = evaluate_priorities(table_of(rows)).cell(Field.TITLE, "sea", PRIORITY_PAIRS[0])
        assert cell.cohen_d > 0
        assert cell.n_high == 30 and cell.n_low == 30

    def test_unknown_priority_dropped(self):
        rng = np.random.default_rng(2)
        rows = rows_for({
            Priority.BLOCKER: rng.normal(12, 1, 10).tolist(),
            Priority.TRIVIAL: rng.normal(10, 1, 10).tolist(),
            Priority.UNKNOWN: rng.normal(50, 1, 10).tolist(),
        })
        table = evaluate_priorities(table_of(rows))
        cell = table.cell(Field.TITLE, "sea", PRIORITY_PAIRS[0])
        assert cell is not None
        assert all(
            key[2] in PRIORITY_PAIRS for key in table.cells
        )

    def test_row_order_independent(self):
        rng = np.random.default_rng(3)
        rows = rows_for({
            Priority.BLOCKER: rng.normal(12, 1, 15).tolist(),
            Priority.CRITICAL: rng.normal(11, 1, 15).tolist(),
            Priority.TRIVIAL: rng.normal(10, 1, 15).tolist(),
        })
        forward = evaluate_priorities(table_of(rows))
        backward = evaluate_priorities(table_of(list(reversed(rows))))
        for key, cell in forward.cells.items():
            other = backward.cells[key]
            if cell is None:
                assert other is None
            else:
                assert other.cohen_d == pytest.approx(cell.cohen_d, abs=1e-12)
                assert other.p == pytest.approx(cell.p, abs=1e-12)

    def test_full_grid_is_75_cells_when_all_modes_present(self):
        rng = np.random.default_rng(4)
        rows = []
        for field in Field:
            for mode in ("general", "sea", "combined"):
                for priority in (Priority.BLOCKER, Priority.CRITICAL, Priority.MAJOR,
                                 Priority.MINOR, Priority.TRIVIAL):
                    rows.extend(rows_for(
                        {priority: rng.normal(10, 1, 5).tolist()}, field, mode
                    ))
        table = evaluate_priorities(table_of(rows))
        assert len(table.cells) == 75
        assert all(cell is not None for cell in table.cells.values())

    def test_pooled_variant_selectable(self):
        rng = np.random.default_rng(5)
        rows = rows_for({
            Priority.BLOCKER: rng.normal(12, 1, 10).tolist(),
            Priority.TRIVIAL: rng.normal(10, 1, 10).tolist(),
        })
        welch = evaluate_priorities(table_of(rows), t_test="welch")
        pooled = evaluate_priorities(table_of(rows), t_test="pooled")
        cell_w = welch.cell(Field.TITLE, "sea", PRIORITY_PAIRS[0])
        cell_p = pooled.cell(Field.TITLE, "sea", PRIORITY_PAIRS[0])
        assert cell_p.df == 18.0
        assert cell_w.df != cell_p.df

    def test_empty_table_is_an_error(self):
        with pytest.raises(ValueError):
            evaluate_priorities(table_of([]))


class TestRender:
    def test_significance_markers(self):
        assert significance_marker(0.0005) == "***"
        assert significance_marker(0.005) == "**"
        assert significance_marker(0.04) == "*"
        assert significance_marker(0.2) == ""

    def test_empty_table_renders_headers_only(self, tmp_path):
        rows = rows_for({Priority.BLOCKER: [1.0, 2.0]})  # no pair has both groups
        table = evaluate_priorities(table_of(rows))
        files = render_tables(table, tmp_path)
        d_lines = (tmp_path / "eval_d.csv").read_text(encoding="utf-8").splitlines()
        assert d_lines[0] == "field,mode," + ",".join(pair_label(p) for p in PRIORITY_PAIRS)
        assert all(line.endswith(",,,,") for line in d_lines[1:])
        assert len(files) == 5

    def test_annotated_display_cell(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = rows_for({
            Priority.BLOCKER: rng.normal(14, 1, 40).tolist(),
            Priority.TRIVIAL: rng.normal(10, 1, 40).tolist(),
        })
        table = evaluate_priorities(table_of(rows))
        render_tables(table, tmp_path)
        display = (tmp_path / "eval_tables.txt").read_text(encoding="utf-8")
        assert "***" in display
        assert "Cohen's d" in display

    def test_render_is_byte_identical_on_rerun(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = rows_for({
            Priority.BLOCKER: rng.normal(12, 1, 12).tolist(),
            Priority.MINOR: rng.normal(11, 1, 12).tolist(),
            Priority.TRIVIAL: rng.normal(10, 1, 12).tolist(),
        })
        a, b = tmp_path / "a", tmp_path / "b"
        render_tables(evaluate_priorities(table_of(rows)), a)
        render_tables(evaluate_priorities(table_of(list(rows))), b)
        for name in ("eval_d.csv", "eval_t.csv", "eval_df.csv", "eval_p.csv",
                     "eval_tables.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
