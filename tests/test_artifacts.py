import itertools
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arousalkit import scoring
from arousalkit.artifacts import (
    CorpusFormatError,
    LineError,
    atomic_open,
    read_rows,
    read_table,
    text_lines,
    write_rows,
)
from arousalkit.corpus import Field, Priority
from arousalkit.lexicon import (
    RatingRecord,
    load_rating_records,
    save_rating_records,
)
from arousalkit.scoring import (
    MODES,
    SCORE_HEADER,
    ScoreTable,
    load_scores,
    save_score_records,
    save_scores,
)
from conftest import corpus_store

# Python 3.10's csv module refuses NUL (loudly) on write and on read.
_NUL = "\x00" if sys.version_info < (3, 11) else ""

#: strings built to break a naive comma split: delimiters, quotes, line
#: breaks of both kinds, edge spaces and non-ASCII letters
adversarial = st.text(
    st.one_of(
        st.sampled_from(list(',"\r\n \t') + ["é", "中"]),
        st.characters(blacklist_categories=("Cs",), blacklist_characters=_NUL),
    ),
    max_size=12,
)

HEADER = ("a", "b", "c")


#: ids with the characters csv must quote, spaces, and letters outside the
#: Basic Multilingual Plane
score_ids = st.text(
    st.one_of(
        st.sampled_from(list(',"\r\n ') + ["é", "\U0001f600", "\U00010348"]),
        st.characters(blacklist_categories=("Cs",), blacklist_characters=_NUL),
    ),
    max_size=8,
)

#: reals that test the 4-decimal text: ties and near ties at the fifth
#: decimal, values that round to -0.0000, signed zeros, large magnitudes
score_reals = st.one_of(
    st.integers(-10**7, 10**7).map(lambda n: (n + 0.5) / 10**4),
    st.floats(-1e-3, 1e-3),
    st.sampled_from([0.0, -0.0, -4e-5, -5e-5, 5e-5, 2.00005, -1e17, 1e300, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def score_tables(draw):
    """A score table in canonical order over a subset of the modes."""
    ids = sorted(draw(st.lists(score_ids, max_size=5, unique=True)))
    modes = sorted(draw(st.sets(st.integers(0, len(MODES) - 1), min_size=1)))
    cells = [(i, f, m) for i in range(len(ids)) for f in range(len(Field)) for m in modes]
    cells = [c for c, keep in zip(cells, draw(st.lists(
        st.booleans(), min_size=len(cells), max_size=len(cells)))) if keep]
    n = len(cells)
    priority = draw(st.lists(st.integers(0, len(Priority) - 1), min_size=len(ids),
                             max_size=len(ids)))
    reals = [np.array(draw(st.lists(score_reals, min_size=n, max_size=n)), dtype=np.float64)
             for _ in range(3)]
    issue, field, mode = (np.array([c[k] for c in cells], dtype=np.int64) for k in range(3))
    return ScoreTable(ids, issue, field.astype(np.int8), mode.astype(np.int8),
                      np.array(priority, dtype=np.int8)[issue].astype(np.int8),
                      np.array(draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n)),
                               dtype=np.int64), *reals)


def reference_save_scores(table, path):
    """The row-at-a-time writer of ``scores.csv`` that the column-wise
    export replaced: one ``write_rows`` row per score."""
    fields = list(Field)
    write_rows(path, SCORE_HEADER, (
        (table.issue_ids[i], fields[f].value, MODES[m], n, f"{mx:.4f}", f"{mn:.4f}", f"{sc:.4f}")
        for i, f, m, n, mx, mn, sc in zip(
            table.issue.tolist(), table.field.tolist(), table.mode.tolist(),
            table.n_matched.tolist(), table.max_used.tolist(), table.min_used.tolist(),
            table.score.tolist())
    ))


def assert_export_matches_reference(table, work):
    """``save_scores`` writes the reference bytes and returns each real as
    the float64 that its 4-decimal text reads back to, bit for bit."""
    rounded = save_scores(table, work / "scores.csv")
    reference_save_scores(table, work / "reference.csv")
    assert (work / "scores.csv").read_bytes() == (work / "reference.csv").read_bytes()
    for name in ("max_used", "min_used", "score"):
        assert [x.hex() for x in getattr(rounded, name).tolist()] == \
            [float(f"{x:.4f}").hex() for x in getattr(table, name).tolist()], name
    return rounded


class TestRows:
    @given(st.lists(st.tuples(adversarial, adversarial, adversarial), max_size=8))
    def test_round_trip_keeps_every_string(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("rows") / "t.csv"
        write_rows(path, HEADER, rows)
        assert [tuple(row) for _, row in read_rows(path, HEADER)] == rows

    def test_quotes_only_when_needed(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, HEADER, [("A,1", " B-2 ", 3), ('q"t', "l\nb", "c\rr"), ("é", "", "x")])
        assert path.read_bytes().decode("utf-8") == (
            'a,b,c\n"A,1", B-2 ,3\n"q""t","l\nb","c\rr"\né,,x\n'
        )

    def test_line_numbers_count_physical_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, HEADER, [("x", "two\nlines", "y"), ("z", "", "w")])
        assert [n for n, _ in read_rows(path, HEADER)] == [2, 4]

    @pytest.mark.parametrize("text, message", [
        ("", ":1: expected header 'a,b,c'"),
        ("a,b\n1,2\n", ":1: expected header"),
        ("a,b,c\n1,2,3\n4,5\n", ":3: expected 3 columns, got 2"),
        ('a,b,c\n1,2,3\n"4,5,6\n', ":3: unexpected end of data"),
    ])
    def test_bad_file_names_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=f"t.csv{message}"):
            list(read_rows(path, HEADER))


def physical_lines(rows) -> list[int]:
    """The line each row of a ``write_rows`` file starts on: a line break
    inside a cell (``\r\n``, ``\r`` or ``\n``) moves the rows after it down."""
    lines, line = [], 2
    for row in rows:
        lines.append(line)
        line += 1 + sum(len(re.findall(r"\r\n|\r|\n", cell)) for cell in row)
    return lines


class TestReadTable:
    HEADER = ("word", "rater", "score")

    @given(rows=st.lists(st.tuples(st.sampled_from(["a", "b", "x\ny", 'c,"d', "e\r\n"]),
                                   st.sampled_from(["r1", "r2"]), adversarial), max_size=8),
           key=st.sampled_from([("word",), ("word", "rater")]))
    def test_repeated_key_is_refused_at_the_line_of_the_repeat(self, tmp_path_factory,
                                                              rows, key):
        path = tmp_path_factory.mktemp("table") / "t.csv"
        write_rows(path, self.HEADER, rows)
        lines = physical_lines(rows)
        keys = [row[:len(key)] for row in rows]  # the key columns come first
        repeat = next((i for i, k in enumerate(keys) if k in keys[:i]), None)
        if repeat is None:
            assert read_table(path, self.HEADER, lambda *cells: cells, key) == rows
            assert [n for n, _ in read_rows(path, self.HEADER)] == lines
            return
        shown = keys[repeat] if len(key) > 1 else keys[repeat][0]
        with pytest.raises(CorpusFormatError) as info:
            read_table(path, self.HEADER, lambda *cells: cells, key)
        assert str(info.value) == (
            f"{path}:{lines[repeat]}: duplicate {', '.join(key)} {shown!r} "
            f"(first on line {lines[keys.index(keys[repeat])]})"
        )

    def test_value_error_of_the_parser_names_the_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ("word", "n"), [("a", "1"), ("b\nc", "2"), ("d", "x")])
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"{path}:5: invalid literal for int()")):
            read_table(path, ("word", "n"), lambda word, n: (word, int(n)))


class TestRangedTextLines:
    """``text_lines(path, start, stop)`` between any two line starts of a
    file with every line end, a byte-order mark and characters of 1 to 4 bytes."""

    LINES = ["first \u00e9\r\n", "lone cr \u20ac\r", "lf \U0001f642\n", "\r\n", "\r", "last"]
    DATA = b"\xef\xbb\xbf" + "".join(LINES).encode()
    #: byte offset of each line, the first at 0 before the mark, then the end of the file
    STARTS = [0, *itertools.accumulate(len(line.encode()) for line in LINES)]
    STARTS[1:] = [start + 3 for start in STARTS[1:]]

    def pairs(self):
        return [(i, j) for i in range(len(self.LINES)) for j in range(i, len(self.STARTS))]

    def write(self, tmp_path, at=None):
        """The file, with a byte that is not UTF-8 inserted at byte ``at``."""
        path = tmp_path / "lines.txt"
        data = self.DATA if at is None else self.DATA[:at] + b"\xff" + self.DATA[at:]
        path.write_bytes(data)
        return path

    def test_yields_the_lines_that_begin_in_the_range(self, tmp_path):
        path = self.write(tmp_path)
        for i, j in self.pairs():
            expected = list(enumerate(self.LINES[i:j], 1))
            assert list(text_lines(path, self.STARTS[i], self.STARTS[j])) == expected
        for i in range(len(self.LINES)):
            assert list(text_lines(path, self.STARTS[i])) == list(enumerate(self.LINES[i:], 1))

    def test_a_bad_byte_from_stop_on_is_not_read(self, tmp_path):
        for i, j in self.pairs():
            if j == len(self.LINES):  # a byte at the end of the file ends the last line
                continue
            path = self.write(tmp_path, at=self.STARTS[j])
            expected = list(enumerate(self.LINES[i:j], 1))
            assert list(text_lines(path, self.STARTS[i], self.STARTS[j])) == expected

    def test_a_bad_byte_before_stop_names_its_line_and_column_in_the_range(self, tmp_path):
        for i, j in self.pairs():
            if i == j:
                continue
            text = self.LINES[j - 1].rstrip("\r\n")  # the bad byte goes before the line end
            at = self.STARTS[j - 1] + (3 if j == 1 else 0) + len(text.encode())
            path = self.write(tmp_path, at=at)
            with pytest.raises(LineError) as raised:
                list(text_lines(path, self.STARTS[i], self.STARTS[j] + 1))
            assert (raised.value.line, raised.value.problem) == (
                j - i, f"byte 0xff at column {len(text) + 1} is not UTF-8")


class TestAtomicWrite:
    def test_failed_write_keeps_previous_artifact_and_no_temp_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, HEADER, [("1", "2", "3")])
        before = path.read_bytes()

        def rows():
            yield ("4", "5", "6")
            raise RuntimeError("stage crashed")

        with pytest.raises(RuntimeError, match="stage crashed"):
            write_rows(path, HEADER, rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_text_is_replaced_on_success(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("old\n", encoding="utf-8")
        with atomic_open(path) as out:
            out.write("new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.txt"]


class TestStageArtifacts:
    @settings(max_examples=200, deadline=None)
    @given(score_tables())
    def test_scores_round_trip_joins_priorities(self, tmp_path_factory, table):
        work = tmp_path_factory.mktemp("scores")
        rounded = assert_export_matches_reference(table, work)
        save_score_records(rounded, work / "scores.bin")
        loaded = load_scores(work / "scores.bin")
        assert loaded.issue_ids == table.issue_ids
        for name in ("issue", "field", "mode", "priority", "n_matched"):
            assert getattr(loaded, name).tolist() == getattr(table, name).tolist(), name
        for name in ("max_used", "min_used", "score"):
            assert [x.hex() for x in getattr(loaded, name).tolist()] == \
                [x.hex() for x in getattr(rounded, name).tolist()], name

    @pytest.mark.parametrize("chunk_rows", [1, 2, 7])
    @settings(max_examples=60, deadline=None)
    @given(table=score_tables())
    def test_scores_export_with_small_chunks(self, tmp_path_factory, chunk_rows, table):
        work = tmp_path_factory.mktemp("chunks")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scoring, "_CHUNK_ROWS", chunk_rows)
            assert_export_matches_reference(table, work)

    def test_scores_export_across_chunks(self, tmp_path):
        rng = np.random.default_rng(5)
        n, per_issue = 3 * scoring._CHUNK_ROWS + 5, len(Field) * len(MODES)
        n_ids = -(-n // per_issue)
        ids = sorted(f"{k:05d}" + ("", ',a"b', "\n", " x", "é")[k % 5] for k in range(n_ids))
        row = np.arange(n)
        reals = []
        for _ in range(3):
            # many distinct values, at 0 to 7 decimals
            scale = 10.0 ** rng.integers(0, 8, n)
            values = np.rint(rng.normal(0.0, 50.0, n) * scale) / scale
            values[::97] = -0.0
            values[1::97] = 0.0
            values[2::97] = -4e-5
            values[3::97] = (rng.integers(-10**6, 10**6, len(values[3::97])) + 0.5) / 10**4
            reals.append(values)
        table = ScoreTable(ids, row // per_issue, (row % per_issue // len(MODES)).astype(np.int8),
                           (row % len(MODES)).astype(np.int8), np.zeros(n, dtype=np.int8),
                           rng.integers(1, 10**4, n), *reals)
        assert len(np.unique(table.score)) > 10**5
        assert_export_matches_reference(table, tmp_path)

    @given(st.lists(st.builds(RatingRecord, adversarial, adversarial, st.integers(1, 9)),
                    max_size=8, unique_by=lambda r: (r.word, r.rater)))
    def test_rating_records_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("ratings") / "ratings.csv"
        save_rating_records(records, path)
        assert load_rating_records(path) == records


class TestScoreRecords:
    def table(self, **changes):
        ids = ["a", "b"]
        base = ScoreTable(ids, np.array([0, 0, 1]), np.array([0, 0, 4], dtype=np.int8),
                          np.array([0, 2, 1], dtype=np.int8), np.array([1, 1, 5], dtype=np.int8),
                          np.array([1, 2, 3]), np.array([6.0, 7.0, 8.0]),
                          np.array([4.0, 3.0, 2.0]), np.array([10.0, 10.5, 10.0]))
        return replace(base, **changes)

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data[:-9], "not a valid score table"),
        (lambda data: data[:40], "not a valid score table"),
        (lambda data: data + b"\x00", "not a valid score table: trailing bytes"),
    ])
    def test_truncated_or_trailing_bytes_are_refused(self, tmp_path, edit, message):
        path = tmp_path / "scores.bin"
        save_score_records(self.table(), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(CorpusFormatError, match=f"{path}: {message}"):
            load_scores(path)

    @pytest.mark.parametrize("record, array", [
        (4, np.zeros((2, 3), dtype=np.int8)),
        (5, np.array([1, 2])),
        (6, np.zeros((3, 2))),
    ])
    def test_columns_of_other_lengths_are_refused(self, tmp_path, record, array):
        path = tmp_path / "scores.bin"
        save_score_records(self.table(), path)
        with path.open("rb") as handle:
            records = [np.lib.format.read_array(handle) for _ in range(7)]
        records[record] = array
        with path.open("wb") as handle:
            for r in records:
                np.lib.format.write_array(handle, r)
        with pytest.raises(CorpusFormatError, match=f"{path}: .*columns differ in length"):
            load_scores(path)

    def test_foreign_file_is_refused(self, tmp_path):
        path = tmp_path / "scores.bin"
        corpus_store([{"id": "a", "priority": "Major", "title": "t",
                       "description": "d"}]).save(path)
        with pytest.raises(CorpusFormatError, match=f"{path}: .*unknown format tag"):
            load_scores(path)

    @pytest.mark.parametrize("changes, message", [
        ({"field": np.array([0, 0, 5], dtype=np.int8)}, "field code out of range"),
        ({"mode": np.array([0, 3, 1], dtype=np.int8)}, "mode code out of range"),
        ({"priority": np.array([1, 6, 5], dtype=np.int8)}, "priority code out of range"),
        ({"priority": np.array([-1, 1, 5], dtype=np.int8)}, "priority code out of range"),
        ({"issue": np.array([0, 0, 2])}, "issue code out of range"),
        ({"mode": np.array([2, 0, 1], dtype=np.int8)}, "not in canonical order"),
    ])
    def test_inconsistent_columns_are_refused(self, tmp_path, changes, message):
        path = tmp_path / "scores.bin"
        save_score_records(self.table(**changes), path)
        with pytest.raises(CorpusFormatError, match=f"{path}: .*{message}"):
            load_scores(path)
