import sys
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arousalkit.artifacts import CorpusFormatError, atomic_open, read_rows, write_rows
from arousalkit.corpus import Field, Priority
from arousalkit.lexicon import RatingRecord, load_rating_records, save_rating_records
from arousalkit.pipeline import load_priorities, save_priorities
from arousalkit.scoring import MODES, ScoredRow, load_scores, save_scores

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
    @given(st.dictionaries(adversarial, st.sampled_from(list(Priority)), max_size=8))
    def test_priorities_round_trip(self, tmp_path_factory, priorities):
        path = tmp_path_factory.mktemp("prio") / "priorities.csv"
        save_priorities(priorities, path)
        assert load_priorities(path) == priorities

    #: reals the 4-decimal score format holds exactly
    fixed4 = st.integers(-10**6, 10**6).map(lambda n: n / 10**4)

    @given(st.lists(st.builds(
        ScoredRow, adversarial, st.sampled_from(list(Priority)), st.sampled_from(list(Field)),
        st.sampled_from(MODES), st.integers(0, 10**6), fixed4, fixed4, fixed4,
    ), max_size=8))
    def test_scores_round_trip_joins_priorities(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("scores") / "scores.csv"
        save_scores(rows, path)
        priorities = {r.issue_id: r.priority for r in rows}
        expected = [replace(r, priority=priorities[r.issue_id]) for r in rows]
        assert load_scores(path, priorities) == expected

    @given(st.lists(st.builds(RatingRecord, adversarial, adversarial, st.integers(1, 9)),
                    max_size=8))
    def test_rating_records_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("ratings") / "ratings.csv"
        save_rating_records(records, path)
        assert load_rating_records(path) == records
