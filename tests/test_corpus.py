import json
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arousalkit.corpus import (
    Comment,
    CorpusFormatError,
    Field,
    Issue,
    Priority,
    Vocabulary,
    build_vocabulary,
    extract_units,
    parse_corpus,
    tokenize,
)


def make_issue(title="", description="", comments=(), priority=Priority.MAJOR):
    return Issue(
        id="X-1",
        priority=priority,
        title=title,
        description=description,
        comments=[Comment(body=c) for c in comments],
    )


class TestTokenize:
    def test_contractions_split_on_apostrophe(self):
        assert tokenize("Don't fix this ASAP!") == ["don", "t", "fix", "this", "asap"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_digits_are_delimiters(self):
        assert tokenize("I'll retry in 5s") == ["i", "ll", "retry", "in", "s"]

    def test_tokens_are_lowercase_letters_only(self):
        for token in tokenize("Really?! 42x satisfies #criteria_7; naïve"):
            assert token and token == token.lower()
            assert all(c in string.ascii_lowercase for c in token)

    @given(st.text(max_size=200))
    def test_idempotent_over_join(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestParseCorpus:
    def write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_well_formed_record(self, tmp_path):
        record = {
            "id": "AB-9",
            "priority": "Critical",
            "title": "t",
            "description": "d",
            "comments": [{"ts": "2016-01-01T00:00:00Z", "body": "c1"}, {"body": "c2"}],
        }
        path = self.write(tmp_path, [json.dumps(record)])
        issues = list(parse_corpus(path))
        assert len(issues) == 1
        issue = issues[0]
        assert issue.id == "AB-9"
        assert issue.priority is Priority.CRITICAL
        assert issue.title == "t"
        assert issue.description == "d"
        assert [c.body for c in issue.comments] == ["c1", "c2"]
        assert issue.comments[0].ts == "2016-01-01T00:00:00Z"
        assert issue.comments[1].ts is None

    def test_priority_parses_case_insensitively(self, tmp_path):
        path = self.write(
            tmp_path,
            [json.dumps({"id": "X", "priority": "blocker", "title": "", "description": ""})],
        )
        assert next(parse_corpus(path)).priority is Priority.BLOCKER

    def test_unrecognized_priority_maps_to_unknown(self):
        assert Priority.parse("P1") is Priority.UNKNOWN
        assert Priority.parse(None) is Priority.UNKNOWN
        assert Priority.parse(" minor ") is Priority.MINOR

    def test_missing_comments_key_is_valid(self, tmp_path):
        path = self.write(
            tmp_path, [json.dumps({"id": "X", "priority": "Major", "title": "", "description": ""})]
        )
        issues = list(parse_corpus(path))
        assert len(issues) == 1
        assert issues[0].comments == []

    def test_malformed_records_are_skipped_not_fatal(self, tmp_path):
        good = json.dumps({"id": "X", "priority": "Major", "title": "a", "description": ""})
        path = self.write(tmp_path, ["{not json", good, json.dumps({"no_id": 1})])
        issues = list(parse_corpus(path))
        assert [i.id for i in issues] == ["X"]

    def test_duplicate_issue_id_is_fatal_with_both_lines(self, tmp_path):
        records = [json.dumps({"id": i, "priority": "Major", "title": "", "description": ""})
                   for i in ("X", "Y", "X")]
        path = self.write(tmp_path, records)
        with pytest.raises(CorpusFormatError, match=r"corpus.jsonl:3: duplicate issue id 'X' "
                                                    r"\(first on line 1\)"):
            list(parse_corpus(path))

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            list(parse_corpus(tmp_path / "nope.jsonl"))

    def test_comment_order_preserved(self, tmp_path):
        bodies = [f"c{i}" for i in range(7)]
        record = {"id": "X", "priority": "Minor", "title": "", "description": "",
                  "comments": [{"body": b} for b in bodies]}
        path = self.write(tmp_path, [json.dumps(record)])
        assert [c.body for c in next(parse_corpus(path)).comments] == bodies


class TestExtractUnits:
    def test_three_comments_gives_five_units(self):
        issue = make_issue("t one", "d one", ["a b", "c", "d e f"])
        units = {u.field: u.tokens for u in extract_units(issue)}
        assert set(units) == set(Field)
        assert units[Field.ALL_COMMENTS] == ["a", "b", "c", "d", "e", "f"]
        assert units[Field.FIRST_COMMENT] == ["a", "b"]
        assert units[Field.LAST_COMMENT] == ["d", "e", "f"]

    def test_no_comments_gives_title_and_description_only(self):
        units = extract_units(make_issue("t", "d", []))
        assert [u.field for u in units] == [Field.TITLE, Field.DESCRIPTION]

    def test_single_comment_first_equals_last(self):
        units = {u.field: u.tokens for u in extract_units(make_issue("t", "d", ["only one"]))}
        assert units[Field.FIRST_COMMENT] == units[Field.LAST_COMMENT] == ["only", "one"]

    def test_deterministic_and_no_duplicate_fields(self):
        issue = make_issue("a", "b", ["c", "d"])
        first = extract_units(issue)
        second = extract_units(issue)
        assert [(u.field, u.tokens) for u in first] == [(u.field, u.tokens) for u in second]
        fields = [u.field for u in first]
        assert len(fields) == len(set(fields))


class TestVocabulary:
    def test_counting_and_id_order(self):
        vocab = build_vocabulary([make_issue(title="a b b")], min_count=1)
        assert vocab.freq("b") == 2 and vocab.freq("a") == 1
        assert vocab.id("b") == 0 and vocab.id("a") == 1

    def test_min_count_threshold(self):
        vocab = build_vocabulary([make_issue(title="a b b")], min_count=2)
        assert "a" not in vocab
        assert vocab.freq("b") == 2
        assert len(vocab) == 1

    def test_ties_broken_lexicographically(self):
        vocab = build_vocabulary([make_issue(title="zeta echo zeta echo")], min_count=1)
        assert vocab.id("echo") == 0
        assert vocab.id("zeta") == 1

    def test_counts_all_fields(self):
        issue = make_issue("w x", "w y", ["w z", "w"])
        vocab = build_vocabulary([issue], min_count=1)
        assert vocab.freq("w") == 4

    def test_ids_dense_and_frequencies_above_threshold(self):
        issue = make_issue("a a a b b c d d", "e", ["f f"])
        vocab = build_vocabulary([issue], min_count=2)
        ids = sorted(vocab.id(w) for w, _, _ in vocab.items())
        assert ids == list(range(len(vocab)))
        assert all(freq >= 2 for _, _, freq in vocab.items())

    def test_min_count_must_be_positive(self):
        with pytest.raises(ValueError):
            Vocabulary({"a": 1}, min_count=0)

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocabulary([make_issue("a b b c c c")], min_count=1)
        path = tmp_path / "vocab.csv"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert list(loaded.items()) == list(vocab.items())

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=3), max_size=50))
    def test_total_mass_equals_token_count(self, words):
        issue = make_issue(title=" ".join(words))
        vocab = build_vocabulary([issue], min_count=1)
        total = sum(freq for _, _, freq in vocab.items())
        assert total == len(tokenize(" ".join(words)))
