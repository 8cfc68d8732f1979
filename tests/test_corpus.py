import functools
import hashlib
import json
import logging
import os
import re
import signal
import string
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import conftest
from arousalkit import corpus, pipeline, synthetic
from arousalkit.artifacts import pack_strings, write_records
from arousalkit.config import PipelineConfig
from arousalkit.pipeline import run_ingest
from arousalkit.corpus import (
    _STORE_TAG,
    PRIORITY_CODES,
    CorpusFormatError,
    Field,
    Priority,
    TokenStore,
    Vocabulary,
    build_vocabulary,
    read_corpus,
    tokenize,
)
from conftest import corpus_store


def make_issue(title="", description="", comments=(), priority=Priority.MAJOR, id_="X-1"):
    return {"id": id_, "priority": priority.value, "title": title,
            "description": description, "comments": [{"body": c} for c in comments]}


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

    @pytest.mark.parametrize("text, expected", [
        ("\u212aelvin", ["kelvin"]),  # KELVIN SIGN lowercases to ASCII k
        ("\u0130stanbul", ["i", "stanbul"]),  # i + COMBINING DOT ABOVE
        ("a\x00b", ["a", "b"]),
        ("na\u00efve stra\u00dfe \ufb01le caf\u00e9", ["na", "ve", "stra", "e", "le", "caf"]),
        ("a\ud800b\udfffc", ["a", "b", "c"]),
        ("\ud800", []),
    ])
    def test_non_ascii_characters(self, text, expected):
        assert tokenize(text) == expected

    @given(st.text(st.one_of(st.characters(),
                             st.integers(0xD800, 0xDFFF).map(chr),  # lone surrogates
                             st.sampled_from("\u212a\u0130\u00df\ufb01\u00e9\x00 AZaz-'")),
                   max_size=60))
    def test_equals_the_regex_rule(self, text):
        assert tokenize(text) == re.findall("[a-z]+", text.lower())


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
            "comments": [{"ts": "2016-01-01T00:00:00Z", "body": "first"},
                         {"body": "second"}],
        }
        store = read_corpus(self.write(tmp_path, [json.dumps(record)]))
        assert store.issue_ids == ["AB-9"]
        assert store.priority.tolist() == [PRIORITY_CODES[Priority.CRITICAL]]
        assert streams(store) == [["t"], ["d"], ["first"], ["second"]]
        assert store.issue_streams.tolist() == [0, 4]

    def test_priority_parses_case_insensitively(self, tmp_path):
        path = self.write(
            tmp_path,
            [json.dumps({"id": "X", "priority": "blocker", "title": "", "description": ""})],
        )
        assert read_corpus(path).priority.tolist() == [PRIORITY_CODES[Priority.BLOCKER]]

    def test_unrecognized_priority_maps_to_unknown(self, tmp_path):
        records = [{"id": "A", "priority": "blocker"}, {"id": "B", "priority": " minor "},
                   {"id": "C", "priority": "P1"}, {"id": "D", "priority": None}, {"id": "E"}]
        store = read_corpus(self.write(tmp_path, map(json.dumps, records)))
        assert [list(Priority)[code] for code in store.priority.tolist()] == [
            Priority.BLOCKER, Priority.MINOR, Priority.UNKNOWN, Priority.UNKNOWN,
            Priority.UNKNOWN]

    def test_missing_comments_key_is_valid(self, tmp_path):
        path = self.write(
            tmp_path, [json.dumps({"id": "X", "priority": "Major", "title": "", "description": ""})]
        )
        store = read_corpus(path)
        assert store.issue_ids == ["X"]
        assert store.issue_streams.tolist() == [0, 2]

    def test_malformed_records_are_skipped_not_fatal(self, tmp_path):
        good = json.dumps({"id": "X", "priority": "Major", "title": "a", "description": ""})
        path = self.write(tmp_path, ["{not json", good, json.dumps({"no_id": 1})])
        assert read_corpus(path).issue_ids == ["X"]

    def test_deeply_nested_line_is_skipped_with_its_line(self, tmp_path, caplog):
        depth = 100_000
        nested = '{"id": "X", "u": ' + "[" * depth + "]" * depth + "}"
        path = self.write(tmp_path, ['{"id": "A", "title": "one"}', nested,
                                     '{"id": "B", "title": "two"}'])
        with caplog.at_level("WARNING", logger="arousalkit.corpus"):
            store = read_corpus(path)
        assert store.issue_ids == ["A", "B"]
        assert streams(store) == [["one"], [], ["two"], []]
        assert "line 2: invalid JSON (nested too deeply)" in caplog.messages
        assert f"{path}: skipped 1 malformed record(s)" in caplog.messages

    def test_integer_too_long_for_json_loads_is_skipped_with_its_line(self, tmp_path, caplog):
        long_id = '{"id": 1' + "0" * 5000 + "}"
        path = self.write(tmp_path, ['{"id": "A", "title": "one"}', long_id,
                                     '{"id": "B", "title": "two"}'])
        with caplog.at_level("WARNING", logger="arousalkit.corpus"):
            store = read_corpus(path)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < 5001:
            assert store.issue_ids == ["A", "B"]
            assert any(m.startswith("line 2: invalid JSON (") for m in caplog.messages)
            assert f"{path}: skipped 1 malformed record(s)" in caplog.messages
        else:  # no limit on integer string conversion: the line parses
            assert store.issue_ids == ["A", "1" + "0" * 5000, "B"]

    def test_null_id_is_skipped_and_null_texts_are_no_text(self, tmp_path, caplog):
        records = [{"id": "A", "title": None, "description": None,
                    "comments": [{"body": None}, {"body": "two"}]},
                   {"id": None, "title": "lost"}, {"id": None},
                   {"id": "B", "title": "one", "description": float("nan")}]
        path = self.write(tmp_path, map(json.dumps, records))
        with caplog.at_level("WARNING", logger="arousalkit.corpus"):
            store = read_corpus(path)
        assert store.issue_ids == ["A", "B"]
        assert streams(store) == [[], [], [], ["two"], ["one"], ["nan"]]
        assert "none" not in store.words
        assert "line 2: 'id' is null" in caplog.messages
        assert "line 3: 'id' is null" in caplog.messages
        assert f"{path}: skipped 2 malformed record(s)" in caplog.messages

    def test_null_comments_are_no_comments(self, tmp_path, caplog):
        records = [{"id": "A", "title": "kept words", "comments": None},
                   {"id": "B", "title": "lost", "comments": {}},
                   {"id": "C", "title": "lost", "comments": 0},
                   {"id": "D", "title": "kept", "comments": []}]
        path = self.write(tmp_path, map(json.dumps, records))
        with caplog.at_level("WARNING", logger="arousalkit.corpus"):
            store = read_corpus(path)
        assert store.issue_ids == ["A", "D"]
        assert streams(store) == [["kept", "words"], [], ["kept"], []]
        assert "line 2: 'comments' is not a list" in caplog.messages
        assert "line 3: 'comments' is not a list" in caplog.messages
        assert f"{path}: skipped 2 malformed record(s)" in caplog.messages

    def test_duplicate_issue_id_is_fatal_with_both_lines(self, tmp_path):
        records = [json.dumps({"id": i, "priority": "Major", "title": "", "description": ""})
                   for i in ("X", "Y", "X")]
        path = self.write(tmp_path, records)
        with pytest.raises(CorpusFormatError, match=r"corpus.jsonl:3: duplicate issue id 'X' "
                                                    r"\(first on line 1\)"):
            read_corpus(path)

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            read_corpus(tmp_path / "nope.jsonl")

    def test_comment_order_preserved(self, tmp_path):
        bodies = ["one", "two", "three", "four", "five", "six", "seven"]
        record = {"id": "X", "priority": "Minor", "title": "", "description": "",
                  "comments": [{"body": b} for b in bodies]}
        path = self.write(tmp_path, [json.dumps(record)])
        assert streams(read_corpus(path))[2:] == [[b] for b in bodies]

    def test_byte_that_is_not_utf8_is_fatal_with_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        good = json.dumps({"id": "X", "priority": "Major", "title": "a", "description": ""})
        path.write_bytes(good.encode() + b'\n{"id": "Y", "title": "caf\xff"}\n' + good.encode())
        with pytest.raises(CorpusFormatError,
                           match=r"corpus.jsonl:2: byte 0xff at column 26 is not UTF-8"):
            read_corpus(path)

    @pytest.mark.parametrize("tail, message", [
        (b"\n\xe2\x82", "corpus.jsonl:2: byte 0xe2 at column 1 "),  # cut short at the end
        (b"\r\n\r\n \x80\n", "corpus.jsonl:3: byte 0x80 at column 2 "),
    ])
    def test_undecodable_line_is_named(self, tmp_path, tail, message):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "X"}' + tail)
        with pytest.raises(CorpusFormatError, match=message):
            read_corpus(path)


def tokens(store, start, end):
    return [store.words[i] for i in store.ids[start:end]]


def streams(store):
    """The tokens of each stream of the store, in order."""
    return [tokens(store, a, b) for a, b in zip(store.offsets[:-1], store.offsets[1:])]


def unit_tokens(issue):
    """{field: tokens} of the issue's present units, as slices of a token store."""
    store = corpus_store([issue])
    starts, ends, present = store.units()
    return {field: tokens(store, starts[0, k], ends[0, k])
            for k, field in enumerate(Field) if present[0, k]}


class TestExtractUnits:
    def test_three_comments_gives_five_units(self):
        issue = make_issue("t one", "d one", ["a b", "c", "d e f"])
        units = unit_tokens(issue)
        assert set(units) == set(Field)
        assert units[Field.ALL_COMMENTS] == ["a", "b", "c", "d", "e", "f"]
        assert units[Field.FIRST_COMMENT] == ["a", "b"]
        assert units[Field.LAST_COMMENT] == ["d", "e", "f"]

    def test_no_comments_gives_title_and_description_only(self):
        units = unit_tokens(make_issue("t", "d", []))
        assert list(units) == [Field.TITLE, Field.DESCRIPTION]

    def test_single_comment_first_equals_last(self):
        units = unit_tokens(make_issue("t", "d", ["only one"]))
        assert units[Field.FIRST_COMMENT] == units[Field.LAST_COMMENT] == ["only", "one"]

    def test_deterministic_and_no_duplicate_fields(self):
        issue = make_issue("a", "b", ["c", "d"])
        first = unit_tokens(issue)
        second = unit_tokens(issue)
        assert list(first.items()) == list(second.items())
        assert list(first) == list(Field)


def same_store(a, b):
    return (a.ids.tobytes() == b.ids.tobytes() and a.words == b.words
            and a.issue_ids == b.issue_ids and np.array_equal(a.offsets, b.offsets)
            and np.array_equal(a.issue_streams, b.issue_streams)
            and a.priority.dtype == b.priority.dtype == np.int8
            and np.array_equal(a.priority, b.priority))


class TestTokenStore:
    def issues(self):
        return [
            make_issue("Fix the crash", "it crashes", ["crash again"], id_="X-2"),
            make_issue(priority=Priority.MINOR, id_="X-1"),
            make_issue("urgent", "now", ["", "ok ok"], Priority.BLOCKER, id_="X-3"),
        ]

    def test_streams_follow_issues_and_fields(self):
        store = corpus_store(self.issues())
        assert store.issue_ids == ["X-2", "X-1", "X-3"]
        assert store.ids.dtype == np.int32
        assert streams(store) == [["fix", "the", "crash"], ["it", "crashes"], ["crash", "again"],
                                  [], [], ["urgent"], ["now"], [], ["ok", "ok"]]
        assert store.issue_streams.tolist() == [0, 3, 5, 9]

    def test_comment_units_are_the_comment_run_and_its_ends(self):
        store = corpus_store(self.issues())
        starts, ends, present = store.units()
        assert present.tolist() == [[True] * 5, [True, True, False, False, False], [True] * 5]
        assert tokens(store, starts[2, 2], ends[2, 2]) == ["ok", "ok"]
        assert tokens(store, starts[2, 3], ends[2, 3]) == []
        assert tokens(store, starts[2, 4], ends[2, 4]) == ["ok", "ok"]
        assert (starts[1, 2:] == ends[1, 2:]).all()

    def test_saving_twice_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        corpus_store(self.issues()).save(a)
        corpus_store(self.issues()).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_awkward_ids_round_trip(self, tmp_path):
        ids = ["A,1", 'B"2', "C\n3", "D\U0001d11e4", "E\x005", ""]
        store = corpus_store([make_issue("t", "d", id_=i) for i in ids])
        store.save(tmp_path / "tokens.bin")
        loaded = TokenStore.load(tmp_path / "tokens.bin")
        assert loaded.issue_ids == ids
        assert same_store(loaded, store)

    @given(st.lists(st.tuples(st.text(max_size=8), st.sampled_from(list(Priority)),
                              st.text(max_size=40), st.lists(st.text(max_size=20), max_size=3)),
                    max_size=6, unique_by=lambda t: t[0]))
    def test_any_corpus_round_trips(self, tmp_path_factory, records):
        issues = [make_issue(title, "", comments, priority, id_=i)
                  for i, priority, title, comments in records]
        path = tmp_path_factory.mktemp("store") / "tokens.bin"
        store = corpus_store(issues)
        store.save(path)
        loaded = TokenStore.load(path)
        assert same_store(loaded, store)
        assert [list(Priority)[c] for c in loaded.priority.tolist()] == \
            [priority for _, priority, _, _ in records]

    def rewrite(self, path, priority=None):
        """Save the fixture store to ``path``, with another priority record if given."""
        store = corpus_store(self.issues())
        write_records(path, _STORE_TAG, (
            store.ids, store.offsets, store.issue_streams, *pack_strings(store.words),
            *pack_strings(store.issue_ids), store.priority if priority is None else priority))

    def test_rewrite_helper_matches_save(self, tmp_path):
        corpus_store(self.issues()).save(tmp_path / "a.bin")
        self.rewrite(tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_version_1_store_is_refused_by_name(self, tmp_path):
        path = tmp_path / "tokens.bin"
        store = corpus_store(self.issues())
        # the layout of the first format: no priority record
        write_records(path, b"arousalkit token store 1",
                      (store.ids, store.offsets, store.issue_streams,
                       *pack_strings(store.words), *pack_strings(store.issue_ids)))
        with pytest.raises(CorpusFormatError, match="tokens.bin.*unknown format tag"):
            TokenStore.load(path)

    @pytest.mark.parametrize("priority, problem", [
        (np.array([2, 3], dtype=np.int8), "one priority code per issue"),
        (np.array([2, 3, 0, 1], dtype=np.int8), "one priority code per issue"),
        (np.array([2, 3, len(Priority)], dtype=np.int8), "priority code out of range"),
        (np.array([2, -1, 0], dtype=np.int8), "priority code out of range"),
        (np.array([2, 3, 0], dtype=np.int64), "unexpected record shape or type"),
        (np.array([[2, 3, 0]], dtype=np.int8), "unexpected record shape or type"),
    ])
    def test_bad_priority_record_is_refused_by_name(self, tmp_path, priority, problem):
        path = tmp_path / "tokens.bin"
        self.rewrite(path, priority=priority)
        with pytest.raises(CorpusFormatError, match=f"tokens.bin.*{problem}"):
            TokenStore.load(path)

    @pytest.mark.parametrize("cut", [1, 10, 100, -1])
    def test_truncated_store_names_the_file(self, tmp_path, cut):
        path = tmp_path / "tokens.bin"
        corpus_store(self.issues()).save(path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(CorpusFormatError, match="tokens.bin"):
            TokenStore.load(path)

    def test_trailing_or_foreign_bytes_are_refused(self, tmp_path):
        path = tmp_path / "tokens.bin"
        corpus_store(self.issues()).save(path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(CorpusFormatError, match="trailing"):
            TokenStore.load(path)
        np.save(path, np.arange(3))
        with pytest.raises(CorpusFormatError, match="tokens.bin"):
            TokenStore.load(path)


EDGE_CASES = Path(__file__).parent / "data" / "ingest_edge_cases.jsonl"


class TestPinnedIngest:
    """sha256 of the ingest artifacts, taken while tokenize was still the
    regex ``[a-z]+``; any change to what ingest reads or writes moves them."""

    def ingest(self, corpus, work_dir):
        run_ingest(PipelineConfig.from_dict(
            {"corpus": str(corpus), "work_dir": str(work_dir), "min_count": 1}))
        return {name: hashlib.sha256((work_dir / name).read_bytes()).hexdigest()
                for name in ("tokens.bin", "vocab.csv")}

    def test_generated_corpus(self, tmp_path):
        synthetic.generate_corpus(tmp_path / "corpus.jsonl", 200, seed=7)
        assert self.ingest(tmp_path / "corpus.jsonl", tmp_path / "work") == {
            "tokens.bin": "8f3a26d5ef32f2080e49b34c2d5f7a3a1be7f5a325c131700978979532304140",
            "vocab.csv": "95bc18fd4f7597e24c95a4c71d83b3d8ec6e04672341affe584ea68b1d5d6cef",
        }

    def test_edge_case_corpus(self, tmp_path):
        # a 2**64 id, a NaN title, escaped and raw lone surrogates and KELVIN SIGN,
        # a float id, malformed lines, a BOM line and a repeated key
        assert self.ingest(EDGE_CASES, tmp_path / "work") == {
            "tokens.bin": "4cf9e909154df5d9771d8934f131233be59bbb6f493f7aba955ef527484ca347",
            "vocab.csv": "566a4e7cf49ff1cc18b1b6d15cf5c63e12d4b62763fa1534e0dcc70d40f95e5a",
        }
        ids = TokenStore.load(tmp_path / "work" / "tokens.bin").issue_ids
        assert ids == ["18446744073709551616", "NAN-1", "SUR-1", "1.5",
                       "-9223372036854775809", "9223372036854775807", "DUP-KEY", "NUM-1"]


class TestVocabulary:
    def test_counting_and_id_order(self):
        vocab = build_vocabulary(corpus_store([make_issue(title="a b b")]), min_count=1)
        assert vocab.freq("b") == 2 and vocab.freq("a") == 1
        assert vocab.id("b") == 0 and vocab.id("a") == 1

    def test_min_count_threshold(self):
        vocab = build_vocabulary(corpus_store([make_issue(title="a b b")]), min_count=2)
        assert "a" not in vocab
        assert vocab.freq("b") == 2
        assert len(vocab) == 1

    def test_ties_broken_lexicographically(self):
        vocab = build_vocabulary(corpus_store([make_issue(title="zeta echo zeta echo")]),
                                 min_count=1)
        assert vocab.id("echo") == 0
        assert vocab.id("zeta") == 1

    def test_counts_all_fields(self):
        issue = make_issue("w x", "w y", ["w z", "w"])
        vocab = build_vocabulary(corpus_store([issue]), min_count=1)
        assert vocab.freq("w") == 4

    def test_ids_dense_and_frequencies_above_threshold(self):
        issue = make_issue("a a a b b c d d", "e", ["f f"])
        vocab = build_vocabulary(corpus_store([issue]), min_count=2)
        ids = sorted(vocab.id(w) for w, _, _ in vocab.items())
        assert ids == list(range(len(vocab)))
        assert all(freq >= 2 for _, _, freq in vocab.items())

    def test_lookup_maps_words_to_ids_or_minus_one(self):
        vocab = build_vocabulary(corpus_store([make_issue(title="a b b c c c")]), min_count=2)
        words = ["c", "a", "b", "zz", "", "c"]
        assert vocab.lookup(words).dtype == np.int32
        assert vocab.lookup(words).tolist() == \
            [vocab.id(w) if w in vocab else -1 for w in words] == [0, -1, 1, -1, -1, 0]
        assert vocab.lookup([]).tolist() == []

    def test_min_count_must_be_positive(self):
        with pytest.raises(ValueError):
            Vocabulary({"a": 1}, min_count=0)

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=3), max_size=50))
    def test_total_mass_equals_token_count(self, words):
        issue = make_issue(title=" ".join(words))
        vocab = build_vocabulary(corpus_store([issue]), min_count=1)
        total = sum(freq for _, _, freq in vocab.items())
        assert total == len(tokenize(" ".join(words)))


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append((record.levelname, record.getMessage()))


def logged_read(path, cpus=1, propagate=True):
    """(the store or the exception, [(level, message) of each log record]) of
    ``read_corpus(path)`` with ``cpus`` usable CPUs."""
    log, handler = logging.getLogger("arousalkit.corpus"), _Records()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        patch.setattr(log, "propagate", propagate)
        log.addHandler(handler)
        try:
            result = corpus.read_corpus(path)
        except Exception as exc:
            result = exc
        finally:
            log.removeHandler(handler)
    return result, handler.records


def assert_same_read(got, expected):
    (result, records), (reference, reference_records) = got, expected
    assert records == reference_records
    if isinstance(reference, Exception):
        assert (type(result), str(result)) == (type(reference), str(reference))
    else:
        assert same_store(result, reference)


def read_split(cpus, path):
    """``read_corpus(path)`` in up to ``cpus`` line ranges; its store, its
    error and its log records must be those of one range."""
    got = logged_read(path, cpus)
    assert_same_read(got, logged_read(path, propagate=False))
    if isinstance(got[0], Exception):
        raise got[0]
    return got[0]


@pytest.fixture(scope="class", params=[2, 3])
def split_reads(request):
    """Every corpus ``read_corpus`` reads is cut into up to 2 or 3 line ranges,
    and checked against a one-range read."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_READ_PARALLEL_MIN", 1)
        for module in (sys.modules[__name__], conftest, pipeline):
            patch.setattr(module, "read_corpus", functools.partial(read_split, request.param))
        yield


@pytest.mark.usefixtures("split_reads")
class TestParseCorpusSplit(TestParseCorpus):
    """The record tests on a corpus cut into line ranges."""


@pytest.mark.usefixtures("split_reads")
class TestPinnedIngestSplit(TestPinnedIngest):
    """The pinned ingest digests on a corpus cut into line ranges."""


@pytest.mark.usefixtures("split_reads")
class TestRoundTripSplit:
    """The round trip on a corpus cut into line ranges."""

    test_any_corpus_round_trips = TestTokenStore.test_any_corpus_round_trips


def cut_at(monkeypatch, *nominal):
    """Make ``read_corpus`` cut its corpus after the first line feed at or
    after each byte offset of ``nominal``."""
    monkeypatch.setattr(corpus, "split", lambda items, weight, per_range: list(
        zip((0, *nominal), (*nominal, items))))


class TestCuts:
    """Line ranges around the cuts: the same store, errors and warnings as one range."""

    def write(self, tmp_path, data):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(data)
        return path

    def assert_every_cut_reads_the_same(self, path, monkeypatch, step=1):
        size, expected = path.stat().st_size, logged_read(path, propagate=False)
        for first in range(1, size, step):
            with monkeypatch.context() as patch:
                cut_at(patch, first)
                assert_same_read(logged_read(path, propagate=False), expected)
        for first in range(1, size, 7 * step):
            for second in range(first, size, 11 * step):
                with monkeypatch.context() as patch:
                    cut_at(patch, first, second)
                    assert_same_read(logged_read(path, propagate=False), expected)

    def test_cut_follows_the_line_feed_at_or_after_the_offset(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, b'{"id": "A"}\r\n{"id": "B"}\r{"id": "C"}\n{"id": "D"}\n')
        cut_at(monkeypatch, 12)  # the "\n" of the first "\r\n"
        assert corpus._line_ranges(str(path)) == [(0, 13), (13, None)]
        cut_at(monkeypatch, 13)  # past a lone "\r" to the next "\n"
        assert corpus._line_ranges(str(path)) == [(0, 37), (37, None)]
        cut_at(monkeypatch, 40, 45)  # no line begins after the last "\n"
        assert corpus._line_ranges(str(path)) == [(0, None)]

    def test_cut_at_every_cpu_count(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, b"".join(b'{"id": "%d"}\n' % i for i in range(30)))
        monkeypatch.setattr(corpus, "_READ_PARALLEL_MIN", 1)
        for cpus in (1, 2, 3, 7):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            starts = [start for start, _ in corpus._line_ranges(str(path))]
            assert len(starts) == cpus
            assert all(path.read_bytes()[start - 1] == ord("\n") for start in starts[1:])

    def test_duplicate_id_across_ranges_names_both_lines(self, tmp_path, monkeypatch):
        lines = [b'{"id": "%s", "title": "t"}\n' % i for i in (b"A", b"B", b"C", b"A")]
        path = self.write(tmp_path, b"".join(lines))
        cut_at(monkeypatch, len(lines[0]) + 1)
        assert len(corpus._line_ranges(str(path))) == 2
        with pytest.raises(CorpusFormatError, match=r"^.*corpus.jsonl:4: duplicate issue id 'A' "
                                                    r"\(first on line 1\)$"):
            corpus.read_corpus(path)

    def test_byte_not_utf8_in_the_last_range_names_its_line(self, tmp_path, monkeypatch):
        lines = [b'{"id": "%d"}\n' % i for i in range(6)] + [b'{"id": "caf\xe9"}\n']
        path = self.write(tmp_path, b"".join(lines))
        cut_at(monkeypatch, 14, 40)
        assert len(corpus._line_ranges(str(path))) == 3
        with pytest.raises(CorpusFormatError,
                           match=r"corpus.jsonl:7: byte 0xe9 at column 12 is not UTF-8$"):
            corpus.read_corpus(path)

    @pytest.mark.parametrize("later", [
        b'{"id": "A"}\n',  # a duplicate of line 1
        b'{"id": "caf\xe9"}\n',
    ])
    def test_earlier_error_wins_and_no_later_warning_is_logged(self, tmp_path, monkeypatch,
                                                               caplog, later):
        first = b'{"id": "A"}\n{"id": 1, "comments": 0}\n{"id": "\xff"}\n'
        path = self.write(tmp_path, first + b'{"bad": 1}\n' + later + b"[]\n")
        cut_at(monkeypatch, len(first) - 1)
        assert corpus._line_ranges(str(path))[1] == (len(first), None)
        with caplog.at_level("WARNING", logger="arousalkit.corpus"):
            with pytest.raises(CorpusFormatError, match="corpus.jsonl:3: byte 0xff at column 9"):
                corpus.read_corpus(path)
        assert caplog.messages == ["line 2: 'comments' is not a list"]

    def test_later_range_stops_at_its_first_error(self, tmp_path, monkeypatch, caplog):
        first = b'{"id": "A"}\n{"id": "B"}\n'
        path = self.write(tmp_path, first + b'[]\n{"id": "B"}\n[]\n{"id": "\xff"}\n')
        cut_at(monkeypatch, len(first) - 1)
        assert corpus._line_ranges(str(path))[1] == (len(first), None)
        with caplog.at_level("WARNING", logger="arousalkit.corpus"):
            with pytest.raises(CorpusFormatError, match=r"corpus.jsonl:4: duplicate issue id "
                                                        r"'B' \(first on line 2\)"):
                corpus.read_corpus(path)
        assert caplog.messages == ["line 3: record is not an object with an 'id'"]

    def test_repeated_id_ends_the_read_of_its_range(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, b'{"id": "A"}\n{"id": "A"}\n' + b'{"id": "B"}\n' * 50)
        texts, tokenize_ = [], corpus.tokenize
        monkeypatch.setattr(corpus, "tokenize", lambda text: texts.append(text) or tokenize_(text))
        with pytest.raises(CorpusFormatError, match=r"corpus.jsonl:2: duplicate issue id 'A'"):
            corpus.read_corpus(path)
        assert len(texts) <= 4  # at most the title and description of lines 1 and 2

    def test_crlf_and_lone_cr_next_to_a_cut(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, b'{"id": "A", "title": "one"}\r\n{"id": "B"}\r'
                                    b'{"id": "C", "title": "two"}\r\n\r\n{"id": "D"}\n\r'
                                    b'{"id": "E"}\r{"id": "F", "title": "one"}')
        assert logged_read(path)[0].issue_ids == list("ABCDEF")
        self.assert_every_cut_reads_the_same(path, monkeypatch)

    def test_blank_or_malformed_line_at_a_cut(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, b'{"id": "A", "title": "x y"}\n\n   \n{"id": \n'
                                    b'{"id": "B", "title": "y z"}\n[1]\n\n{"id": null}\n'
                                    b'{"id": "C", "title": "z"}\n')
        store, records = logged_read(path)
        assert store.issue_ids == ["A", "B", "C"] and len(records) == 4
        self.assert_every_cut_reads_the_same(path, monkeypatch)

    def test_byte_order_mark_is_dropped_only_at_the_start_of_the_file(self, tmp_path,
                                                                       monkeypatch):
        bom = "\ufeff".encode()
        first = bom + b'{"id": "A"}\n'
        path = self.write(tmp_path, first + bom + b'{"id": "B"}\n{"id": "C"}\n')
        cut_at(monkeypatch, len(first) - 1)
        assert corpus._line_ranges(str(path))[1] == (len(first), None)
        store, records = logged_read(path)
        assert store.issue_ids == ["A", "C"]
        assert records[0][1].startswith("line 2: invalid JSON (Unexpected UTF-8 BOM")
        self.assert_every_cut_reads_the_same(path, monkeypatch)

    def test_errors_next_to_a_cut(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, b'{"id": "A"}\n[]\n{"id": "B"}\n{"x": 1}\n{"id": "A"}\n'
                                    b'[]\n{"id": "\\ud800"}\n{"id": "\xff"}\n')
        assert isinstance(logged_read(path)[0], CorpusFormatError)
        self.assert_every_cut_reads_the_same(path, monkeypatch, step=2)


class TestForkedRead:
    """A child of ``read_corpus`` that fails or outlives its parent's error."""

    @pytest.mark.parametrize("failure, ended", [
        ("child raises", "exit code 1"),
        ("child killed", f"signal {signal.SIGKILL.value}"),
        ("parent interrupted", None),
    ])
    def test_failure_leaves_no_spool_and_no_process(self, tmp_path, monkeypatch, failure,
                                                    ended):
        spools = tmp_path / "spools"
        spools.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spools))
        path = tmp_path / "corpus.jsonl"
        lines = [b'{"id": "%d", "title": "word"}\n' % i for i in range(6)]
        path.write_bytes(b"".join(lines))
        cut = len(lines[0]) * 2
        cut_at(monkeypatch, cut - 1)
        parent, tokenize_ = os.getpid(), corpus.tokenize

        def failing(text):
            if failure == "parent interrupted":
                if os.getpid() == parent:
                    raise KeyboardInterrupt
                time.sleep(60)  # until read_corpus kills it
            if failure == "child raises" and os.getpid() != parent:
                raise MemoryError
            if failure == "child killed" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return tokenize_(text)

        monkeypatch.setattr(corpus, "tokenize", failing)
        fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
        if ended is None:
            raised, pattern = KeyboardInterrupt, None
        else:
            message = f"{path}: the process reading from line 3 (byte {cut}) ended with {ended}"
            raised, pattern = RuntimeError, f"^{re.escape(message)}$"
        start = time.perf_counter()
        try:
            with pytest.raises(raised, match=pattern):
                corpus.read_corpus(path)
        finally:
            if os.getpid() != parent:  # a child unwound out of read_corpus
                os._exit(99)
        assert time.perf_counter() - start < 30
        assert list(spools.iterdir()) == []
        if fds is not None:
            assert len(os.listdir("/proc/self/fd")) == len(fds)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_format_error_kills_the_later_ranges(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "\xff"}\n{"id": "B"}\n')
        cut_at(monkeypatch, 12)
        parent, tokenize_ = os.getpid(), corpus.tokenize
        monkeypatch.setattr(corpus, "tokenize", lambda text: (
            time.sleep(60) if os.getpid() != parent else None) or tokenize_(text))
        start = time.perf_counter()
        with pytest.raises(CorpusFormatError, match="corpus.jsonl:1: byte 0xff"):
            corpus.read_corpus(path)
        assert time.perf_counter() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_ranges_at_the_default_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        path = tmp_path / "corpus.jsonl"
        line = b'{"id": "x"}\n'
        path.write_bytes(line * (corpus._READ_PARALLEL_MIN // len(line) * 2 - 1))
        assert len(corpus._line_ranges(str(path))) == 1
        with path.open("ab") as handle:
            handle.write(line * 2)
        assert len(corpus._line_ranges(str(path))) == 2
