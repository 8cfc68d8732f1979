"""Every reader names the file it cannot read: one UTF-8 line reader for
the text files, and a seeded fuzz run (single-byte edits, after Miller,
Fredriksen & So, CACM 1990) over the reader table of conftest."""

import random
import re
import shutil
import sys

import numpy as np
import pytest

from arousalkit.artifacts import CorpusFormatError, read_rows, text_lines
from arousalkit.config import PipelineConfig
from arousalkit.corpus import VOCAB_HEADER
from arousalkit.lexicon import _hand_edited_rows, load_general_lexicon
from arousalkit.pipeline import STAGES
from conftest import READERS

#: the files of READERS that no stage writes, and the config file
OUTSIDE_INPUTS = {name: READERS[name] for name in sorted(READERS)
                  if not any(name in stage.artifacts for stage in STAGES.values())}
OUTSIDE_INPUTS["inputs/config.json"] = PipelineConfig.load

#: seeded single-byte edits applied to each file of READERS
EDITS = 100


def work_copy(reader_demo, tmp_path):
    work = tmp_path / "work"
    shutil.copytree(reader_demo, work)
    return work


def edited(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one byte replaced, deleted or inserted at a random place."""
    kind = rng.choice(("replace", "delete", "insert"))
    at = rng.randrange(len(data) + (kind == "insert"))
    byte = bytes([rng.randrange(256)])
    if kind == "replace":
        return data[:at] + byte + data[at + 1:]
    if kind == "delete":
        return data[:at] + data[at + 1:]
    return data[:at] + byte + data[at:]


class TestTextLines:
    def test_lines_keep_their_ends_and_split_at_every_line_end(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a\nb\r\nc\rd")
        assert list(text_lines(path)) == [(1, "a\n"), (2, "b\r\n"), (3, "c\r"), (4, "d")]

    @pytest.mark.parametrize("data, lines", [
        (b"\xef\xbb\xbfa\nb", [(1, "a\n"), (2, "b")]),
        (b"a\n\xef\xbb\xbfb", [(1, "a\n"), (2, "\ufeffb")]),
        (b"\xef\xbb\xbf\xef\xbb\xbfa", [(1, "\ufeffa")]),
        (b"\xef\xbb\xbf\n", [(1, "\n")]),
    ], ids=["first", "second-line", "twice", "mark-then-line-end"])
    def test_only_a_file_initial_byte_order_mark_is_dropped(self, tmp_path, data, lines):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        assert list(text_lines(path)) == lines

    @pytest.mark.parametrize("data", [b"", b"\xef\xbb\xbf"], ids=["empty", "mark-alone"])
    def test_a_byte_order_mark_alone_is_an_empty_file(self, tmp_path, data):
        path = tmp_path / "general_lexicon.csv"
        path.write_bytes(data)
        assert list(text_lines(path)) == []
        with pytest.raises(CorpusFormatError, match="empty lexicon file"):
            load_general_lexicon(path)

    @pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"])
    def test_part_of_a_byte_order_mark_is_refused(self, tmp_path, data):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        with pytest.raises(CorpusFormatError, match="byte 0xef at column 1 is not UTF-8"):
            list(text_lines(path))

    def test_unreadable_file_is_refused_by_path(self, tmp_path):
        path = tmp_path / "missing.csv"
        with pytest.raises(CorpusFormatError, match=f"^cannot read {re.escape(str(path))}: "):
            list(text_lines(path))

    @pytest.mark.parametrize("name", ["ratings_r1.csv", "review_accept_all.csv",
                                      "extra_seeds.csv", "inputs/general_lexicon.csv",
                                      "inputs/wordnet/data.noun", "inputs/corpus.jsonl"])
    def test_byte_that_is_not_utf8_is_refused_with_line_and_column(self, reader_demo,
                                                                  tmp_path, name):
        path = work_copy(reader_demo, tmp_path) / name
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:4] + b"\xe9" + lines[2][4:]
        path.write_bytes(b"".join(lines))
        with pytest.raises(CorpusFormatError) as info:
            READERS[name](path)
        assert str(info.value) == f"{path}:3: byte 0xe9 at column 5 is not UTF-8"

    @pytest.mark.parametrize("line_end", [b"\r\n", b"\r"])
    @pytest.mark.parametrize("name, rows", [
        ("vocab.csv", lambda path: list(read_rows(path, VOCAB_HEADER))),
        ("ratings_r1.csv", lambda path: list(_hand_edited_rows(path))),
    ])
    def test_other_line_ends_give_the_same_rows_and_lines(self, reader_demo, tmp_path,
                                                          name, rows, line_end):
        original = reader_demo / name
        copy = tmp_path / name
        copy.write_bytes(original.read_bytes().replace(b"\n", line_end))
        assert rows(copy) == rows(original)
        assert len(rows(original)) > 10


def comparable(value):
    """A loader's result as nested plain values: objects by their
    attributes, arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return [comparable(v) for v in value]
    if isinstance(value, dict):
        return {k: comparable(v) for k, v in value.items()}
    if hasattr(value, "__dict__"):
        return type(value).__name__, comparable(vars(value))
    return value


@pytest.mark.parametrize("name", sorted(OUTSIDE_INPUTS))
def test_byte_order_mark_at_the_start_of_an_outside_input_is_not_content(reader_demo, tmp_path,
                                                                        caplog, name):
    # as Excel's "CSV UTF-8" saves a file
    path = work_copy(reader_demo, tmp_path) / name
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    with caplog.at_level("WARNING"):
        loaded = comparable(OUTSIDE_INPUTS[name](path))
        assert loaded == comparable(OUTSIDE_INPUTS[name](reader_demo / name))
    assert [record.getMessage() for record in caplog.records] == []


@pytest.mark.parametrize("cell, message", [("x" * 200_000, "field larger than field limit"),
                                           ("nu\x00l", "line contains NUL")],
                         ids=["long-field", "nul"])
def test_general_lexicon_row_csv_cannot_read_is_refused_with_line(tmp_path, cell, message):
    path = tmp_path / "general.csv"
    path.write_text(f"Word,A.Mean.Sum\nfine,5\n{cell},6\n", encoding="utf-8")
    if "\x00" in cell and sys.version_info >= (3, 11):  # csv reads NUL from 3.11 on
        assert load_general_lexicon(path).arousal("nu\x00l") == 6.0
    else:
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}:3: {message}")):
            load_general_lexicon(path)


@pytest.mark.parametrize("name", ["tokens.bin", "embedding.bin", "scores.bin"])
def test_npy_header_without_its_closing_parenthesis_is_refused_by_name(reader_demo,
                                                                      tmp_path, name):
    data = (reader_demo / name).read_bytes()
    close = data.index(b")", data.index(b"'shape': ("))
    path = tmp_path / name
    path.write_bytes(data[:close] + data[close + 1:])
    with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: not a valid")):
        READERS[name](path)


@pytest.mark.parametrize("name", ["tokens.bin", "embedding.bin", "scores.bin"])
def test_record_that_declares_more_data_than_the_file_holds_is_refused_by_name(reader_demo,
                                                                              tmp_path, name):
    # the first axis of the last record becomes 10**15, in the spaces that
    # numpy pads its header with, so the header keeps its length
    data = (reader_demo / name).read_bytes()
    start = data.rindex(b"'shape': (") + len(b"'shape': (")
    end = min(data.index(b",", start), data.index(b")", start))
    header_end = data.index(b"\n", start)
    huge = str(10**15).encode()
    grown = len(huge) - (end - start)
    assert data[header_end - grown:header_end] == b" " * grown
    path = tmp_path / name
    path.write_bytes(data[:start] + huge + data[end:header_end - grown] + data[header_end:])
    with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: not a valid ") +
                       ".*runs past the end of the file"):
        READERS[name](path)


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_edit_loads_or_is_refused_by_file_name(reader_demo, tmp_path, name):
    path = work_copy(reader_demo, tmp_path) / name
    original = path.read_bytes()
    rng = random.Random(name)
    for n in range(EDITS):
        path.write_bytes(edited(original, rng))
        try:
            READERS[name](path)
        except CorpusFormatError as exc:
            assert path.name in str(exc), f"edit {n}: {exc}"
