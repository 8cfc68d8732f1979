import os

import pytest

from arousalkit.synthetic import write_wordnet_fixture
from arousalkit.wordnet import WordNetError, load_wordnet, synonyms

REAL_WORDNET = os.environ.get("AROUSALKIT_WORDNET_DIR")


@pytest.fixture
def two_synset_db(tmp_path):
    write_wordnet_fixture(
        tmp_path / "dict",
        synsets=[
            ("adj", ["quick", "fast", "speedy"]),
            ("noun", ["hurry", "rush", "in_a_hurry"]),
        ],
    )
    return load_wordnet(tmp_path / "dict")


class TestLoad:
    def test_two_synset_fixture(self, two_synset_db):
        db = two_synset_db
        assert len(db.members) == 2
        for lemma in ("quick", "fast", "speedy"):
            keys = db.synsets(lemma)
            assert len(keys) == 1
            assert sorted(db.members[next(iter(keys))]) == ["fast", "quick", "speedy"]

    def test_bidirectional_membership(self, two_synset_db):
        db = two_synset_db
        for key, members in db.members.items():
            for lemma in members:
                assert key in db.synsets(lemma)
        for lemma, keys in db.synsets_of.items():
            for key in keys:
                assert lemma in db.members[key]

    def test_empty_files_with_headers_give_empty_db(self, tmp_path):
        write_wordnet_fixture(tmp_path / "dict", synsets=[])
        db = load_wordnet(tmp_path / "dict")
        assert len(db.members) == 0
        assert synonyms(db, "anything") == set()

    def test_missing_file_is_fatal(self, tmp_path):
        write_wordnet_fixture(tmp_path / "dict", synsets=[])
        (tmp_path / "dict" / "data.verb").unlink()
        with pytest.raises(WordNetError, match="data.verb"):
            load_wordnet(tmp_path / "dict")

    def test_malformed_line_is_skipped_with_warning(self, tmp_path, caplog):
        write_wordnet_fixture(
            tmp_path / "dict", synsets=[("adj", ["quick", "fast"])]
        )
        data = tmp_path / "dict" / "data.adj"
        data.write_text(
            data.read_text(encoding="utf-8") + "garbage line\n", encoding="utf-8"
        )
        with caplog.at_level("WARNING"):
            db = load_wordnet(tmp_path / "dict")
        assert len(db.members) == 1
        assert any("skipped" in record.message for record in caplog.records)

    def test_multiword_lemmas_parsed_but_flagged(self, two_synset_db):
        assert two_synset_db.synsets("in_a_hurry")

    def test_data_offsets_are_true_byte_offsets(self, tmp_path):
        write_wordnet_fixture(
            tmp_path / "dict",
            synsets=[("noun", ["alpha"]), ("noun", ["beta", "gamma"])],
        )
        raw = (tmp_path / "dict" / "data.noun").read_bytes()
        for line in raw.decode("utf-8").splitlines():
            if line.startswith(" "):
                continue
            stated = int(line.split()[0])
            assert raw[stated : stated + 8].decode("utf-8") == line[:8]


class TestSynonyms:
    def test_unknown_word_gives_empty_set(self, two_synset_db):
        assert synonyms(two_synset_db, "nonexistent") == set()

    def test_singleton_synsets_give_empty_set(self, tmp_path):
        write_wordnet_fixture(tmp_path / "dict", synsets=[("noun", ["lonely"])])
        db = load_wordnet(tmp_path / "dict")
        assert synonyms(db, "lonely") == set()

    def test_quick_yields_fast(self, two_synset_db):
        assert "fast" in synonyms(two_synset_db, "quick")

    def test_union_across_parts_of_speech(self, tmp_path):
        write_wordnet_fixture(
            tmp_path / "dict",
            synsets=[("noun", ["hurry", "haste"]), ("verb", ["hurry", "rush"])],
        )
        db = load_wordnet(tmp_path / "dict")
        assert synonyms(db, "hurry") == {"haste", "rush"}

    def test_excludes_query_multiwords_and_uppercase(self, two_synset_db):
        result = synonyms(two_synset_db, "hurry")
        assert "hurry" not in result
        assert all("_" not in w and w == w.lower() for w in result)
        assert result == {"rush"}

    def test_symmetry(self, two_synset_db):
        db = two_synset_db
        for w1 in ("quick", "fast", "speedy", "hurry", "rush"):
            for w2 in synonyms(db, w1):
                assert w1 in synonyms(db, w2)

    def test_query_is_case_insensitive(self, two_synset_db):
        assert synonyms(two_synset_db, "QUICK") == synonyms(two_synset_db, "quick")


@pytest.mark.skipif(
    not REAL_WORDNET, reason="AROUSALKIT_WORDNET_DIR not set; real WordNet unavailable"
)
class TestRealWordNet:
    def test_fast_is_an_adjective(self):
        db = load_wordnet(REAL_WORDNET)
        assert any(pos == "adj" for pos, _ in db.synsets("fast"))

    def test_quick_yields_fast(self):
        db = load_wordnet(REAL_WORDNET)
        assert "fast" in synonyms(db, "quick")
