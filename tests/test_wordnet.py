import os

import pytest
from hypothesis import given, settings, strategies as st

from arousalkit.lexicon import CandidateSet, Seed, SeedSet, expand_wordnet
from arousalkit.synthetic import write_wordnet_fixture
from arousalkit.wordnet import POS_SUFFIXES, WordNetError, load_wordnet

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


def reference_synonyms(synsets: list[tuple[str, list[str]]]) -> dict[str, set[str]]:
    """The synonym map by brute force: for each lowercased lemma, the
    single-word lemmas of every synset that holds it, itself excluded."""
    lowered = [{lemma.lower() for lemma in lemmas} for _, lemmas in synsets]
    return {word: {other for members in lowered if word in members
                   for other in members if "_" not in other and other != word}
            for members in lowered for word in members}


class TestLoad:
    def test_two_synset_fixture(self, two_synset_db):
        for lemma in ("quick", "fast", "speedy"):
            assert two_synset_db[lemma] | {lemma} == {"fast", "quick", "speedy"}
        assert set(two_synset_db) == {"quick", "fast", "speedy", "hurry", "rush", "in_a_hurry"}

    def test_bidirectional_membership(self, two_synset_db):
        for lemma, others in two_synset_db.items():
            for other in others:
                assert "_" in lemma or lemma in two_synset_db[other]

    def test_empty_files_with_headers_give_empty_db(self, tmp_path):
        write_wordnet_fixture(tmp_path / "dict", synsets=[])
        assert load_wordnet(tmp_path / "dict") == {}

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
        assert db == {"quick": {"fast"}, "fast": {"quick"}}
        assert any("skipped" in record.message for record in caplog.records)

    def test_multiword_lemmas_parsed_but_flagged(self, two_synset_db):
        assert two_synset_db["in_a_hurry"] == {"hurry", "rush"}
        assert "in_a_hurry" not in two_synset_db["hurry"]

    def test_repeated_offset_is_its_own_synset_with_warning(self, tmp_path, caplog):
        write_wordnet_fixture(tmp_path / "dict", synsets=[("noun", ["alpha", "beta"])])
        data = tmp_path / "dict" / "data.noun"
        text = data.read_text(encoding="utf-8")
        first = text.splitlines(keepends=True)[2]
        data.write_text(text + first.replace("alpha 0 beta 0", "gamma 0 delta 0"),
                        encoding="utf-8")
        with caplog.at_level("WARNING"):
            db = load_wordnet(tmp_path / "dict")
        assert db["alpha"] == {"beta"} and db["gamma"] == {"delta"}
        offset = int(first.split()[0])
        assert [record.getMessage() for record in caplog.records] == [
            f"{data}:4: offset {offset:08d} repeats line 3; kept as a synset of its own"]

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
        assert "nonexistent" not in two_synset_db

    def test_singleton_synsets_give_empty_set(self, tmp_path):
        write_wordnet_fixture(tmp_path / "dict", synsets=[("noun", ["lonely"])])
        assert load_wordnet(tmp_path / "dict") == {"lonely": set()}

    def test_quick_yields_fast(self, two_synset_db):
        assert "fast" in two_synset_db["quick"]

    def test_union_across_parts_of_speech(self, tmp_path):
        write_wordnet_fixture(
            tmp_path / "dict",
            synsets=[("noun", ["hurry", "haste"]), ("verb", ["hurry", "rush"])],
        )
        assert load_wordnet(tmp_path / "dict")["hurry"] == {"haste", "rush"}

    def test_excludes_query_multiwords_and_uppercase(self, two_synset_db):
        result = two_synset_db["hurry"]
        assert "hurry" not in result
        assert all("_" not in w and w == w.lower() for w in result)
        assert result == {"rush"}

    def test_symmetry(self, two_synset_db):
        for w1 in ("quick", "fast", "speedy", "hurry", "rush"):
            for w2 in two_synset_db[w1]:
                assert w1 in two_synset_db[w2]


_LEMMAS = st.text(alphabet="abAB_", min_size=1, max_size=3)
_SYNSETS = st.lists(st.tuples(st.sampled_from(POS_SUFFIXES),
                              st.lists(_LEMMAS, min_size=1, max_size=4)), max_size=8)


class TestSynonymMapProperties:
    @settings(max_examples=100, deadline=None)
    @given(synsets=_SYNSETS, data=st.data())
    def test_map_equals_the_brute_force_reference(self, tmp_path_factory, synsets, data):
        db = load_wordnet(write_wordnet_fixture(tmp_path_factory.mktemp("wn"), synsets))
        reference = reference_synonyms(synsets)
        assert db == reference
        for lemma, others in db.items():
            assert all(lemma in db[other] for other in others if "_" not in lemma)

        # some seed words upper-cased: the map is keyed by lowercased lemmas
        lemmas = sorted(reference) or ["a"]
        cased = st.sampled_from(lemmas).flatmap(lambda w: st.sampled_from([w, w.upper()]))
        seed_words = data.draw(st.lists(cased, unique=True, max_size=4))
        words = set(data.draw(st.lists(st.sampled_from(lemmas), max_size=6)))
        seeds = SeedSet(Seed(word, "high", "brainstorm", 1) for word in seed_words)
        expected = {word: "seed" for word in seed_words}
        for word in seed_words:
            for syn in sorted(reference.get(word.lower(), set()) & words):
                expected.setdefault(syn, f"wordnet:{word}")
        candidates = CandidateSet.from_seeds(seeds)
        assert expand_wordnet(candidates, seeds, db, words) == len(expected) - len(seeds)
        assert [(c.word, c.provenance) for c in candidates] == list(expected.items())


@pytest.mark.skipif(
    not REAL_WORDNET, reason="AROUSALKIT_WORDNET_DIR not set; real WordNet unavailable"
)
class TestRealWordNet:
    def test_quick_yields_fast(self):
        assert "fast" in load_wordnet(REAL_WORDNET)["quick"]
