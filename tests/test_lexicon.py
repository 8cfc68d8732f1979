import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arousalkit.artifacts import CorpusFormatError
from arousalkit.corpus import Vocabulary
from arousalkit.embedding import WordVectors
from arousalkit.lexicon import (
    SHEET_HEADER,
    SHEET_INSTRUCTIONS,
    Candidate,
    CandidateSet,
    IngestReport,
    RatingRecord,
    SeaEntry,
    SeaLexicon,
    Seed,
    SeedConfig,
    SeedSelectionError,
    SeedSet,
    aggregate_ratings,
    expand_embedding,
    expand_wordnet,
    generate_sheet,
    ingest_ratings,
    load_general_lexicon,
    load_rating_records,
    load_seed_list,
    rater_agreement,
    read_review,
    read_sheet_words,
    save_rating_records,
    select_seeds,
)
from arousalkit.scoring import ScoringLexicon
from arousalkit.synthetic import fill_ratings, load_truth, write_truth, write_wordnet_fixture
from arousalkit.wordnet import load_wordnet


def by_word(candidates):
    return {c.word: c for c in candidates}


def write_general(tmp_path, rows, header="Word,A.Mean.Sum"):
    path = tmp_path / "general.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestLoadGeneralLexicon:
    def test_three_row_fixture(self, tmp_path):
        path = write_general(tmp_path, ["alpha,3.5", "beta,7.1", "gamma,5.0"])
        general = load_general_lexicon(path)
        assert len(general) == 3
        assert general.arousal("beta") == pytest.approx(7.1)

    def test_out_of_range_arousal_rejected(self, tmp_path):
        path = write_general(tmp_path, ["alpha,3.5", "broken,12.0"])
        general = load_general_lexicon(path)
        assert len(general) == 1
        assert "broken" not in general

    def test_duplicate_word_last_wins(self, tmp_path, caplog):
        path = write_general(tmp_path, ["alpha,3.5", "alpha,4.5"])
        with caplog.at_level("WARNING"):
            general = load_general_lexicon(path)
        assert len(general) == 1
        assert general.arousal("alpha") == pytest.approx(4.5)
        assert any("duplicate" in r.message for r in caplog.records)

    def test_missing_mapped_column_is_fatal(self, tmp_path):
        path = write_general(tmp_path, ["alpha,3.5"], header="Word,Other")
        with pytest.raises(CorpusFormatError, match="A.Mean.Sum"):
            load_general_lexicon(path)

    def test_column_map_override(self, tmp_path):
        path = write_general(tmp_path, ["alpha,6.25"], header="token,activation")
        general = load_general_lexicon(
            path, columns={"word": "token", "arousal": "activation"}
        )
        assert general.arousal("alpha") == pytest.approx(6.25)

    def test_words_lowercased(self, tmp_path):
        path = write_general(tmp_path, ["Alpha,3.5"])
        assert "alpha" in load_general_lexicon(path)

    def test_is_a_scoring_lexicon_in_load_order(self, tmp_path):
        general = load_general_lexicon(write_general(
            tmp_path, ["beta,7.1", "alpha,3.5", "beta,6.0", "gamma,5.0"]))
        assert isinstance(general, ScoringLexicon)
        assert list(general) == ["beta", "alpha", "gamma"]
        assert general.arousal_map() == {"beta": 6.0, "alpha": 3.5, "gamma": 5.0}

    def test_only_word_and_arousal_are_read(self, tmp_path):
        path = write_general(tmp_path, ["alpha,not a number,5.5,", "beta,,2.0,x"],
                             header="Word,V.Mean.Sum,A.Mean.Sum,D.Mean.Sum")
        assert load_general_lexicon(path).arousal_map() == {"alpha": 5.5, "beta": 2.0}

    @pytest.mark.parametrize("rows", [[], [",5.0", "alpha,high", "beta,0.5", "gamma,9.5"]])
    def test_file_without_usable_row_is_refused(self, tmp_path, rows):
        path = write_general(tmp_path, rows)
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}: no usable"):
            load_general_lexicon(path)

    def test_empty_file_is_refused(self, tmp_path):
        path = tmp_path / "general.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="empty lexicon file"):
            load_general_lexicon(path)


def seed_fixture(tmp_path):
    """26 words per pole with hand-enumerable picks under the 100/1000 rule."""
    rows = []
    freqs = {}
    # high pole, arousal descending from 8.9
    for n in range(26):
        word = f"hi{n:02d}"
        rows.append(f"{word},{8.9 - 0.05 * n:.2f}")
        if n == 0:
            freqs[word] = 50      # skipped everywhere
        elif 1 <= n <= 10:
            freqs[word] = 150     # tier-1 picks
        elif n == 11:
            freqs[word] = 800     # fails the tier-2 bar
        elif 12 <= n <= 21:
            freqs[word] = 1500    # tier-2 picks
        else:
            freqs[word] = 2000    # never reached
    # low pole, arousal ascending from 1.0
    for n in range(26):
        word = f"lo{n:02d}"
        rows.append(f"{word},{1.0 + 0.05 * n:.2f}")
        if n == 0:
            freqs[word] = 90
        elif 1 <= n <= 10:
            freqs[word] = 101     # "more than 100" boundary
        elif n == 11:
            freqs[word] = 100     # exactly 100 never qualifies
        elif 12 <= n <= 21:
            freqs[word] = 1001    # "more than 1000" boundary
        else:
            freqs[word] = 5000
    general = load_general_lexicon(write_general(tmp_path, rows))
    vocab = Vocabulary(freqs, min_count=1)
    return general, vocab


class TestSelectSeeds:
    def test_hand_enumerated_picks(self, tmp_path):
        general, vocab = seed_fixture(tmp_path)
        seeds = select_seeds(general, vocab, SeedConfig(n1=10, f1=100, n2=10, f2=1000))
        high = [s.word for s in seeds if s.pole == "high"]
        low = [s.word for s in seeds if s.pole == "low"]
        assert high == [f"hi{n:02d}" for n in range(1, 11)] + \
            [f"hi{n:02d}" for n in range(12, 22)]
        assert low == [f"lo{n:02d}" for n in range(1, 11)] + \
            [f"lo{n:02d}" for n in range(12, 22)]
        assert all(s.source == "general-lexicon" for s in seeds)

    def test_top_arousal_low_frequency_word_skipped(self, tmp_path):
        general, vocab = seed_fixture(tmp_path)
        seeds = select_seeds(general, vocab, SeedConfig(n1=10, f1=100, n2=10, f2=1000))
        assert "hi00" not in seeds
        assert "lo00" not in seeds

    def test_equal_thresholds_degenerate_to_single_tier(self, tmp_path):
        general, vocab = seed_fixture(tmp_path)
        cfg = SeedConfig(n1=10, f1=100, n2=10, f2=100)
        seeds = [s.word for s in select_seeds(general, vocab, cfg) if s.pole == "high"]
        # first 20 words scanned by arousal with freq > 100 (hi00 fails)
        assert seeds == [f"hi{n:02d}" for n in range(1, 21)]

    def test_shortfall_is_an_error_reporting_counts(self, tmp_path):
        # only 14 words in the whole lexicon clear the tier-2 bar
        rows = [f"hi{n:02d},{8.9 - 0.05 * n:.2f}" for n in range(26)]
        general = load_general_lexicon(write_general(tmp_path, rows))
        freqs = {f"hi{n:02d}": (1500 if n >= 12 else 150) for n in range(26)}
        vocab = Vocabulary(freqs, min_count=1)
        with pytest.raises(SeedSelectionError, match=r"tier2 14/20"):
            select_seeds(general, vocab, SeedConfig(n1=10, f1=100, n2=20, f2=1000))

    def test_word_qualifying_for_both_poles_is_an_error(self, tmp_path):
        rows = ["solo,5.0", "other,5.1"]
        general = load_general_lexicon(write_general(tmp_path, rows))
        vocab = Vocabulary({"solo": 500, "other": 500}, min_count=1)
        with pytest.raises(SeedSelectionError, match="both poles"):
            select_seeds(general, vocab, SeedConfig(n1=1, f1=10, n2=1, f2=10))

    def test_row_order_independent(self, tmp_path):
        general, vocab = seed_fixture(tmp_path)
        general = ScoringLexicon(dict(reversed(list(general.arousal_map().items()))))
        seeds = select_seeds(general, vocab, SeedConfig(n1=10, f1=100, n2=10, f2=1000))
        assert [s.word for s in seeds][:3] == ["hi01", "hi02", "hi03"]

    def test_seed_set_save_load_round_trip(self, tmp_path):
        general, vocab = seed_fixture(tmp_path)
        seeds = select_seeds(general, vocab, SeedConfig(n1=10, f1=100, n2=10, f2=1000))
        path = tmp_path / "seeds.csv"
        seeds.save(path)
        loaded = SeedSet.load(path)
        assert [(s.word, s.pole, s.freq) for s in loaded] == \
            [(s.word, s.pole, s.freq) for s in seeds]

    @pytest.mark.parametrize("row,message", [
        ("calm,low,survey,many", r"seeds.csv:3: invalid literal for int\(\)"),
        ("calm,middle,survey,5", "seeds.csv:3: bad pole 'middle' for seed 'calm'"),
        ("calm,low,poll,5", "seeds.csv:3: unknown seed source 'poll'"),
        ("fire,low,survey,5", "seeds.csv:3: duplicate word 'fire'"),
    ])
    def test_bad_seed_file_row_is_refused_with_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "seeds.csv"
        path.write_text(f"word,pole,source,freq\nfire,high,survey,9\n{row}\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=message):
            SeedSet.load(path)


class TestSeedList:
    def test_load_extra_seeds(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(
            "# comment\nrage,high,brainstorm\nsnooze,low,liwc\nbad row\n",
            encoding="utf-8",
        )
        vocab = Vocabulary({"rage": 40, "snooze": 3}, min_count=1)
        seeds = load_seed_list(path, vocab)
        assert [(s.word, s.pole, s.source, s.freq) for s in seeds] == [
            ("rage", "high", "brainstorm", 40),
            ("snooze", "low", "liwc", 3),
        ]

    def test_word_outside_the_vocabulary_is_skipped_with_its_line(self, tmp_path, caplog):
        path = tmp_path / "extra.csv"
        path.write_text("rage,high,brainstorm\nzzzword,high,survey\n", encoding="utf-8")
        seeds = load_seed_list(path, Vocabulary({"rage": 40}, min_count=1))
        assert [s.word for s in seeds] == ["rage"]
        assert f"{path}:2: seed 'zzzword' is not in the vocabulary, skipped" in caplog.text

    def test_duplicate_words_rejected_by_seedset(self):
        seeds = SeedSet()
        assert seeds.add(Seed("rage", "high", "brainstorm", 5))
        assert not seeds.add(Seed("rage", "low", "liwc", 5))
        assert len(seeds) == 1


@pytest.fixture
def small_world(tmp_path):
    """Seeds, vocabulary, wordnet db, and vectors for expansion tests."""
    vocab = Vocabulary(
        {"quick": 30, "fast": 25, "calm": 20, "serene": 12, "other": 40, "rapid": 9},
        min_count=1,
    )
    write_wordnet_fixture(
        tmp_path / "dict",
        synsets=[
            ("adj", ["quick", "fast", "speedy"]),   # speedy not in vocab
            ("adj", ["calm", "serene"]),
            ("adj", ["fast", "rapid"]),
        ],
    )
    db = load_wordnet(tmp_path / "dict")
    seeds = SeedSet()
    seeds.add(Seed("quick", "high", "general-lexicon", 30))
    seeds.add(Seed("calm", "low", "general-lexicon", 20))
    rng = np.random.default_rng(0)
    vectors = WordVectors(vocab.words, rng.normal(size=(len(vocab), 6)))
    return seeds, vocab, db, vectors


class TestExpandWordnet:
    def test_in_vocabulary_synonyms_added_pending(self, small_world):
        seeds, vocab, db, _ = small_world
        candidates = CandidateSet.from_seeds(seeds)
        added = expand_wordnet(candidates, seeds, db, vocab)
        assert added == 2  # fast (from quick), serene (from calm); speedy filtered
        fast = by_word(candidates)["fast"]
        assert fast.provenance == "wordnet:quick"
        assert "speedy" not in candidates

    def test_no_in_vocabulary_synonyms_adds_nothing(self, small_world):
        _, vocab, db, _ = small_world
        seeds = SeedSet()
        seeds.add(Seed("other", "high", "brainstorm", 40))
        candidates = CandidateSet.from_seeds(seeds)
        assert expand_wordnet(candidates, seeds, db, vocab) == 0

    def test_embedding_words_filter_as_the_vocabulary_does(self, small_world):
        # train writes one vector for each vocabulary word
        seeds, vocab, db, vectors = small_world
        by_vocab, by_vectors = CandidateSet.from_seeds(seeds), CandidateSet.from_seeds(seeds)
        assert expand_wordnet(by_vectors, seeds, db, vectors) == \
            expand_wordnet(by_vocab, seeds, db, vocab) == 2
        assert list(by_vectors) == list(by_vocab)

    def test_seed_word_is_looked_up_lowercased(self, small_world):
        _, vocab, db, _ = small_world
        seeds = SeedSet()
        seeds.add(Seed("QUICK", "high", "brainstorm", 30))
        candidates = CandidateSet.from_seeds(seeds)
        assert expand_wordnet(candidates, seeds, db, vocab) == 1
        assert by_word(candidates)["fast"].provenance == "wordnet:QUICK"

    def test_synonym_from_two_seeds_keeps_first_provenance(self, tmp_path):
        vocab = Vocabulary({"a": 9, "b": 9, "shared": 9}, min_count=1)
        write_wordnet_fixture(
            tmp_path / "d2",
            synsets=[("noun", ["a", "shared"]), ("noun", ["b", "shared"])],
        )
        db = load_wordnet(tmp_path / "d2")
        seeds = SeedSet()
        seeds.add(Seed("a", "high", "brainstorm", 9))
        seeds.add(Seed("b", "high", "brainstorm", 9))
        candidates = CandidateSet.from_seeds(seeds)
        assert expand_wordnet(candidates, seeds, db, vocab) == 1
        assert by_word(candidates)["shared"].provenance == "wordnet:a"


class TestExpandEmbedding:
    def test_k_zero_adds_nothing(self, small_world):
        seeds, _, _, vectors = small_world
        candidates = CandidateSet.from_seeds(seeds)
        assert expand_embedding(candidates, seeds, vectors, k=0) == 0

    def test_neighbors_added_with_similarity_provenance(self, small_world):
        seeds, _, _, vectors = small_world
        candidates = CandidateSet.from_seeds(seeds)
        added = expand_embedding(candidates, seeds, vectors, k=2)
        assert added >= 1
        for cand in candidates:
            if cand.provenance != "seed":
                kind, seed, similarity = cand.provenance.split(":")
                assert (kind, seed) in (("embedding", "quick"), ("embedding", "calm"))
                assert -1.0 <= float(similarity) <= 1.0

    def test_shared_neighbor_keeps_higher_similarity(self):
        matrix = np.array([
            [1.0, 0.0],     # s1
            [0.8, 0.6],     # s2
            [0.9798, 0.2],  # shared: closer to s1
            [0.0, 1.0],     # pad
        ])
        vectors = WordVectors(["s1", "s2", "shared", "pad"], matrix)
        seeds = SeedSet()
        seeds.add(Seed("s1", "high", "brainstorm", 1))
        seeds.add(Seed("s2", "high", "brainstorm", 1))
        candidates = CandidateSet.from_seeds(seeds)
        expand_embedding(candidates, seeds, vectors, k=1)
        assert by_word(candidates)["shared"].provenance == "embedding:s1:0.9798"

    def test_out_of_vocabulary_seed_skipped_with_warning(self, small_world, caplog):
        seeds, _, _, vectors = small_world
        seeds.add(Seed("ghost", "high", "brainstorm", 0))
        candidates = CandidateSet.from_seeds(seeds)
        with caplog.at_level("WARNING"):
            expand_embedding(candidates, seeds, vectors, k=1)
        assert any("ghost" in r.message for r in caplog.records)

    def test_zero_vector_seed_skipped_with_warning(self, small_world, caplog):
        seeds, vocab, _, vectors = small_world
        matrix = vectors.matrix.copy()
        matrix[vocab.words.index("calm")] = 0.0
        vectors = WordVectors(vocab.words, matrix)
        candidates = CandidateSet.from_seeds(seeds)
        with caplog.at_level("WARNING"):
            added = expand_embedding(candidates, seeds, vectors, k=2)
        assert added == 2
        assert {c.provenance.split(":")[1] for c in candidates
                if c.provenance.startswith("embedding:")} == {"quick"}
        assert any("'calm' has a zero embedding vector" in r.message for r in caplog.records)


class TestReviewAndCandidates:
    def build(self):
        candidates = CandidateSet()
        for word in ("one", "two", "three"):
            candidates.add(Candidate(word, "seed"))
        return candidates

    def review(self, tmp_path, text):
        path = tmp_path / "review.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_accept_all(self, tmp_path):
        path = self.review(tmp_path, "one,accept\ntwo,accept\nthree,accept\n")
        assert read_review(self.build(), path) == ["one", "two", "three"]

    def test_reject_one_leaves_others(self, tmp_path):
        path = self.review(tmp_path, "one,accept\ntwo,reject\nthree,accept\n")
        assert read_review(self.build(), path) == ["one", "three"]

    def test_undecided_words_are_not_accepted(self, tmp_path):
        path = self.review(tmp_path, "# only one decision\n\ntwo,accept\n")
        assert read_review(self.build(), path) == ["two"]

    def test_accepted_words_come_in_candidate_order(self, tmp_path):
        path = self.review(tmp_path, "three,accept\nONE, accept\n")
        assert read_review(self.build(), path) == ["one", "three"]

    def test_last_decision_for_a_word_wins(self, tmp_path):
        path = self.review(tmp_path, "one,accept\none,reject\ntwo,reject\ntwo,accept\n")
        assert read_review(self.build(), path) == ["two"]

    def test_unknown_word_warns_without_state_change(self, tmp_path, caplog):
        candidates = self.build()
        path = self.review(tmp_path, "ghost,accept\n")
        with caplog.at_level("WARNING"):
            assert read_review(candidates, path) == []
        assert any(f"{path}:1: decision for unknown word 'ghost'" in r.message
                   for r in caplog.records)
        assert [c.word for c in candidates] == ["one", "two", "three"]

    @pytest.mark.parametrize("row", ["one,maybe", "one", "one,accept,now"])
    def test_bad_row_warns_and_is_skipped(self, tmp_path, caplog, row):
        path = self.review(tmp_path, f"two,accept\n{row}\n")
        with caplog.at_level("WARNING"):
            assert read_review(self.build(), path) == ["two"]
        assert any(f"{path}:2: bad decision row" in r.message for r in caplog.records)

    def test_candidate_save_load_round_trip(self, tmp_path):
        candidates = CandidateSet()
        candidates.add(Candidate("a", "seed"))
        candidates.add(Candidate("b", "wordnet:a"))
        candidates.add(Candidate("c", "embedding:a:0.8123"))
        path = tmp_path / "candidates.csv"
        candidates.save(path)
        assert path.read_text(encoding="utf-8") == \
            "word,provenance\na,seed\nb,wordnet:a\nc,embedding:a:0.8123\n"
        loaded = by_word(CandidateSet.load(path))
        assert [(c.word, c.provenance) for c in loaded.values()] == [
            ("a", "seed"), ("b", "wordnet:a"), ("c", "embedding:a:0.8123")]

    def test_three_column_candidate_file_is_refused_with_its_path(self, tmp_path):
        path = tmp_path / "candidates.csv"
        path.write_text("word,provenance,status\na,seed,accepted\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"{path}:1: expected header 'word,provenance'")):
            CandidateSet.load(path)

    @pytest.mark.parametrize("row,message", [
        ("a,wordnet:b", "candidates.csv:3: duplicate word 'a'"),
        ("b,bogus", "candidates.csv:3: bad provenance: 'bogus'"),
        ("b,embedding:a:high", "candidates.csv:3: could not convert"),
    ])
    def test_bad_candidate_row_is_refused_with_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "candidates.csv"
        path.write_text(f"word,provenance\na,seed\n{row}\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=message):
            CandidateSet.load(path)


class TestSheet:
    def test_row_format_and_order(self, tmp_path, small_world):
        _, vocab, _, vectors = small_world
        path = tmp_path / "sheet.csv"
        generate_sheet(path, ["quick", "calm"], vocab, vectors, k=2)
        lines = [l for l in path.read_text(encoding="utf-8").splitlines()
                 if l and not l.startswith("#")]
        assert lines[0] == "word,rating,frequency,similar_words"
        assert lines[1].startswith("calm,,20,")
        assert lines[2].startswith("quick,,30,")
        neighbor_cell = lines[2].split(",")[3]
        entries = neighbor_cell.split(";")
        assert len(entries) == 2
        for entry in entries:
            word, sim = entry.split(":")
            assert word in vocab
            assert len(sim.split(".")[1]) == 2

    def test_instruction_header_present(self, tmp_path, small_world):
        _, vocab, _, vectors = small_world
        path = tmp_path / "sheet.csv"
        generate_sheet(path, ["calm"], vocab, vectors, k=1)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("# Rating instructions:")
        assert "1 (calm) to 9 (excited)" in text

    def test_empty_candidates_give_header_only(self, tmp_path, small_world):
        _, vocab, _, vectors = small_world
        path = tmp_path / "sheet.csv"
        generate_sheet(path, [], vocab, vectors, k=2)
        rows = [l for l in path.read_text(encoding="utf-8").splitlines()
                if l and not l.startswith("#")]
        assert rows == ["word,rating,frequency,similar_words"]

    def test_word_missing_from_embedding_gets_empty_cell(self, tmp_path, small_world, caplog):
        _, vocab, _, vectors = small_world
        kept = [n for n, word in enumerate(vectors.words) if word != "rapid"]
        lacking = WordVectors([vectors.words[n] for n in kept], vectors.matrix[kept])
        path = tmp_path / "sheet.csv"
        with caplog.at_level("WARNING"):
            generate_sheet(path, ["rapid"], vocab, lacking, k=2)
        row = [l for l in path.read_text(encoding="utf-8").splitlines()
               if l.startswith("rapid")][0]
        assert row == "rapid,,9,"
        assert any("word 'rapid' not in the embedding vocabulary; empty neighbor cell"
                   in r.message for r in caplog.records)

    def test_zero_vector_word_gets_empty_cell(self, tmp_path, small_world, caplog):
        _, vocab, _, vectors = small_world
        matrix = vectors.matrix.copy()
        matrix[vocab.words.index("calm")] = 0.0
        vectors = WordVectors(vocab.words, matrix)
        path = tmp_path / "sheet.csv"
        with caplog.at_level("WARNING"):
            generate_sheet(path, ["quick", "calm"], vocab, vectors, k=2)
        rows = [l for l in path.read_text(encoding="utf-8").splitlines()
                if l.startswith(("calm", "quick"))]
        assert rows[0] == "calm,,20,"
        assert len(rows[1].split(",")[3].split(";")) == 2
        assert "calm:" not in rows[1]
        assert any("'calm' has a zero embedding vector" in r.message for r in caplog.records)

    def test_out_of_vocabulary_word_is_an_error(self, tmp_path, small_world):
        _, vocab, _, vectors = small_world
        with pytest.raises(ValueError, match="ghost"):
            generate_sheet(tmp_path / "s.csv", ["ghost"], vocab, vectors)

    def test_shuffle_seed_permutes_rows_deterministically(self, tmp_path, small_world):
        _, vocab, _, vectors = small_world
        words = ["quick", "calm", "fast", "serene", "other"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_sheet(a, words, vocab, vectors, k=1, shuffle_seed=3)
        generate_sheet(b, words, vocab, vectors, k=1, shuffle_seed=3)
        assert a.read_bytes() == b.read_bytes()
        alphabetical = tmp_path / "c.csv"
        generate_sheet(alphabetical, words, vocab, vectors, k=1)
        assert a.read_bytes() != alphabetical.read_bytes()


def fill_sheet(src, dst, ratings):
    lines = []
    for line in src.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or line.startswith("word,"):
            lines.append(line)
            continue
        parts = line.split(",")
        if parts[0] in ratings:
            parts[1] = str(ratings[parts[0]])
        lines.append(",".join(parts))
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngestRatings:
    def make_sheets(self, tmp_path, small_world, r1, r2):
        _, vocab, _, vectors = small_world
        sheet = tmp_path / "sheet.csv"
        generate_sheet(sheet, sorted(set(r1) | set(r2)), vocab, vectors, k=1)
        p1, p2 = tmp_path / "rater1.csv", tmp_path / "rater2.csv"
        fill_sheet(sheet, p1, r1)
        fill_sheet(sheet, p2, r2)
        return p1, p2

    def test_two_complete_files_give_double_records(self, tmp_path, small_world):
        r = {"quick": 8, "calm": 2, "fast": 7, "serene": 1}
        p1, p2 = self.make_sheets(tmp_path, small_world, r, r)
        records, report = ingest_ratings([p1, p2])
        assert len(records) == 8
        assert {rec.rater for rec in records} == {"rater1", "rater2"}

    def test_out_of_range_cell_is_row_error(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("word,rating,frequency,similar_words\nalpha,10,5,\n",
                        encoding="utf-8")
        records, report = ingest_ratings([path])
        assert records == []
        assert len(report.errors) == 1
        assert "out of 1..9" in report.errors[0]

    def test_non_integer_cell_is_row_error(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("word,rating,frequency,similar_words\nalpha,7.5,5,\n",
                        encoding="utf-8")
        _, report = ingest_ratings([path])
        assert len(report.errors) == 1

    def test_empty_cell_skipped_and_counted(self, tmp_path, small_world):
        p1, p2 = self.make_sheets(tmp_path, small_world, {"quick": 8}, {})
        records, report = ingest_ratings([p1], rater_labels=["r1"])
        assert records == [RatingRecord("quick", "r1", 8)]
        assert report.n_skipped == 0
        records, report = ingest_ratings([p2], rater_labels=["r2"])
        assert records == []
        assert report.n_skipped == 1

    def test_one_empty_cell_counts_one_skip(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "word,rating,frequency,similar_words\nalpha,7,5,\nbeta,,5,\n",
            encoding="utf-8",
        )
        records, report = ingest_ratings([path])
        assert len(records) == 1
        assert report.n_skipped == 1

    def test_duplicate_word_in_one_file_is_fatal(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "word,rating,frequency,similar_words\nalpha,7,5,\nalpha,6,5,\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError, match="alpha"):
            ingest_ratings([path])

    def test_rating_records_file_round_trip(self, tmp_path):
        records = [RatingRecord("a", "r1", 5), RatingRecord("b", "r2", 9)]
        path = tmp_path / "records.csv"
        save_rating_records(records, path)
        assert load_rating_records(path) == records

    def test_whitespace_only_line_is_skipped(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(f"{SHEET_HEADER}\nalpha,7,5,\n   \t\nbeta,3,5,\n", encoding="utf-8")
        records, report = ingest_ratings([path], ["r1"])
        assert [(r.word, r.score) for r in records] == [("alpha", 7), ("beta", 3)]
        assert report.errors == []
        # the line-by-line reader this one replaced called it a row error
        _, old_report = reference_ingest_ratings([path], ["r1"])
        assert old_report.errors == [f"{path}:3: too few columns"]

    @pytest.mark.parametrize("comment", ["  # note", "\t#alpha,9,5,"])
    def test_indented_hash_line_is_a_comment(self, tmp_path, comment):
        path = tmp_path / "r.csv"
        path.write_text(f"{SHEET_HEADER}\n{comment}\nalpha,7,5,\n", encoding="utf-8")
        records, report = ingest_ratings([path], ["r1"])
        assert [(r.word, r.score) for r in records] == [("alpha", 7)]
        assert (len(records), report.n_skipped, report.errors) == (1, 0, [])
        assert reference_ingest_ratings([path], ["r1"]) != (records, report)

    def test_filled_row_off_the_sheet_is_row_error(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(f"{SHEET_HEADER}\nalpha,7,5,\nzzzword,7,1,\nyyyword,,1,\n",
                        encoding="utf-8")
        records, report = ingest_ratings([path], ["r1"], sheet_words={"alpha"})
        assert records == [RatingRecord("alpha", "r1", 7)]
        assert report.errors == [f"{path}:3: word 'zzzword' is not on the sheet"]
        assert (len(records), report.n_skipped) == (1, 1)

    def test_generated_sheet_words_are_read_by_the_filled_sheet_rule(self, tmp_path,
                                                                       small_world):
        _, vocab, _, vectors = small_world
        sheet = tmp_path / "sheet.csv"
        generate_sheet(sheet, ["quick", "calm"], vocab, vectors, k=1)
        assert read_sheet_words(sheet) == {"quick", "calm"}

    def test_word_named_word_is_a_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(f"{SHEET_HEADER}\nword,3,5,\n", encoding="utf-8")
        records, _ = ingest_ratings([path], ["r1"])
        assert records == [RatingRecord("word", "r1", 3)]

    def two_sheets_named_sheet(self, tmp_path):
        paths = []
        for rater, score in (("alice", 7), ("bob", 3)):
            (tmp_path / rater).mkdir()
            paths.append(tmp_path / rater / "sheet.csv")
            paths[-1].write_text(f"{SHEET_HEADER}\nalpha,{score},5,\n", encoding="utf-8")
        return paths

    def test_sheets_with_the_same_stem_are_refused(self, tmp_path):
        alice, bob = self.two_sheets_named_sheet(tmp_path)
        with pytest.raises(ValueError) as info:
            ingest_ratings([alice, bob])
        assert str(info.value) == \
            f"rater label 'sheet' is given to two sheets: {alice} and {bob}"

    def test_repeated_label_is_refused(self, tmp_path):
        alice, bob = self.two_sheets_named_sheet(tmp_path)
        with pytest.raises(ValueError, match=f"'r1' is given to two sheets: {alice} and {bob}"):
            ingest_ratings([alice, bob], ["r1", "r1"])
        records, _ = ingest_ratings([alice, bob], ["r1", "r2"])
        assert records == [RatingRecord("alpha", "r1", 7), RatingRecord("alpha", "r2", 3)]

    @pytest.mark.parametrize("labels, bad", [(["r1", " r2"], 1), (["r1", ""], 1),
                                             (["r1\t", "r2"], 0)])
    def test_empty_or_padded_label_is_refused(self, tmp_path, labels, bad):
        sheets = self.two_sheets_named_sheet(tmp_path)
        with pytest.raises(ValueError) as info:
            ingest_ratings(sheets, labels)
        assert str(info.value) == (f"rater label {labels[bad]!r} of {sheets[bad]} is empty or "
                                   "has surrounding whitespace")


def reference_ingest_ratings(sheet_paths, rater_labels):
    """The line-by-line sheet reader that ``ingest_ratings`` replaced."""
    records = []
    report = IngestReport()
    for label, path in zip(rater_labels, sheet_paths):
        path = Path(path)
        seen = set()
        with path.open("r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.rstrip("\n")
                if not line or line.startswith("#") or line == SHEET_HEADER:
                    continue
                parts = line.split(",")
                if len(parts) < 2:
                    report.errors.append(f"{path}:{lineno}: too few columns")
                    continue
                word = parts[0].strip().lower()
                if word in seen:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: word {word!r} appears twice in one sheet"
                    )
                seen.add(word)
                cell = parts[1].strip()
                if not cell:
                    report.n_skipped += 1
                    continue
                try:
                    score = int(cell)
                except ValueError:
                    report.errors.append(f"{path}:{lineno}: non-integer rating {cell!r}")
                    continue
                if not 1 <= score <= 9:
                    report.errors.append(f"{path}:{lineno}: rating {score} out of 1..9")
                    continue
                records.append(RatingRecord(word, label, score))
    return records, report


_PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def padded(draw, cells):
    return draw(_PAD) + draw(cells) + draw(_PAD)


#: a sheet row of 1 to 5 cells: word, rating, then frequency and neighbor cells
_SHEET_ROW = st.tuples(
    padded(st.sampled_from(["alpha", "Alpha", "BETA", "beta", "gamma", "word", ""])),
    st.lists(padded(st.one_of(
        st.just(""),
        st.integers(-2, 12).map(str),
        st.integers(1, 9).map(str),
        st.sampled_from(["7.5", "x", "nine", "+4", "1e1", "a:0.10;b:0.20"]),
    )), max_size=4),
).map(lambda row: ",".join([row[0], *row[1]]))

_SHEET_LINE = st.one_of(
    _SHEET_ROW, _SHEET_ROW, st.just(""), st.just(SHEET_HEADER), st.just("# a note"),
).map(lambda line: line if line.strip() else "")  # no whitespace-only line

_SHEET = st.tuples(st.booleans(), st.lists(_SHEET_LINE, max_size=12)).map(
    lambda sheet: [f"# {line}" for line in SHEET_INSTRUCTIONS.splitlines()] * sheet[0]
    + sheet[1])


class TestSimulatedRaters:
    def test_candidate_named_word_is_rated(self, tmp_path):
        sheet, filled = tmp_path / "sheet.csv", tmp_path / "filled.csv"
        sheet.write_text(f"# Rate each word.\n{SHEET_HEADER}\nword,,3,a:0.10\nzeta,,4,\n",
                         encoding="utf-8")
        fill_ratings(sheet, filled, {"word": 7.0, "zeta": 2.0}, seed=1)
        lines = filled.read_text(encoding="utf-8").splitlines()
        assert lines[:2] == ["# Rate each word.", SHEET_HEADER]
        assert [line.split(",")[0] for line in lines[2:]] == ["word", "zeta"]
        assert all(line.split(",")[1] for line in lines[2:])
        records, report = ingest_ratings([filled], ["r1"])
        assert [r.word for r in records] == ["word", "zeta"]
        assert (report.n_skipped, report.errors) == (0, [])

    def test_crlf_sheet_is_filled_with_lf_line_ends(self, tmp_path):
        sheet, filled = tmp_path / "sheet.csv", tmp_path / "filled.csv"
        sheet.write_bytes(f"# Rate each word.\r\n{SHEET_HEADER}\r\nalpha,,3,\r\n".encode())
        fill_ratings(sheet, filled, {"alpha": 7.0}, seed=1)  # seed 1 draws a jitter of 0
        assert filled.read_bytes() == f"# Rate each word.\n{SHEET_HEADER}\nalpha,7,3,\n".encode()

    def test_byte_that_is_not_utf8_is_refused_with_its_line(self, tmp_path):
        sheet, filled = tmp_path / "sheet.csv", tmp_path / "filled.csv"
        sheet.write_bytes(f"{SHEET_HEADER}\nalpha,,3,\n".encode() + b"\xe9beta,,4,\n")
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"{sheet}:3: byte 0xe9 at column 1 is not UTF-8")):
            fill_ratings(sheet, filled, {"alpha": 7.0}, seed=1)
        assert not filled.exists()

    def test_truth_file_bytes_and_round_trip(self, tmp_path):
        path = tmp_path / "truth.csv"
        write_truth(path, {"panic": 8.9, "calm": 1.4, "soon": 6.5})
        assert path.read_bytes() == b"word,arousal\ncalm,1.40\npanic,8.90\nsoon,6.50\n"
        assert load_truth(path) == {"calm": 1.4, "panic": 8.9, "soon": 6.5}


class TestIngestRatingsAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(sheets=st.lists(_SHEET, min_size=1, max_size=3))
    def test_same_records_report_and_errors(self, tmp_path_factory, sheets):
        work = tmp_path_factory.mktemp("sheets")
        paths = []
        for n, lines in enumerate(sheets):
            paths.append(work / f"rater{n}.csv")
            paths[-1].write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        labels = [f"r{n}" for n in range(len(paths))]
        try:
            expected = reference_ingest_ratings(paths, labels)
        except CorpusFormatError as exc:
            with pytest.raises(CorpusFormatError) as info:
                ingest_ratings(paths, labels)
            assert str(info.value) == str(exc)
            return
        records, report = ingest_ratings(paths, labels)
        assert records == expected[0]
        assert (report.n_skipped, report.errors) == (expected[1].n_skipped, expected[1].errors)


class TestAggregate:
    def test_mean_of_two_scores(self):
        sea = aggregate_ratings([RatingRecord("w", "r1", 3), RatingRecord("w", "r2", 5)])
        assert sea.entries["w"].arousal == pytest.approx(4.0)

    def test_single_rater_word_keeps_score(self):
        sea = aggregate_ratings([RatingRecord("w", "r1", 7)])
        assert sea.entries["w"].arousal == pytest.approx(7.0)

    def test_global_mean_over_words(self):
        sea = aggregate_ratings(
            [RatingRecord("a", "r1", 4), RatingRecord("b", "r1", 6)]
        )
        assert sea.mu == pytest.approx(5.0)

    def test_mu_recomputed_on_mutation(self):
        sea = aggregate_ratings([RatingRecord("a", "r1", 4)])
        sea.entries["b"] = SeaEntry("b", 8.0, [("r1", 8)])
        assert sea.mu == pytest.approx(6.0)

    def test_repeated_rating_is_refused(self):
        records = [RatingRecord("a", "r1", 1), RatingRecord("a", "r2", 4),
                   RatingRecord("a", "r1", 9)]
        with pytest.raises(ValueError, match="'a' is rated twice by rater 'r1': 1 and 9"):
            aggregate_ratings(records)

    def test_provenance_attached(self):
        sea = aggregate_ratings(
            [RatingRecord("a", "r1", 4)], provenance={"a": "wordnet:q"}
        )
        assert sea.entries["a"].provenance == "wordnet:q"

    @given(
        st.dictionaries(
            st.text(alphabet="abcdef", min_size=1, max_size=4),
            st.lists(st.integers(1, 9), min_size=1, max_size=2),
            min_size=1,
            max_size=20,
        )
    )
    def test_mean_and_word_arousals_stay_in_range(self, scores_by_word):
        records = [
            RatingRecord(word, f"r{n + 1}", score)
            for word, scores in scores_by_word.items()
            for n, score in enumerate(scores)
        ]
        sea = aggregate_ratings(records)
        assert 1.0 <= sea.mu <= 9.0
        assert all(1.0 <= e.arousal <= 9.0 for e in sea.entries.values())


#: any text a CSV cell can hold (csv refuses NUL on Python 3.10), but not empty
_CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
                     min_size=1)


class TestSeaLexiconFile:
    def build(self):
        return aggregate_ratings(
            [
                RatingRecord("fast", "r1", 7), RatingRecord("fast", "r2", 8),
                RatingRecord("calm", "r1", 2), RatingRecord("calm", "r2", 1),
                RatingRecord("solo", "r1", 5),
            ],
            provenance={"fast": "seed", "calm": "wordnet:serene", "solo": "seed"},
        )

    def test_save_load_round_trip(self, tmp_path):
        sea = self.build()
        path = tmp_path / "sea.csv"
        sea.save(path)
        assert SeaLexicon.load(path).entries == sea.entries

    @given(ratings=st.lists(_CELL_TEXT, min_size=1, max_size=2, unique=True).flatmap(
        lambda raters: st.dictionaries(
            _CELL_TEXT,
            st.tuples(st.dictionaries(st.sampled_from(raters), st.integers(1, 9), min_size=1),
                      st.text(st.characters(blacklist_categories=("Cs",),
                                            blacklist_characters="\0"))),
            min_size=1, max_size=12)))
    def test_save_load_round_trip_of_one_or_two_raters(self, tmp_path_factory, ratings):
        records = [RatingRecord(word, rater, score)
                   for word, (scores, _) in ratings.items() for rater, score in scores.items()]
        sea = aggregate_ratings(records, {word: source for word, (_, source) in ratings.items()})
        path = tmp_path_factory.mktemp("sea") / "sea.csv"
        sea.save(path)
        assert SeaLexicon.load(path).entries == sea.entries

    @pytest.mark.parametrize("row,message", [
        ("fast,7.0000,7,,seed", "sea.csv:3: duplicate word 'fast'"),
        ("slow,0.5000,,,seed", "sea.csv:3: arousal 0.5 out of [1,9] for 'slow'"),
        ("slow,low,2,,seed", "sea.csv:3: could not convert string to float: 'low'"),
        ("slow,2.0000,two,,seed", "sea.csv:3: invalid literal for int()"),
        ("slow,2.0000,2,0,seed", "sea.csv:3: score 0 out of 1..9 for 'slow'"),
        ("slow,2.5000,2,2,seed", "sea.csv:3: arousal does not match the rater mean for 'slow'"),
    ])
    def test_bad_row_is_refused_with_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "sea.csv"
        path.write_text(f"word,arousal,r1,r2,source\nfast,7.5000,7,8,seed\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            SeaLexicon.load(path)

    def test_header_format(self, tmp_path):
        sea = self.build()
        path = tmp_path / "sea.csv"
        sea.save(path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == \
            "word,arousal,r1,r2,source"

    def test_out_of_range_score_is_fatal_with_line_number(self, tmp_path):
        path = tmp_path / "sea.csv"
        path.write_text(
            "word,arousal,r1,r2,source\nfast,7.5000,7,8,seed\nbad,6.0000,12,,seed\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError, match=":3"):
            SeaLexicon.load(path)

    def test_inconsistent_mean_is_fatal(self, tmp_path):
        path = tmp_path / "sea.csv"
        path.write_text(
            "word,arousal,r1,r2,source\nfast,9.0000,7,8,seed\n", encoding="utf-8"
        )
        with pytest.raises(CorpusFormatError, match="mean"):
            SeaLexicon.load(path)

    def test_more_than_two_raters_cannot_serialize(self, tmp_path):
        with pytest.raises(ValueError, match="2 raters"):
            aggregate_ratings(
                [RatingRecord("w", r, 5) for r in ("r1", "r2", "r3")]
            )

    def test_raters_fill_the_columns_in_label_order(self, tmp_path):
        sea = aggregate_ratings([RatingRecord("a", "bob", 3), RatingRecord("b", "alice", 4),
                                 RatingRecord("c", "bob", 6)])
        path = tmp_path / "sea.csv"
        sea.save(path)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == \
            ["a,3.0000,,3,", "b,4.0000,4,,", "c,6.0000,,6,"]
        assert SeaLexicon.load(path).entries["a"].scores == [("r2", 3)]
        lone = aggregate_ratings([RatingRecord("a", "bob", 3)])
        assert lone.entries["a"].scores == [("r1", 3)]

    def test_entry_rater_must_be_a_column(self):
        with pytest.raises(ValueError, match="'alice' of 'w' is not one of"):
            SeaEntry("w", 5.0, [("alice", 5)])


class TestRaterAgreement:
    def records(self, x, y):
        out = []
        for n, (a, b) in enumerate(zip(x, y)):
            out.append(RatingRecord(f"w{n:03d}", "r1", a))
            out.append(RatingRecord(f"w{n:03d}", "r2", b))
        return out

    def test_identical_raters(self):
        x = [1, 5, 9, 3, 7, 2, 8]
        report = rater_agreement(self.records(x, x))
        assert report.pct_exact == pytest.approx(100.0)
        assert report.pct_within_one == pytest.approx(100.0)
        assert report.pct_opposite == pytest.approx(0.0)
        assert report.kappa == pytest.approx(1.0)

    def test_fully_opposite(self):
        report = rater_agreement(self.records([1, 9], [9, 1]))
        assert report.pct_opposite == pytest.approx(100.0)
        assert report.pearson is None  # too few pairs for a correlation

    def test_five_is_not_opposite(self):
        report = rater_agreement(self.records([5, 5, 6], [9, 1, 4]))
        assert report.pct_opposite == pytest.approx(100.0 / 3)

    def test_exact_at_most_within_one(self):
        rng = np.random.default_rng(4)
        x = rng.integers(1, 10, 50).tolist()
        y = rng.integers(1, 10, 50).tolist()
        report = rater_agreement(self.records(x, y))
        assert report.pct_exact <= report.pct_within_one

    def test_means_and_sample_sds(self):
        report = rater_agreement(self.records([1, 2, 3], [4, 6, 8]))
        assert report.means == (pytest.approx(2.0), pytest.approx(6.0))
        assert report.sds[0] == pytest.approx(1.0)
        assert report.sds[1] == pytest.approx(2.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_shared_word_has_no_sds(self):
        report = rater_agreement(self.records([3], [7]))
        assert report.sds is None
        assert report.lines()[2] == "std deviation: n/a (fewer than 2 words)"

    def test_word_set_mismatch_is_fatal_and_lists_difference(self):
        records = self.records([5, 5], [5, 5])[:-1]  # drop r2's last word
        with pytest.raises(ValueError, match="w001"):
            rater_agreement(records)

    def test_repeated_rating_is_refused(self):
        records = self.records([5, 6], [5, 6]) + [RatingRecord("w001", "r2", 6)]
        with pytest.raises(ValueError, match="'w001' is rated twice by rater 'r2': 6 and 6"):
            rater_agreement(records)

    def test_three_raters_rejected(self):
        records = self.records([5], [5]) + [RatingRecord("w000", "r3", 5)]
        with pytest.raises(ValueError, match="exactly 2"):
            rater_agreement(records)
