import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arousalkit.corpus import Field, Priority, tokenize
from arousalkit.scoring import (
    MODES,
    ScoringLexicon,
    _score_units,
    combined_score,
    load_scores,
    save_score_records,
    save_scores,
    score_corpus,
    score_text,
)
from arousalkit.stats import cohens_d
from conftest import corpus_store

GENERAL = ScoringLexicon({"fire": 8.0, "calm": 2.0, "note": 5.3, "word": 5.9})
# avg = (8.0 + 2.0 + 5.3 + 5.9) / 4 = 5.3


class TestScoringLexicon:
    def test_iterates_words_in_load_order(self):
        assert list(ScoringLexicon({"b": 2.0, "a": 1.0, "c": 3.0})) == ["b", "a", "c"]

    def test_arousal_map_is_a_copy(self):
        lex = ScoringLexicon({"a": 4.0, "b": 6.0})
        arousal = lex.arousal_map()
        assert arousal == {"a": 4.0, "b": 6.0}
        arousal["a"] = 9.0
        assert lex.arousal("a") == 4.0
        assert ScoringLexicon(lex.arousal_map()).avg == lex.avg

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_arousal_is_refused_with_its_word(self, value):
        with pytest.raises(ValueError, match="'bad'"):
            ScoringLexicon({"fine": 5.0, "bad": value})


    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(alphabet="abcd", min_size=1, max_size=3),
                           st.floats(-10, 10), min_size=1, max_size=12),
           st.lists(st.text(alphabet="abcde", min_size=1, max_size=3), max_size=30))
    def test_lookup_places_each_word_at_its_id(self, arousal, words):
        # words may repeat: each id of a word gets that word's arousal
        lex = ScoringLexicon(arousal)
        got_arousal, got_present = lex.lookup(words)
        assert got_arousal.tobytes() == np.array([arousal.get(w, 0.0) for w in words],
                                                 dtype=np.float64).tobytes()
        assert got_present.tolist() == [w in arousal for w in words]


class TestScoreText:
    def test_no_match_is_absent(self):
        assert score_text(["nothing", "here"], GENERAL) is None

    def test_max_plus_min_without_clamping(self):
        result = score_text(["fire", "calm"], GENERAL)
        assert result.score == pytest.approx(10.0)
        assert result.max_used == pytest.approx(8.0)
        assert result.min_used == pytest.approx(2.0)

    def test_single_high_word_clamps_min_to_average(self):
        lex = ScoringLexicon({"high": 7.0, "a": 5.3, "b": 5.3, "c": 4.6, "d": 4.3})
        assert lex.avg == pytest.approx(5.3)
        result = score_text(["high"], lex)
        assert result.max_used == pytest.approx(7.0)
        assert result.min_used == pytest.approx(5.3)
        assert result.score == pytest.approx(12.3)

    def test_single_low_word_clamps_max_to_average(self):
        result = score_text(["calm"], GENERAL)
        assert result.max_used == pytest.approx(GENERAL.avg)
        assert result.min_used == pytest.approx(2.0)

    def test_duplicates_count_occurrences_but_not_extremes(self):
        once = score_text(["fire"], GENERAL)
        thrice = score_text(["fire", "fire", "fire"], GENERAL)
        assert thrice.n_matched == 3
        assert once.n_matched == 1
        assert thrice.score == once.score

    def test_all_average_words_give_twice_average(self):
        lex = ScoringLexicon({"a": 5.0, "b": 5.0})
        result = score_text(["a", "b"], lex)
        assert result.score == pytest.approx(2 * lex.avg)


class TestCombinedScore:
    SEA = ScoringLexicon({"fire": 8.5, "urgent": 7.5, "sleepy": 1.5, "pad": 4.0})
    # sea avg = 5.375, lexicon-mode sea_avg = 10.75

    def test_no_sea_match_keeps_general_score(self):
        result = combined_score(["note", "word"], GENERAL, self.SEA, sea_avg=10.7)
        base = score_text(["note", "word"], GENERAL)
        assert result.score == pytest.approx(base.score)

    def test_stated_formula_arithmetic(self):
        tokens = ["fire", "calm", "urgent"]
        base = score_text(tokens, GENERAL)
        sea_part = score_text(tokens, self.SEA)
        result = combined_score(tokens, GENERAL, self.SEA, sea_avg=10.7)
        assert result.score == pytest.approx(base.score + sea_part.score - 10.7)

    def test_no_general_match_is_absent_even_with_sea_match(self):
        assert combined_score(["urgent"], GENERAL, self.SEA, sea_avg=10.7) is None

    def test_reports_general_anchors(self):
        tokens = ["fire", "urgent", "sleepy"]
        base = score_text(tokens, GENERAL)
        result = combined_score(tokens, GENERAL, self.SEA, sea_avg=10.7)
        assert result.n_matched == base.n_matched
        assert result.max_used == base.max_used
        assert result.min_used == base.min_used


SEA_FIRE_CALM = ScoringLexicon({"fire": 8.5, "calm": 1.5})


class TestResolveSeaAvg:
    """Each ``sea_avg`` setting of ``score_corpus`` against the number it stands for."""

    @staticmethod
    def store():
        return corpus_store([issue("1", "fire a"), issue("2", "calm calm", "word"),
                             issue("3", "note zzz"), issue("4", "fire")])

    def assert_same_table(self, setting, number):
        store = self.store()
        got = score_corpus(store, GENERAL, SEA_FIRE_CALM, setting)
        expected = score_corpus(store, GENERAL, SEA_FIRE_CALM, number)
        assert got.issue_ids == expected.issue_ids
        for name in ("issue", "field", "mode", "priority", "n_matched", "max_used",
                     "min_used", "score"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name

    def test_lexicon_mode_is_twice_mean(self):
        self.assert_same_table("lexicon", 2.0 * SEA_FIRE_CALM.avg)

    def test_numeric_passthrough(self):
        table = score_corpus(self.store(), GENERAL, SEA_FIRE_CALM, 7.25)
        g, s = GENERAL.avg, SEA_FIRE_CALM.avg
        # general score + (sea score - 7.25) where the unit has a sea match
        assert [row[:2] + row[4:] for row in rows(table, "combined")] == [
            ("1", Field.TITLE, 1, 8.0, g, (8.0 + g) + ((8.5 + s) - 7.25)),
            ("2", Field.TITLE, 2, g, 2.0, (g + 2.0) + ((s + 1.5) - 7.25)),
            ("2", Field.DESCRIPTION, 1, 5.9, g, 5.9 + g),
            ("3", Field.TITLE, 1, 5.3, g, 5.3 + g),
            ("4", Field.TITLE, 1, 8.0, g, (8.0 + g) + ((8.5 + s) - 7.25))]

    def test_dataset_mode_means_present_scores(self):
        lex = ScoringLexicon({"a": 4.0, "b": 6.0})
        issues = [
            issue("1", "a"),       # score 5 + 4 = 9
            issue("2", "b b"),     # score 6 + 5 = 11
            issue("3", "zzz"),     # absent
        ]
        table = score_corpus(corpus_store(issues), lex, lex, "dataset")
        combined = table.mode == MODES.index("combined")
        # combined = general + (sea - 10.0), and general equals sea here
        assert table.score[combined].tolist() == pytest.approx([8.0, 12.0])

    def test_dataset_setting_is_left_to_score_corpus(self):
        # the present sea scores: fire 8.5 + 5.0 twice and calm 5.0 + 1.5
        self.assert_same_table("dataset", (13.5 + 6.5 + 13.5) / 3)
        store = corpus_store([issue("1", "note")])
        with pytest.raises(ValueError, match="no sea-mode scores present"):
            score_corpus(store, GENERAL, SEA_FIRE_CALM, "dataset")

    def test_unknown_setting_is_an_error(self):
        with pytest.raises(ValueError, match="sea_avg"):
            score_corpus(self.store(), GENERAL, SEA_FIRE_CALM, "bogus")

    @pytest.mark.parametrize("setting", [True, False, [1], None])
    def test_bool_or_non_number_is_an_error(self, setting):
        with pytest.raises(ValueError, match="sea_avg"):
            score_corpus(self.store(), GENERAL, SEA_FIRE_CALM, setting)

    @staticmethod
    def blocker_trivial_d(blocker_titles, trivial_titles, sea_avg):
        """Cohen's d of the combined title scores, Blocker against Trivial."""
        issues = [issue(f"B{n}", t, priority=Priority.BLOCKER)
                  for n, t in enumerate(blocker_titles)]
        issues += [issue(f"T{n}", t, priority=Priority.TRIVIAL)
                   for n, t in enumerate(trivial_titles)]
        table = score_corpus(corpus_store(issues), GENERAL, SEA_FIRE_CALM, sea_avg)
        combined = table.mode == MODES.index("combined")
        blocker = table.priority == list(Priority).index(Priority.BLOCKER)
        return cohens_d(table.score[combined & blocker].tolist(),
                        table.score[combined & ~blocker].tolist())

    def test_effect_size_moves_with_sea_avg_when_units_lack_a_domain_match(self):
        # "word" and "note" are general-lexicon words only: their units keep
        # their general score whatever sea_avg is, the others shift with it
        blocker = ["fire"] * 120 + ["fire calm"] * 40 + ["word"] * 40
        trivial = ["calm"] * 120 + ["fire calm"] * 40 + ["note"] * 40
        twice_avg = 2.0 * SEA_FIRE_CALM.avg
        at_avg = self.blocker_trivial_d(blocker, trivial, twice_avg)
        shifted = self.blocker_trivial_d(blocker, trivial, twice_avg + 3.0)
        assert at_avg == pytest.approx(2.5271, abs=1e-4)
        assert shifted == pytest.approx(2.2939, abs=1e-4)

    def test_effect_size_ignores_sea_avg_when_every_unit_has_a_domain_match(self):
        blocker = ["fire"] * 120 + ["fire calm"] * 40 + ["fire word"] * 40
        trivial = ["calm"] * 120 + ["fire calm"] * 40 + ["calm note"] * 40
        twice_avg = 2.0 * SEA_FIRE_CALM.avg
        assert self.blocker_trivial_d(blocker, trivial, twice_avg) == pytest.approx(
            self.blocker_trivial_d(blocker, trivial, twice_avg + 3.0), rel=1e-12)


def issue(id_, title="", description="", comments=(), priority=Priority.MAJOR):
    return {"id": id_, "priority": priority.value, "title": title,
            "description": description, "comments": [{"body": b} for b in comments]}


def rows(table, mode=None):
    """The rows of a score table, or only those of ``mode``, as (issue id,
    Field, mode, Priority, n_matched, max, min, score) tuples, in table order."""
    return [row for row in zip(
        [table.issue_ids[i] for i in table.issue.tolist()],
        [list(Field)[c] for c in table.field.tolist()],
        [MODES[c] for c in table.mode.tolist()],
        [list(Priority)[c] for c in table.priority.tolist()],
        table.n_matched.tolist(), table.max_used.tolist(), table.min_used.tolist(),
        table.score.tolist(),
    ) if mode in (None, row[2])]


class TestScoreCorpus:
    SEA = ScoringLexicon({"fire": 8.5, "sleepy": 1.5})

    def test_all_fields_matching_give_five_rows_per_mode(self):
        issues = [issue("1", "fire", "calm fire", ["fire a", "calm b"])]
        general = rows(score_corpus(corpus_store(issues), GENERAL, self.SEA, 10.7), "general")
        assert len(general) == 5
        assert {r[1] for r in general} == set(Field)

    def test_unmatched_field_has_no_row(self):
        issues = [issue("1", "fire", "no match here")]
        table = score_corpus(corpus_store(issues), GENERAL, self.SEA, 10.7)
        assert [r[1] for r in rows(table, "general")] == [Field.TITLE]

    def test_canonical_ordering(self):
        issues = [
            issue("b", "fire", "fire"),
            issue("a", "fire", "fire"),
        ]
        table = score_corpus(corpus_store(issues), GENERAL, self.SEA, 10.7)
        keys = [(issue_id, field.value, mode) for issue_id, field, mode, *_ in rows(table)]
        assert keys == sorted(
            keys, key=lambda k: (k[0], [f.value for f in Field].index(k[1]),
                                 MODES.index(k[2]))
        )

    def test_rerun_is_byte_identical(self, tmp_path):
        issues = [issue(f"i{n}", "fire note", "calm word", ["fire sleepy"])
                  for n in range(10)]
        for name in ("a", "b"):
            table = save_scores(score_corpus(corpus_store(issues), GENERAL, self.SEA, 10.7),
                                tmp_path / f"{name}.csv")
            save_score_records(table, tmp_path / f"{name}.bin")
        for suffix in ("csv", "bin"):
            assert (tmp_path / f"a.{suffix}").read_bytes() == \
                (tmp_path / f"b.{suffix}").read_bytes()

    def test_save_load_round_trip_with_priorities(self, tmp_path):
        issues = [issue("x", "fire", priority=Priority.BLOCKER)]
        table = score_corpus(corpus_store(issues), GENERAL, self.SEA, 10.7)
        path = tmp_path / "scores.csv"
        save_score_records(save_scores(table, path), tmp_path / "scores.bin")
        loaded = rows(load_scores(tmp_path / "scores.bin"), "general")
        assert len(loaded) == 1
        assert loaded[0][3] is Priority.BLOCKER
        assert loaded[0][7] == pytest.approx(rows(table, "general")[0][7], abs=5e-5)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "issue_id,field,mode,n_matched,max,min,score"

    def test_priorities_come_from_the_store(self):
        issues = [issue("y", "fire", "", ["fire"], priority=Priority.MINOR),
                  issue("x", "fire", priority=Priority.UNKNOWN),
                  issue("z", "calm", priority=Priority.TRIVIAL)]
        table = score_corpus(corpus_store(issues), GENERAL, self.SEA, 10.7)
        assert [(r[0], r[3]) for r in rows(table, "general")] == [
            ("x", Priority.UNKNOWN), *[("y", Priority.MINOR)] * 4, ("z", Priority.TRIVIAL)]


arousal_values = st.floats(min_value=1.0, max_value=9.0, allow_nan=False)


@st.composite
def lexicon_and_tokens(draw):
    words = draw(
        st.dictionaries(
            st.text(alphabet="abcdefgh", min_size=1, max_size=3),
            arousal_values,
            min_size=1,
            max_size=12,
        )
    )
    tokens = draw(
        st.lists(
            st.one_of(
                st.sampled_from(sorted(words)),
                st.text(alphabet="xyz", min_size=1, max_size=3),
            ),
            max_size=25,
        )
    )
    return ScoringLexicon(words), tokens


class TestScoringProperties:
    @given(lexicon_and_tokens())
    def test_clamp_inequalities_and_sum(self, case):
        lex, tokens = case
        result = score_text(tokens, lex)
        if result is None:
            assert not any(t in lex for t in tokens)
        else:
            assert result.max_used >= lex.avg - 1e-12
            assert result.min_used <= lex.avg + 1e-12
            assert result.score == pytest.approx(result.max_used + result.min_used)

    @given(lexicon_and_tokens())
    def test_absent_iff_no_match(self, case):
        lex, tokens = case
        assert (score_text(tokens, lex) is None) == (not any(t in lex for t in tokens))

    @given(lexicon_and_tokens())
    def test_appending_extreme_tokens_is_monotone(self, case):
        lex, tokens = case
        before = score_text(tokens, lex)
        if before is None:
            return
        for word in sorted(lex._arousal):
            arousal = lex.arousal(word)
            after = score_text(tokens + [word], lex)
            if arousal > before.max_used:
                assert after.score >= before.score - 1e-9
            elif arousal < before.min_used:
                assert after.score <= before.score + 1e-9


WORDS = ["aa", "bb", "cc", "dd", "ee", "ff"]
# small halves and wholes make a lexicon average often equal one of its values
ORACLE_VALUES = st.sampled_from([1.0, 2.0, 4.0, 4.5, 6.0, 7.0]) | arousal_values


def reference_units(issue):
    """The five units of one issue, tokenized straight from its text."""
    comments = [tokenize(c["body"]) for c in issue["comments"]]
    units = {Field.TITLE: tokenize(issue["title"]),
             Field.DESCRIPTION: tokenize(issue["description"])}
    if comments:
        units[Field.ALL_COMMENTS] = [t for tokens in comments for t in tokens]
        units[Field.FIRST_COMMENT] = comments[0]
        units[Field.LAST_COMMENT] = comments[-1]
    return units


@st.composite
def scoring_cases(draw):
    """Issues over a small word pool (plus a word no lexicon has) and two
    lexicons that each miss some words of the other."""
    general = ScoringLexicon(draw(st.dictionaries(st.sampled_from(WORDS), ORACLE_VALUES,
                                                  min_size=1)))
    sea = ScoringLexicon(draw(st.dictionaries(st.sampled_from(WORDS), ORACLE_VALUES,
                                              min_size=1)))
    text = st.lists(st.sampled_from(WORDS + ["zz"]), max_size=7).map(" ".join)
    ids = draw(st.lists(st.text(max_size=3), max_size=8, unique=True))
    issues = [issue(i, draw(text), draw(text), draw(st.lists(text, max_size=3))) for i in ids]
    sea_avg = draw(st.sampled_from([2.0 * sea.avg, 0.0]) | arousal_values)
    return issues, general, sea, sea_avg


class TestArrayScoringOracle:
    @settings(max_examples=300, deadline=None)
    @given(scoring_cases())
    def test_every_unit_matches_the_reference_rule_bit_for_bit(self, case):
        issues, general, sea, sea_avg = case
        store = corpus_store(issues)
        got = {row[:3]: row[4:] for row in rows(score_corpus(store, general, sea, sea_avg))}
        expected, sea_scores = {}, []
        for issue_ in issues:
            for field, tokens in reference_units(issue_).items():
                for mode, ref in (("general", score_text(tokens, general)),
                                  ("sea", score_text(tokens, sea)),
                                  ("combined", combined_score(tokens, general, sea, sea_avg))):
                    if ref is not None:
                        expected[(issue_["id"], field, mode)] = ref
                        if mode == "sea":
                            sea_scores.append(ref.score)
        assert got.keys() == expected.keys()
        for key, ref in expected.items():
            n_matched, max_used, min_used, score = got[key]
            assert n_matched == ref.n_matched
            assert (max_used.hex(), min_used.hex(), score.hex()) == \
                (ref.max_used.hex(), ref.min_used.hex(), ref.score.hex())
        if sea_scores:
            # "dataset" centres on the mean of the reference sea scores, bit for
            # bit: under an all-zero general lexicon combined = sea - mean, which
            # is exact (so any other mean shows) for sea scores within a factor
            # of two of the mean
            mean = statistics.fmean(sea_scores)
            for anchor in (general, ScoringLexicon(dict.fromkeys(WORDS, 0.0))):
                assert rows(score_corpus(store, anchor, sea, "dataset")) == \
                    rows(score_corpus(store, anchor, sea, mean))
        else:
            with pytest.raises(ValueError, match="no sea-mode scores"):
                score_corpus(store, general, sea, "dataset")

    def test_dictionary_that_repeats_a_word_scores_like_score_text(self):
        store = corpus_store([issue("1", "fire calm fire note", "calm word calm"),
                              issue("2", "zz", "fire zz", ["note note calm", "fire"])])
        # every other occurrence of fire and of calm takes the id of a repeat
        words, ids = store.words + ["fire", "calm"], store.ids.copy()
        for repeat_id, word in enumerate(["fire", "calm"], len(store.words)):
            ids[np.flatnonzero(store.ids == store.words.index(word))[::2]] = repeat_id
        repeated = replace(store, words=words, ids=ids)
        sea = ScoringLexicon({"fire": 8.5, "note": 1.5})
        got = rows(score_corpus(repeated, GENERAL, sea))
        assert got == rows(score_corpus(store, GENERAL, sea))
        starts, ends, _ = (a.ravel() for a in repeated.units())
        expected = {}
        for unit, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
            ref = score_text([words[i] for i in ids[start:end].tolist()], GENERAL)
            if ref is not None:
                key = (repeated.issue_ids[unit // len(Field)], list(Field)[unit % len(Field)])
                expected[key] = (ref.n_matched, ref.max_used, ref.min_used, ref.score)
        assert {row[:2]: row[4:] for row in got if row[2] == "general"} == expected
        assert len(expected) == 6

    def test_unit_of_only_average_words_keeps_both_at_the_average(self):
        lex = ScoringLexicon({"aa": 2.0, "bb": 4.0, "cc": 6.0})
        store = corpus_store([issue("1", "bb bb zz")])
        (row,) = rows(score_corpus(store, lex, lex, 8.0), "general")
        ref = score_text(["bb", "bb", "zz"], lex)
        assert row[4:] == (ref.n_matched, ref.max_used, ref.min_used, ref.score) == \
            (2, 4.0, 4.0, 8.0)


def reference_score_units(ids, words, lex, bounds):
    """The float64 form of ``_score_units``: the extremes are reduced over
    each token's arousal, with -inf/+inf where a token has no match."""
    present = np.array([w in lex for w in words], dtype=bool)
    arousal = np.array([lex.arousal(w) if w in lex else 0.0 for w in words])
    counts = np.zeros(len(ids) + 1, dtype=np.int32)
    np.cumsum(np.append(present, False)[ids], out=counts[1:])
    extremes = []
    for ufunc, missing in ((np.maximum, -np.inf), (np.minimum, np.inf)):
        per_token = np.append(np.where(present, arousal, missing), missing)[ids]
        extremes.append(ufunc.reduceat(per_token, bounds)[::2])
    raw_max, raw_min = extremes
    max_used = np.where(raw_max >= lex.avg, raw_max, lex.avg)
    min_used = np.where(raw_min <= lex.avg, raw_min, lex.avg)
    return np.diff(counts[bounds])[::2], max_used, min_used, max_used + min_used


def assert_kernel_matches_reference(arousal, n_absent=3, n_tokens=400, seed=0):
    """``_score_units`` and ``reference_score_units`` agree bit for bit on
    every unit with a match. The dictionary holds the lexicon's words and
    ``n_absent`` words it lacks; the units are random, possibly empty or
    overlapping, slices of random tokens, plus one unit holding only the
    highest and one only the lowest word."""
    rng = np.random.default_rng(seed)
    lex = ScoringLexicon(arousal)
    words = list(arousal) + [f"absent{i}" for i in range(n_absent)]
    tokens = rng.integers(0, len(words), size=n_tokens)
    extremes = [words.index(max(arousal, key=arousal.get)),
                words.index(min(arousal, key=arousal.get))]
    ids = np.concatenate([tokens, extremes, [len(words)]]).astype(np.intp)
    starts = rng.integers(0, n_tokens + 1, size=200)
    ends = np.minimum(starts + rng.integers(0, 30, size=200), n_tokens)
    units = np.stack([np.append(starts, [n_tokens, n_tokens + 1]),
                      np.append(ends, [n_tokens + 1, n_tokens + 2])], axis=-1)
    bounds = units.ravel()
    got = _score_units(ids, words, lex, bounds)
    expected = reference_score_units(ids, words, lex, bounds)
    assert got[0].tolist() == expected[0].tolist()
    matched = expected[0] > 0
    for got_column, expected_column in zip(got[1:], expected[1:]):
        assert got_column.dtype == np.float64
        assert got_column[matched].tobytes() == expected_column[matched].tobytes()
    return expected[0]


class TestRankCodedKernel:
    def test_tied_values(self):
        arousal = {f"w{i}": [2.0, 5.5, 5.5, 7.25][i % 4] for i in range(40)}
        assert assert_kernel_matches_reference(arousal).any()

    def test_a_single_distinct_value(self):
        assert assert_kernel_matches_reference(dict.fromkeys(["a", "b", "c"], 6.5)).any()

    def test_no_word_of_the_lexicon_in_the_dictionary(self):
        lex = ScoringLexicon({"fire": 8.0, "calm": 2.0})
        words = ["aa", "bb"]
        ids = np.array([0, 1, 1, 0, len(words)], dtype=np.intp)
        bounds = np.array([0, 2, 2, 4, 4, 4])
        counts = _score_units(ids, words, lex, bounds)[0]
        assert counts.tolist() == reference_score_units(ids, words, lex, bounds)[0].tolist()
        assert counts.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("n_distinct", [255, 256, 65535, 65536])
    def test_code_width_boundaries(self, n_distinct):
        # n distinct values take codes 0..n: 255 and 65535 are the largest
        # that fit uint8 and uint16, 256 and 65536 the smallest that do not
        arousal = {f"w{i}": 1.0 + 8.0 * i / n_distinct for i in range(n_distinct)}
        assert assert_kernel_matches_reference(arousal, n_tokens=2000).any()

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.text(alphabet="abcdef", min_size=1, max_size=2),
                           ORACLE_VALUES | st.just(0.0), min_size=1, max_size=20),
           st.integers(0, 2**32 - 1))
    def test_random_lexicons(self, arousal, seed):
        assert_kernel_matches_reference(arousal, n_tokens=60, seed=seed)
