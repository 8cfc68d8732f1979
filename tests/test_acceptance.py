"""Acceptance suite: one test per criterion, at the stated tolerance.

The conftest terminal summary prints one line per criterion at the end
of the run. Criteria that need external data (the published two-rater
lexicon file, the full issue dataset) skip with an explicit marker when
the corresponding environment variable is unset:

    AROUSALKIT_SEA_RATINGS      path to a word,arousal,r1,r2,source file
                                with both raters' scores
    AROUSALKIT_EXTERNAL_DATA    directory with corpus.jsonl,
                                general_lexicon.csv, sea_lexicon.csv for
                                the full evaluation
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from arousalkit.corpus import Field, Vocabulary, read_corpus
from arousalkit.embedding import (
    CoocMatrix,
    EmbeddingConfig,
    EmbeddingModel,
    WordVectors,
    glove_loss,
    loss_and_gradients,
    nearest_neighbors,
)
from arousalkit.evalstats import PRIORITY_PAIRS, evaluate_priorities, pair_label
from arousalkit.lexicon import (
    RatingRecord,
    SeaLexicon,
    SeedConfig,
    load_general_lexicon,
    rater_agreement,
    select_seeds,
)
from arousalkit.scoring import ScoringLexicon, score_corpus, score_text
from arousalkit.stats import cohens_d, pearson_r, weighted_kappa, welch_t_test

SEA_RATINGS_FILE = os.environ.get("AROUSALKIT_SEA_RATINGS")
EXTERNAL_DATA_DIR = os.environ.get("AROUSALKIT_EXTERNAL_DATA")


def test_criterion_01_gradient_check():
    """Analytic gradients match central finite differences on a 5-word,
    4-dimensional instance (relative error <= 1e-5) in under a second."""
    t0 = time.time()
    config = EmbeddingConfig(dim=4, epochs=0, seed=3)
    model = EmbeddingModel.initialize(list("abcde"), config)
    rng = np.random.default_rng(11)
    cells = [(i, j, float(rng.uniform(0.3, 120.0)))
             for i in range(5) for j in range(5) if rng.random() < 0.7]
    rows, cols, vals = (np.array(column) for column in zip(*cells))
    cooc = CoocMatrix(rows, cols, vals)
    _, d_w, d_wc, d_b, d_bc = loss_and_gradients(model, cooc)
    h = 1e-6
    worst = 0.0
    for block, grad in (
        (model.w_main, d_w), (model.w_context, d_wc),
        (model.b_main, d_b), (model.b_context, d_bc),
    ):
        it = np.nditer(block, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = block[idx]
            block[idx] = orig + h
            up = glove_loss(model, cooc)
            block[idx] = orig - h
            down = glove_loss(model, cooc)
            block[idx] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(grad[idx] - fd) / max(abs(fd), 1e-8))
    elapsed = time.time() - t0
    assert worst <= 1e-5
    assert elapsed < 1.0


def test_criterion_02_training_sanity(demo_run):
    """Deterministic training on the ~1k-issue toy corpus: loss strictly
    decreases over the first 5 epochs, final < 50% of initial, < 30 s."""
    history = demo_run.model.loss_history
    assert len(history) >= 6
    assert all(history[i] > history[i + 1] for i in range(5))
    assert history[-1] < 0.5 * history[0]
    assert demo_run.train_seconds < 30.0


def test_criterion_03_knn_oracle():
    """nearest_neighbors equals a brute-force cosine scan on 200 random
    16-d vectors for k in {1, 5, 10}, including tie-breaking."""
    rng = np.random.default_rng(13)
    matrix = rng.normal(size=(200, 16))
    matrix[150] = matrix[50]  # exact duplicates force tie-breaking
    matrix[151] = matrix[50]
    words = [f"w{i:03d}" for i in range(200)]
    vectors = WordVectors(words, matrix)

    def brute_force(word, k):
        query = vectors.vector(word)
        qn = math.sqrt(float(np.dot(query, query)))
        scored = []
        for other in words:
            if other == word:
                continue
            vec = vectors.vector(other)
            sim = float(np.dot(query, vec)) / (qn * math.sqrt(float(np.dot(vec, vec))))
            scored.append((-sim, other))
        scored.sort()
        return [w for _, w in scored[:k]]

    for k in (1, 5, 10):
        for word in ("w000", "w050", "w150", "w199"):
            got = [w for w, _ in nearest_neighbors(vectors, word, k)]
            assert got == brute_force(word, k), (word, k)


def test_criterion_04_statistics_oracles():
    """kappa vs direct confusion-matrix computation (1e-12) on 100 random
    pairs; pearson/cohens_d/welch vs closed-formula and quadrature oracles
    (p-values to 1e-9)."""
    rng = np.random.default_rng(17)
    x = rng.integers(1, 10, size=100).tolist()
    y = np.clip(np.array(x) + rng.integers(-3, 4, size=100), 1, 9).tolist()
    for weighting in ("linear", "quadratic"):
        observed = [[0.0] * 9 for _ in range(9)]
        for xi, yi in zip(x, y):
            observed[xi - 1][yi - 1] += 1
        row = [sum(observed[i]) for i in range(9)]
        col = [sum(observed[i][j] for i in range(9)) for j in range(9)]
        num = den = 0.0
        for i in range(9):
            for j in range(9):
                w = abs(i - j) / 8 if weighting == "linear" else ((i - j) / 8) ** 2
                num += w * observed[i][j]
                den += w * row[i] * col[j] / 100
        assert abs(weighted_kappa(x, y, weighting) - (1 - num / den)) <= 1e-12

    def t_density(v, df):
        log_c = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) \
            - 0.5 * math.log(df * math.pi)
        return math.exp(log_c - (df + 1) / 2 * math.log1p(v * v / df))

    def p_quadrature(t, df):
        tail, _ = quad(t_density, abs(t), np.inf, args=(df,), limit=200)
        return 2 * tail

    # pearson on a fixed 20-pair fixture, closed formulas
    xs = rng.normal(size=20)
    ys = 0.5 * xs + rng.normal(size=20)
    r, p = pearson_r(xs, ys)
    n = 20
    sxy = float(np.sum((xs - xs.mean()) * (ys - ys.mean())))
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    syy = float(np.sum((ys - ys.mean()) ** 2))
    r_oracle = sxy / math.sqrt(sxx * syy)
    t_oracle = r_oracle * math.sqrt((n - 2) / (1 - r_oracle**2))
    assert r == pytest.approx(r_oracle, abs=1e-12)
    assert p == pytest.approx(p_quadrature(t_oracle, n - 2), abs=1e-9)

    # cohen's d hand fixture
    assert cohens_d([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == pytest.approx(-1.0, abs=1e-12)

    # welch on a fixed 10-vs-10 fixture
    a = rng.normal(0.0, 1.0, size=10)
    b = rng.normal(1.0, 2.0, size=10)
    t, df, p = welch_t_test(a, b)
    qa, qb = a.var(ddof=1) / 10, b.var(ddof=1) / 10
    t_oracle = (a.mean() - b.mean()) / math.sqrt(qa + qb)
    df_oracle = (qa + qb) ** 2 / (qa**2 / 9 + qb**2 / 9)
    assert t == pytest.approx(t_oracle, abs=1e-12)
    assert df == pytest.approx(df_oracle, abs=1e-12)
    assert p == pytest.approx(p_quadrature(t_oracle, df_oracle), abs=1e-9)


@pytest.mark.skipif(
    not SEA_RATINGS_FILE,
    reason="published two-rater lexicon file not available "
    "(set AROUSALKIT_SEA_RATINGS); criterion 4 stands in",
)
def test_criterion_05_published_agreement_statistics():
    """Agreement statistics over the published two-rater file."""
    lexicon = SeaLexicon.load(SEA_RATINGS_FILE)
    assert len(lexicon) == 428
    records = []
    for word, entry in lexicon.entries.items():
        if len(entry.scores) != 2:
            pytest.skip("published file lacks both raters' scores; criterion 4 stands in")
        for rater, score_value in entry.scores:
            records.append(RatingRecord(word, rater, score_value))
    report = rater_agreement(records)
    assert report.means[0] == pytest.approx(5.42, abs=0.01)
    assert report.means[1] == pytest.approx(5.35, abs=0.01)
    assert report.sds[0] == pytest.approx(1.53, abs=0.01)
    assert report.sds[1] == pytest.approx(1.32, abs=0.01)
    assert report.pearson == pytest.approx(0.32, abs=0.005)
    assert 1.5e-12 < report.pearson_p < 1.5e-10
    assert report.pct_exact == pytest.approx(28.0, abs=0.5)
    assert report.pct_within_one == pytest.approx(69.0, abs=0.5)
    assert report.pct_opposite == pytest.approx(14.0, abs=0.5)
    kappas = [
        rater_agreement(records, kappa_weighting=w).kappa
        for w in ("linear", "quadratic")
    ]
    assert any(abs(k - 0.32) <= 0.02 for k in kappas)


def test_criterion_06_scoring_rule_invariants():
    """Clamp inequalities, neutral fixed point, monotone extreme insertion,
    and absence on zero matches over 10,000 randomized cases."""
    rng = np.random.default_rng(19)
    alphabet = [f"w{i}" for i in range(30)]
    for case in range(10_000):
        size = int(rng.integers(1, 13))
        words = list(rng.choice(alphabet, size=size, replace=False))
        if case % 10 == 0:
            level = float(rng.uniform(1, 9))
            arousal = {w: level for w in words}
        else:
            arousal = {w: float(rng.uniform(1, 9)) for w in words}
        lex = ScoringLexicon(arousal)
        n_tokens = int(rng.integers(0, 12))
        tokens = [
            words[rng.integers(size)] if rng.random() < 0.5 else "zz"
            for _ in range(n_tokens)
        ]
        result = score_text(tokens, lex)
        matched = [t for t in tokens if t in lex]
        if not matched:
            assert result is None
            continue
        assert result.max_used >= lex.avg - 1e-12
        assert result.min_used <= lex.avg + 1e-12
        assert result.score == pytest.approx(result.max_used + result.min_used)
        assert lex.avg + min(arousal.values()) - 1e-9 <= result.score \
            <= lex.avg + max(arousal.values()) + 1e-9
        if case % 10 == 0:
            assert result.score == pytest.approx(2 * lex.avg)
        extreme_high = max(words, key=lambda w: arousal[w])
        if arousal[extreme_high] > result.max_used:
            after = score_text(tokens + [extreme_high], lex)
            assert after.score >= result.score - 1e-9
        extreme_low = min(words, key=lambda w: arousal[w])
        if arousal[extreme_low] < result.min_used:
            after = score_text(tokens + [extreme_low], lex)
            assert after.score <= result.score + 1e-9


def test_criterion_07_combined_shift_invariance(demo_run):
    """Perturbing the combined-mode centering constant changes no Cohen's
    d cell by more than 1e-12 on the toy evaluation."""
    work = demo_run.work_dir
    general = ScoringLexicon(
        load_general_lexicon(work / "inputs" / "general_lexicon.csv").arousal_map()
    )
    sea = ScoringLexicon(SeaLexicon.load(work / "sea_lexicon.csv").arousal_map())
    store = read_corpus(work / "inputs" / "corpus.jsonl")
    base_avg = 2.0 * sea.avg
    base_rows = score_corpus(store, general, sea, base_avg)
    base_table = evaluate_priorities(base_rows)
    rng = np.random.default_rng(23)
    for shift in rng.uniform(-5.0, 5.0, size=3):
        rows = score_corpus(store, general, sea, base_avg + float(shift))
        table = evaluate_priorities(rows)
        for key, cell in base_table.cells.items():
            other = table.cells[key]
            if cell is None:
                assert other is None
            else:
                assert abs(other.cohen_d - cell.cohen_d) <= 1e-12, key


def test_criterion_08_end_to_end_planted_signal(demo_run):
    """The full pipeline on the planted-signal corpus separates priorities:
    d(Blocker-Trivial) >= 0.3 and d(Blocker-Trivial) > d(Major-Minor) > 0
    for sea-mode AllComments, in under 2 minutes."""
    table = demo_run.table
    blocker_trivial = table.cell(Field.ALL_COMMENTS, "sea", PRIORITY_PAIRS[0])
    major_minor = table.cell(Field.ALL_COMMENTS, "sea", PRIORITY_PAIRS[3])
    assert blocker_trivial is not None and major_minor is not None
    assert blocker_trivial.cohen_d >= 0.3
    assert blocker_trivial.cohen_d > major_minor.cohen_d > 0.0
    assert demo_run.total_seconds < 120.0


def test_criterion_09_table_layout_on_toy_data(demo_run):
    """The evaluation renders the published table layout on any data."""
    pairs_header = "field,mode," + ",".join(pair_label(p) for p in PRIORITY_PAIRS)
    for name in ("eval_d.csv", "eval_t.csv", "eval_df.csv", "eval_p.csv"):
        lines = (demo_run.work_dir / name).read_text(encoding="utf-8").splitlines()
        assert lines[0] == pairs_header
        assert len(lines) == 1 + 5 * 3  # five fields x three modes
    display = (demo_run.work_dir / "eval_tables.txt").read_text(encoding="utf-8")
    assert "Cohen's d between issue priorities" in display
    assert "t-test p-values" in display
    assert len(demo_run.table.cells) == 75


@pytest.mark.skipif(
    not EXTERNAL_DATA_DIR,
    reason="external dataset not available (set AROUSALKIT_EXTERNAL_DATA); "
    "full-table reproduction is an optional external-data criterion",
)
def test_criterion_09_external_data_reproduction():
    """With the external corpus and lexicons supplied, combined-mode
    AllComments Blocker-Trivial lands within 0.05 of 0.5070."""
    corpus_path = os.path.join(EXTERNAL_DATA_DIR, "corpus.jsonl")
    general_path = os.path.join(EXTERNAL_DATA_DIR, "general_lexicon.csv")
    sea_path = os.path.join(EXTERNAL_DATA_DIR, "sea_lexicon.csv")
    general = ScoringLexicon(load_general_lexicon(general_path).arousal_map())
    sea = ScoringLexicon(SeaLexicon.load(sea_path).arousal_map())
    rows = score_corpus(read_corpus(corpus_path), general, sea, 2.0 * sea.avg)
    table = evaluate_priorities(rows)
    cell = table.cell(Field.ALL_COMMENTS, "combined", PRIORITY_PAIRS[0])
    assert cell is not None
    assert cell.cohen_d == pytest.approx(0.5070, abs=0.05)


def test_criterion_10_seed_selection_fixture(tmp_path):
    """A constructed lexicon and frequency table yield exactly 20 High and
    20 Low seeds respecting the 100/1000 thresholds."""
    rows = ["Word,A.Mean.Sum"]
    freqs = {}
    for n in range(26):
        word = f"hi{n:02d}"
        rows.append(f"{word},{8.9 - 0.05 * n:.2f}")
        freqs[word] = (
            50 if n == 0 else 150 if n <= 10 else 800 if n == 11
            else 1500 if n <= 21 else 2000
        )
    for n in range(26):
        word = f"lo{n:02d}"
        rows.append(f"{word},{1.0 + 0.05 * n:.2f}")
        freqs[word] = (
            90 if n == 0 else 101 if n <= 10 else 100 if n == 11
            else 1001 if n <= 21 else 5000
        )
    path = tmp_path / "general.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    general = load_general_lexicon(path)
    vocab = Vocabulary(freqs, min_count=1)
    seeds = select_seeds(general, vocab, SeedConfig(n1=10, f1=100, n2=10, f2=1000))
    high = [s.word for s in seeds if s.pole == "high"]
    low = [s.word for s in seeds if s.pole == "low"]
    assert len(high) == 20 and len(low) == 20
    assert high == [f"hi{n:02d}" for n in list(range(1, 11)) + list(range(12, 22))]
    assert low == [f"lo{n:02d}" for n in list(range(1, 11)) + list(range(12, 22))]
    tier1, tier2 = high[:10], high[10:]
    assert all(vocab.freq(w) > 100 for w in tier1)
    assert all(vocab.freq(w) > 1000 for w in tier2)
