import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from arousalkit import embedding
from arousalkit.config import PipelineConfig
from arousalkit.corpus import CorpusFormatError, Vocabulary
from arousalkit.pipeline import run_ingest, run_train
from arousalkit.embedding import (
    CoocMatrix,
    EmbeddingConfig,
    EmbeddingModel,
    TrainingDivergedError,
    WordVectors,
    count_cooccurrences,
    glove_loss,
    glove_train,
    loss_and_gradients,
    nearest_neighbors,
    nearest_neighbors_batch,
)
from arousalkit.parallel import split
from conftest import corpus_store, subprocess_env


def vocab_over(words):
    return Vocabulary({w: 10 for w in words}, min_count=1)


def cells(cooc):
    """{(i, j): weight} view of a COO count."""
    return {(int(i), int(j)): float(x) for i, j, x in zip(cooc.rows, cooc.cols, cooc.vals)}


def coo(weights):
    """COO cells from a {(i, j): weight} dict, sorted by (i, j)."""
    keys = sorted(weights)
    return CoocMatrix(
        np.array([i for i, _ in keys], dtype=np.int64),
        np.array([j for _, j in keys], dtype=np.int64),
        np.array([weights[k] for k in keys], dtype=np.float64),
    )


def count_streams(streams, vocab, window):
    """count_cooccurrences over token streams, out-of-vocabulary tokens as -1."""
    ids = vocab.lookup([t for stream in streams for t in stream]).astype(np.int64)
    offsets = np.cumsum([0] + [len(stream) for stream in streams])
    return count_cooccurrences(ids, offsets, window)


def reference_count(unit_streams, vocab, window):
    """Dict loop over the integer number of pairs per (cell, distance); each
    cell is then the left fold of n_d * (1/d) over d = 1..window."""
    counts = {}
    for stream in unit_streams:
        ids = vocab.lookup(stream).tolist()
        for t, i in enumerate(ids):
            for d in range(1, window + 1):
                if i < 0 or t + d >= len(ids) or ids[t + d] < 0:
                    continue
                j = ids[t + d]
                counts[(i, j, d)] = counts.get((i, j, d), 0) + 1
                counts[(j, i, d)] = counts.get((j, i, d), 0) + 1
    weights = {}
    for d in range(1, window + 1):
        for (i, j, dist), n in counts.items():
            if dist == d:
                weights[(i, j)] = weights.get((i, j), 0.0) + n * (1.0 / d)
    return weights


def loop_order_count(unit_streams, vocab, window):
    """The per-token dict loop that folds each cell's 1/d weights in loop
    order, (i, j) before (j, i); it agrees bit for bit with counting by
    distance whenever every partial sum is exact, as at window <= 2."""
    weights = {}
    for stream in unit_streams:
        ids = vocab.lookup(stream).tolist()
        n = len(ids)
        for t in range(n):
            i = ids[t]
            if i < 0:
                continue
            for t2 in range(t + 1, min(t + window, n - 1) + 1):
                j = ids[t2]
                if j < 0:
                    continue
                weights[(i, j)] = weights.get((i, j), 0.0) + 1.0 / (t2 - t)
                weights[(j, i)] = weights.get((j, i), 0.0) + 1.0 / (t2 - t)
    return weights


def assert_bit_identical(got, expected):
    """A COO count equals a {(i, j): weight} dict in cells and value bits."""
    assert list(zip(got.rows.tolist(), got.cols.tolist())) == sorted(expected)
    assert got.vals.tobytes() == np.array([expected[k] for k in sorted(expected)]).tobytes()


STREAMS = st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "oov"]), max_size=30),
                   max_size=8)


class TestCooccurrences:
    def test_harmonic_weighting(self):
        vocab = vocab_over(["a", "b", "c"])
        cooc = cells(count_streams([["a", "b", "c"]], vocab, window=10))
        a, b, c = vocab.lookup(["a", "b", "c"]).tolist()
        assert cooc[(a, b)] == 1.0
        assert cooc[(b, c)] == 1.0
        assert cooc[(a, c)] == 0.5

    def test_self_pair_counts_both_directions(self):
        vocab = vocab_over(["a"])
        cooc = cells(count_streams([["a", "a"]], vocab, window=1))
        a, = vocab.lookup(["a"]).tolist()
        assert cooc[(a, a)] == 2.0

    def test_no_counting_across_unit_boundaries(self):
        vocab = vocab_over(["a", "b", "c"])
        cooc = cells(count_streams([["a", "b"], ["b", "c"]], vocab, window=10))
        a, c = vocab.lookup(["a", "c"]).tolist()
        assert cooc.get((a, c), 0.0) == 0.0

    def test_symmetry(self):
        vocab = vocab_over(["a", "b", "c", "d"])
        cooc = count_streams([["a", "b", "c", "d", "a"]], vocab, window=3)
        weights = cells(cooc)
        for i, j, x in zip(cooc.rows, cooc.cols, cooc.vals):
            assert weights[(int(j), int(i))] == x

    def test_oov_tokens_occupy_positions(self):
        vocab = vocab_over(["a", "b"])
        cooc = cells(count_streams([["a", "zzz", "b"]], vocab, window=10))
        a, b = vocab.lookup(["a", "b"]).tolist()
        assert cooc[(a, b)] == 0.5

    @settings(max_examples=100, deadline=None)
    @given(STREAMS, st.integers(min_value=1, max_value=12), st.randoms(use_true_random=False))
    def test_bit_identical_under_stream_reordering(self, streams, window, random):
        # integer counts add exactly, so no permutation of the streams can
        # move a bit of any cell
        vocab = vocab_over(["a", "b", "c", "d"])
        shuffled = random.sample(streams, len(streams))
        got, again = count_streams(streams, vocab, window), count_streams(shuffled, vocab, window)
        for name in ("rows", "cols", "vals"):
            assert getattr(got, name).tobytes() == getattr(again, name).tobytes()

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            count_streams([["a"]], vocab_over(["a"]), window=0)

    @settings(max_examples=200, deadline=None)
    @given(STREAMS, st.integers(min_value=1, max_value=12))
    def test_bit_identical_to_reference_loop(self, streams, window):
        # empty streams, streams shorter than the window, repeated words
        # (self-pairs) and out-of-vocabulary tokens all come up here
        vocab = vocab_over(["a", "b", "c", "d"])
        got = count_streams(streams, vocab, window)
        expected = reference_count(streams, vocab, window)
        assert len(got) == len(expected)
        assert_bit_identical(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(STREAMS.filter(bool), st.integers(0, 40))
    def test_window_past_the_longest_stream_counts_the_same_cells(self, streams, extra):
        # no pair lies farther apart than the longest stream minus one, so
        # every window from there on, 10**12 included, gives the same cells
        vocab = vocab_over(["a", "b", "c", "d"])
        cap = max(max(map(len, streams)) - 1, 1)
        expected = reference_count(streams, vocab, cap)
        for window in (cap + extra, 10**12):
            assert_bit_identical(count_streams(streams, vocab, window), expected)

    @settings(max_examples=200, deadline=None)
    @given(STREAMS, st.integers(min_value=1, max_value=2))
    def test_bit_identical_to_loop_order_fold_up_to_window_2(self, streams, window):
        # sums of ones and halves are exact, so the order of addition is moot
        vocab = vocab_over(["a", "b", "c", "d"])
        assert_bit_identical(count_streams(streams, vocab, window),
                             loop_order_count(streams, vocab, window))

    def test_bit_identical_across_many_chunks(self):
        # many long streams at a wide window: thousands of pairs per
        # distance, and cells whose 1/d weights would sum to other bits if
        # they were added in loop order rather than by distance
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(40)]
        vocab = vocab_over(words)
        streams = [[words[k] if k < 40 else "oov" for k in rng.integers(0, 44, size=n)]
                   for n in rng.integers(0, 200, size=150)]
        got = count_streams(streams, vocab, window=12)
        expected = reference_count(streams, vocab, 12)
        assert list(zip(got.rows.tolist(), got.cols.tolist())) == sorted(expected)
        assert got.vals.tobytes() == np.array([expected[k] for k in sorted(expected)]).tobytes()


def tiny_model(words, dim, seed=0):
    config = EmbeddingConfig(dim=dim, epochs=0, seed=seed)
    return EmbeddingModel.initialize(words, config)


class TestGloveLoss:
    def test_exact_fit_gives_zero(self):
        words = ["a", "b"]
        model = tiny_model(words, dim=2, seed=1)
        cooc = coo({(0, 1): math.e, (1, 0): math.e})  # ln X = 1 on (0,1) and (1,0)
        model.w_main[:] = 0.0
        model.w_context[:] = 0.0
        model.b_main[:] = 0.5
        model.b_context[:] = 0.5
        assert glove_loss(model, cooc) == pytest.approx(0.0, abs=1e-12)

    def test_weight_capped_at_x_max(self):
        model = tiny_model(["a", "b"], dim=2, seed=1)
        x_max = model.config.x_max
        cooc = coo({(0, 1): x_max})  # single direction, X exactly at the cap
        model.w_main[:] = 0.0
        model.w_context[:] = 0.0
        model.b_main[:] = 0.0
        model.b_context[:] = 0.0
        residual = -math.log(x_max)
        assert glove_loss(model, cooc) == pytest.approx(residual**2, rel=1e-12)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(5)
        words = list("abcde")
        model = tiny_model(words, dim=4, seed=9)
        weights = {}
        for i in range(5):
            for j in range(5):
                if rng.random() < 0.6:
                    weights[(i, j)] = float(rng.uniform(0.2, 150.0))
        cooc = coo(weights)
        expected = 0.0
        for (i, j), x in weights.items():
            f = (x / model.config.x_max) ** model.config.alpha if x < model.config.x_max else 1.0
            pred = float(model.w_main[i] @ model.w_context[j]) \
                + float(model.b_main[i]) + float(model.b_context[j])
            expected += f * (pred - math.log(x)) ** 2
        assert glove_loss(model, cooc) == pytest.approx(expected, rel=1e-12)

    def test_empty_cooc_is_an_error(self):
        model = tiny_model(["a"], dim=2)
        with pytest.raises(ValueError):
            glove_loss(model, coo({}))

    def test_dimension_mismatch_is_an_error(self):
        model = tiny_model(["a", "b"], dim=2)
        cooc = coo({(4, 4): 2.0})
        with pytest.raises(ValueError):
            glove_loss(model, cooc)


class TestGradients:
    def test_analytic_matches_central_finite_differences(self):
        words = list("abcde")
        config = EmbeddingConfig(dim=4, epochs=0, seed=3)
        model = EmbeddingModel.initialize(words, config)
        rng = np.random.default_rng(11)
        weights = {}
        for i in range(5):
            for j in range(5):
                if rng.random() < 0.7:
                    weights[(i, j)] = float(rng.uniform(0.3, 120.0))
        cooc = coo(weights)
        _, d_w, d_wc, d_b, d_bc = loss_and_gradients(model, cooc)
        h = 1e-6
        for block, grad in (
            (model.w_main, d_w),
            (model.w_context, d_wc),
            (model.b_main, d_b),
            (model.b_context, d_bc),
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
                rel = abs(grad[idx] - fd) / max(abs(fd), 1e-8)
                assert rel <= 1e-5


class TestTraining:
    def build_toy(self):
        rng = np.random.default_rng(2)
        words = [f"w{i}" for i in range(12)]
        vocab = Vocabulary({w: 5 for w in words}, min_count=1)
        units = [
            [words[rng.integers(12)] for _ in range(rng.integers(4, 12))]
            for _ in range(120)
        ]
        return vocab, count_streams(units, vocab, window=5)

    def test_loss_strictly_decreases(self):
        vocab, cooc = self.build_toy()
        config = EmbeddingConfig(dim=8, epochs=5, seed=4)
        model = glove_train(cooc, vocab.words, config)
        history = model.loss_history
        assert len(history) == 6
        assert all(history[i] > history[i + 1] for i in range(5))

    def test_zero_epochs_returns_initialized_model(self):
        vocab, cooc = self.build_toy()
        config = EmbeddingConfig(dim=8, epochs=0, seed=4)
        trained = glove_train(cooc, vocab.words, config)
        fresh = EmbeddingModel.initialize(vocab.words, config)
        assert np.array_equal(trained.w_main, fresh.w_main)
        assert np.array_equal(trained.w_context, fresh.w_context)
        assert np.array_equal(trained.b_main, fresh.b_main)
        assert np.array_equal(trained.b_context, fresh.b_context)

    def test_same_seed_is_bit_reproducible(self):
        vocab, cooc = self.build_toy()
        config = EmbeddingConfig(dim=8, epochs=3, seed=4)
        one = glove_train(cooc, vocab.words, config)
        two = glove_train(cooc, vocab.words, config)
        assert np.array_equal(one.w_main, two.w_main)
        assert np.array_equal(one.w_context, two.w_context)
        assert np.array_equal(one.b_main, two.b_main)
        assert np.array_equal(one.b_context, two.b_context)

    def test_all_parameters_finite_after_training(self):
        vocab, cooc = self.build_toy()
        model = glove_train(cooc, vocab.words, EmbeddingConfig(dim=8, epochs=3, seed=4))
        for block in (model.w_main, model.w_context, model.b_main, model.b_context):
            assert np.isfinite(block).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        vocab, cooc = self.build_toy()
        config = EmbeddingConfig(dim=8, epochs=5, seed=4, learning_rate=1e200)
        with pytest.raises(TrainingDivergedError, match="learning rate"):
            glove_train(cooc, vocab.words, config)


def reference_sgd_pass(model, acc_w, acc_wc, acc_b, acc_bc, rows, cols, fx, logx, order, lr,
                       scales=None):
    """The per-cell AdaGrad loop the batched pass replaced: one update per
    cell, in ``order``.

    ``scales``, if given, holds one array per block of ``model`` and per
    accumulator, in that order, each starting as the absolute values of its
    block. Every update adds there the magnitude its term would have if no
    sum behind it cancelled, so a scale bounds the rounding error of its
    element even where the value itself cancels to almost nothing.
    """
    w, wc = model.w_main, model.w_context
    b, bc = model.b_main, model.b_context
    for p in order:
        i = rows[p]
        j = cols[p]
        wi = w[i]
        wj = wc[j]
        diff = float(wi @ wj) + b[i] + bc[j] - logx[p]
        g = 2.0 * fx[p] * diff
        gw = g * wj
        gwc = g * wi
        if scales is not None:
            # the gradients as if no term of the residual cancelled
            s_w, s_wc, s_b, s_bc, s_acc_w, s_acc_wc, s_acc_b, s_acc_bc = scales
            g_max = 2.0 * fx[p] * (float(s_w[i] @ s_wc[j]) + s_b[i] + s_bc[j] + abs(logx[p]))
            gw_max, gwc_max = g_max * s_wc[j], g_max * s_w[i]
        acc_w[i] += gw * gw
        acc_wc[j] += gwc * gwc
        w[i] = wi - lr * gw / np.sqrt(acc_w[i])
        wc[j] = wj - lr * gwc / np.sqrt(acc_wc[j])
        acc_b[i] += g * g
        acc_bc[j] += g * g
        b[i] -= lr * g / np.sqrt(acc_b[i])
        bc[j] -= lr * g / np.sqrt(acc_bc[j])
        if scales is not None:
            s_w[i] += lr * gw_max / np.sqrt(acc_w[i])
            s_wc[j] += lr * gwc_max / np.sqrt(acc_wc[j])
            s_b[i] += lr * g_max / np.sqrt(acc_b[i])
            s_bc[j] += lr * g_max / np.sqrt(acc_bc[j])
            s_acc_w[i] += gw_max * gw_max
            s_acc_wc[j] += gwc_max * gwc_max
            s_acc_b[i] += g_max * g_max
            s_acc_bc[j] += g_max * g_max


@st.composite
def cell_sets(draw):
    """COO cells over V in 1..40 words: any cells, self cells only, one
    row or one column; words outside every cell are common."""
    n_words = draw(st.integers(1, 40))
    word = st.integers(0, n_words - 1)
    shape = draw(st.sampled_from(["any", "self", "row", "column"]))
    if shape == "self":
        pairs = st.builds(lambda i: (i, i), word)
    elif shape == "row":
        row = draw(word)
        pairs = st.builds(lambda j: (row, j), word)
    elif shape == "column":
        column = draw(word)
        pairs = st.builds(lambda i: (i, column), word)
    else:
        pairs = st.tuples(word, word)
    keys = draw(st.sets(pairs, max_size=200))
    weights = draw(st.lists(st.floats(0.05, 300.0), min_size=len(keys), max_size=len(keys)))
    return n_words, coo(dict(zip(sorted(keys), weights)))


class TestConflictFreeBatches:
    @settings(max_examples=200, deadline=None)
    @given(cell_sets(), st.integers(0, 2**32))
    def test_batches_partition_cells_without_repeats(self, cells_of, seed):
        n_words, cooc = cells_of
        batches = embedding._conflict_free_batches(
            cooc.rows, cooc.cols, n_words, np.random.default_rng(seed))
        assert all(len(batch) > 0 for batch in batches)
        flat = np.concatenate([np.empty(0, dtype=np.intp), *batches])
        assert sorted(flat.tolist()) == list(range(len(cooc)))
        for batch in batches:
            assert len(set(cooc.rows[batch].tolist())) == len(batch)
            assert len(set(cooc.cols[batch].tolist())) == len(batch)

    @settings(max_examples=200, deadline=None)
    @given(cell_sets(), st.integers(1, 8), st.integers(0, 2**32))
    def test_batched_pass_equals_the_per_cell_loop(self, cells_of, dim, seed):
        n_words, cooc = cells_of
        rng = np.random.default_rng(seed)
        config = EmbeddingConfig(dim=dim, epochs=1, seed=0)
        model = EmbeddingModel(
            [f"w{i}" for i in range(n_words)], rng.normal(size=(n_words, dim)),
            rng.normal(size=(n_words, dim)), rng.normal(size=n_words),
            rng.normal(size=n_words), config)
        acc = [1.0 + rng.random(block.shape) for block in model.blocks()]
        fx = embedding._loss_weights(cooc.vals, config.x_max, config.alpha)
        logx = np.log(cooc.vals)
        batches = embedding._conflict_free_batches(cooc.rows, cooc.cols, n_words, rng)
        reference = EmbeddingModel(list(model.words), *(b.copy() for b in model.blocks()),
                                   config)
        reference_acc = [a.copy() for a in acc]
        scales = [np.abs(block) for block in [*model.blocks(), *acc]]
        embedding._sgd_pass(model, *acc, cooc.rows, cooc.cols, fx, logx, batches, 0.05)
        reference_sgd_pass(reference, *reference_acc, cooc.rows, cooc.cols, fx, logx,
                           np.concatenate([np.empty(0, dtype=np.intp), *batches]), 0.05,
                           scales)
        # the two differ only in the summation order of the dot products, so
        # each element is bounded relative to the magnitudes summed into it,
        # not to its own value, which may cancel to almost nothing
        for got, expected, scale in zip([*model.blocks(), *acc],
                                        [*reference.blocks(), *reference_acc], scales):
            excess = np.abs(got - expected) - 1e-12 * scale
            assert (excess <= 0).all(), f"off by {excess.max():.3g} beyond the bound"


class TestConfigRefusals:
    @pytest.mark.parametrize("data, message", [
        ({"embedding": {"dim": 32.0}}, "embedding.dim must be an integer, got 32.0"),
        ({"embedding": {"window": True}}, "embedding.window must be an integer, got True"),
        ({"embedding": {"epochs": "6"}}, "embedding.epochs must be an integer, got '6'"),
        ({"embedding": {"seed": -1}}, "embedding.seed must be >= 0, got -1"),
        ({"embedding": {"dim": 0}}, "embedding.dim must be >= 1, got 0"),
        ({"embedding": {"x_max": math.nan}}, "embedding.x_max must be a finite number, got nan"),
        ({"embedding": {"x_max": 10**400}}, "embedding.x_max must be a finite number"),
        ({"embedding": {"learning_rate": math.inf}},
         "embedding.learning_rate must be a finite number, got inf"),
        ({"embedding": {"learning_rate": 0}}, "embedding.learning_rate must be > 0, got 0"),
        ({"embedding": {"alpha": -1}}, "embedding.alpha must be >= 0, got -1"),
        ({"embedding": {"alpha": "0.75"}}, "embedding.alpha must be a finite number, got '0.75'"),
        ({"min_count": "5"}, "min_count must be an integer, got '5'"),
        ({"min_count": 0}, "min_count must be >= 1, got 0"),
        ({"k": 2.5}, "k must be an integer, got 2.5"),
        ({"seeds": {"f2": False}}, "seeds.f2 must be an integer, got False"),
        ({"seeds": {"n1": 0}}, "seeds.n1 must be >= 1, got 0"),
        ({"shuffle_sheet": 1.0}, "shuffle_sheet must be an integer, got 1.0"),
        ({"shuffle_sheet": -3}, "shuffle_sheet must be >= 0, got -3"),
    ])
    def test_wrong_value_is_refused_naming_the_key(self, data, message):
        with pytest.raises(ValueError) as info:
            PipelineConfig.from_dict(data)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("data", [
        {"embedding": {"x_max": 10, "alpha": 0, "learning_rate": 1}},
        {"embedding": {"alpha": 0.0, "seed": 0, "epochs": 0}},
        {"shuffle_sheet": 0, "k": 0},
    ])
    def test_edge_values_are_accepted(self, data):
        PipelineConfig.from_dict(data)


class TestWordVector:
    def test_known_word_has_finite_vector_of_length_d(self):
        model = tiny_model(["a", "b"], dim=6)
        vec = WordVectors(model.words, model.w_main + model.w_context).vector("a")
        assert vec.shape == (6,)
        assert np.isfinite(vec).all()

    def test_unknown_word_is_absent(self):
        model = tiny_model(["a"], dim=2)
        assert WordVectors(model.words, model.w_main + model.w_context).vector("zzz") is None

    def test_repeated_word_is_refused(self):
        with pytest.raises(ValueError, match="repeated word 'a'"):
            WordVectors(["a", "b", "a"], np.eye(3))

    @pytest.mark.parametrize("shape", [(1, 0), (2, 2), (1,)])
    def test_matrix_must_have_one_row_per_word_and_a_column(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"a {shape} matrix does not fit 1 words")):
            WordVectors(["a"], np.zeros(shape))


class TestNearestNeighbors:
    def random_vectors(self, n=200, dim=16, seed=13):
        rng = np.random.default_rng(seed)
        words = [f"w{i:03d}" for i in range(n)]
        return WordVectors(words, rng.normal(size=(n, dim)))

    def brute_force(self, vectors, word, k):
        query = vectors.vector(word)
        scored = []
        for candidate in vectors.words:
            if candidate == word:
                continue
            sim = float(
                np.dot(query, vectors.vector(candidate))
                / (np.linalg.norm(query) * np.linalg.norm(vectors.vector(candidate)))
            )
            scored.append((-sim, candidate))
        scored.sort()
        return [(w, -negsim) for negsim, w in scored[:k]]

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_matches_brute_force_scan(self, k):
        vectors = self.random_vectors()
        for word in ["w000", "w017", "w199"]:
            got = nearest_neighbors(vectors, word, k)
            expected = self.brute_force(vectors, word, k)
            assert [w for w, _ in got] == [w for w, _ in expected]
            for (_, sim_got), (_, sim_exp) in zip(got, expected):
                assert sim_got == pytest.approx(sim_exp, abs=1e-12)

    def test_exhaustive_k_returns_everything_sorted(self):
        vectors = self.random_vectors(n=12, dim=4)
        result = nearest_neighbors(vectors, "w000", k=11)
        assert len(result) == 11
        assert "w000" not in [w for w, _ in result]
        sims = [s for _, s in result]
        assert sims == sorted(sims, reverse=True)

    def test_duplicate_vectors_tie_break_lexicographically(self):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        vectors = WordVectors(["q", "zeta", "echo", "mike"], matrix)
        result = nearest_neighbors(vectors, "zeta", k=3)
        assert [w for w, _ in result][:2] == ["echo", "mike"]

    def test_query_never_in_result(self):
        vectors = self.random_vectors(n=30)
        assert all(w != "w005" for w, _ in nearest_neighbors(vectors, "w005", 29))

    def test_unknown_word_error_names_the_word(self):
        with pytest.raises(ValueError, match="zzz"):
            nearest_neighbors(self.random_vectors(n=5), "zzz", 3)

    def test_k_zero_is_empty(self):
        assert nearest_neighbors(self.random_vectors(n=5), "w000", 0) == []


class TestDumpRoundTrip:
    def test_save_load_preserves_vectors_exactly(self, tmp_path):
        vectors = TestNearestNeighbors().random_vectors(n=20, dim=8)
        path = tmp_path / "emb.txt"
        vectors.save(path)
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        assert header == "20 8"
        # the export has no reader in the library: float() reads each value back
        assert [line.split()[0] for line in lines] == vectors.words
        loaded = np.array([[float(v) for v in line.split()[1:]] for line in lines])
        assert np.array_equal(loaded.view(np.uint64), vectors.matrix.view(np.uint64))

    def test_saving_twice_is_byte_identical(self, tmp_path):
        vectors = TestNearestNeighbors().random_vectors(n=6, dim=3)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        vectors.save(a)
        vectors.save(b)
        assert a.read_bytes() == b.read_bytes()


# words the text dump can hold: no whitespace, which separates its fields
dump_words = st.text(
    st.one_of(st.sampled_from([",", "\x00", "\U0001d11e", '"']),
              st.characters(blacklist_categories=("Cs",)).filter(lambda c: not c.isspace())),
    min_size=1, max_size=6,
)


def reference_save(vectors, path):
    """The row-wise writer ``WordVectors.save`` replaced: one ``repr`` per
    value."""
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.write(f"{len(vectors.words)} {vectors.dim}\n")
        for word, row in zip(vectors.words, vectors.matrix):
            out.write(word + " " + " ".join(map(repr, row.tolist())) + "\n")


# any float64 bit pattern, so NaN of either sign and any payload, and the
# values where orjson's notation and repr's part
dump_values = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, -math.nan,
                     1e-4, -1e-4, math.nextafter(1e-4, 0), math.nextafter(1e-4, 1),
                     1e16, -1e16, math.nextafter(1e16, 0), math.nextafter(1e16, math.inf),
                     1e-5, 9.99e-5, 1e15, 1e-300, 1e300]),
)


class TestDumpBytes:
    """``WordVectors.save`` against the per-value ``repr`` writer."""

    def assert_same_bytes(self, directory, vectors):
        vectors.save(directory / "embedding.txt")
        reference_save(vectors, directory / "reference.txt")
        assert ((directory / "embedding.txt").read_bytes()
                == (directory / "reference.txt").read_bytes())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(dump_words, max_size=5, unique=True), st.integers(1, 4),
           st.sampled_from(["C", "F", "strided"]), st.data())
    def test_same_bytes_as_repr(self, tmp_path_factory, words, dim, layout, data):
        values = data.draw(st.lists(dump_values, min_size=len(words) * dim,
                                    max_size=len(words) * dim))
        matrix = np.array(values, dtype=np.float64).reshape(len(words), dim)
        if layout == "F":
            matrix = np.asfortranarray(matrix)
        elif layout == "strided":
            wide = np.zeros((len(words), 2 * dim))
            wide[:, ::2] = matrix
            matrix = wide[:, ::2]
        with np.errstate(over="ignore", invalid="ignore"):
            vectors = WordVectors(words, matrix)
        if layout == "strided" and len(words) > 1:
            assert not vectors.matrix.flags.c_contiguous
        self.assert_same_bytes(tmp_path_factory.mktemp("emb"), vectors)

    def test_rows_over_several_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        dim = 7  # does not divide a block, so blocks end at odd row counts
        rows_per_block = embedding._DUMP_BLOCK // (8 * dim)
        n = 3 * rows_per_block + 2
        magnitudes = 10.0 ** rng.uniform(-20, 20, size=(n, dim))
        matrix = rng.choice([-1.0, 1.0], size=(n, dim)) * magnitudes
        matrix[rng.random((n, dim)) < 0.05] = math.nan
        assert matrix.nbytes >= 64 << 10
        self.assert_same_bytes(tmp_path, WordVectors([f"w{i}" for i in range(n)], matrix))

    def test_no_rows(self, tmp_path):
        self.assert_same_bytes(tmp_path, WordVectors([], np.empty((0, 3))))
        assert (tmp_path / "embedding.txt").read_bytes() == b"0 3\n"


#: values whose text each writer of the dump treats apart
DUMP_SPECIALS = [math.nan, -math.nan, math.inf, -math.inf, 5e-324, -1e-300, 1e300, 0.0, -0.0,
                 1e16, 9.99e-5]


#: saves a seeded matrix of 4 x ``_DUMP_PARALLEL_MIN`` values to argv[1],
#: on one CPU if argv[2] is "one", and prints the number of row ranges
SAVE_DUMP = """\
import os, sys
if sys.argv[2] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from arousalkit import embedding
from arousalkit.parallel import split
dim = 100
rows = 4 * embedding._DUMP_PARALLEL_MIN // dim
matrix = np.random.default_rng(7).normal(size=(rows, dim))
embedding.WordVectors([f"w{i}" for i in range(rows)], matrix).save(sys.argv[1])
print(len(split(rows, matrix.size, embedding._DUMP_PARALLEL_MIN)))
"""


class TestForkedDump:
    """``WordVectors.save`` over several row ranges, each one after the
    first formatted by a forked child."""

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="fewer than 2 usable CPUs: the dump is one row range")
    def test_one_cpu_and_every_cpu_write_the_same_bytes(self, tmp_path):
        ranges = {}
        # Python 3.12 warns on a fork in a process with threads; save must
        # keep that warning from the caller even where it is an error
        strict = ["-X", "dev", "-W", "error::DeprecationWarning"]
        for cpus, flags in (("one", []), ("all", strict)):
            result = subprocess.run(
                [sys.executable, *flags, "-c", SAVE_DUMP, str(tmp_path / cpus), cpus],
                capture_output=True, text=True, env=subprocess_env(), timeout=300)
            assert result.returncode == 0, result.stderr
            ranges[cpus] = int(result.stdout)
        assert ranges["one"] == 1
        assert ranges["all"] >= 2
        assert (tmp_path / "one").read_bytes() == (tmp_path / "all").read_bytes()

    @staticmethod
    def split(monkeypatch, cpus, per_range=1):
        monkeypatch.setattr(embedding, "_DUMP_PARALLEL_MIN", per_range)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    @staticmethod
    def count_forks(monkeypatch):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 1000])
    def test_same_bytes_as_repr(self, tmp_path, monkeypatch, cpus, n):
        self.split(monkeypatch, cpus)
        forks = self.count_forks(monkeypatch)
        rng = np.random.default_rng(n)
        values = rng.normal(size=3 * n) * 10.0 ** rng.integers(-8, 8, size=3 * n)
        k = min(len(values), len(DUMP_SPECIALS))
        values[rng.choice(len(values), size=k, replace=False)] = DUMP_SPECIALS[:k]
        with np.errstate(over="ignore"):
            vectors = WordVectors([f"w{i}" for i in range(n)], values.reshape(n, 3))
        TestDumpBytes().assert_same_bytes(tmp_path, vectors)
        assert len(forks) == max(min(cpus, n), 1) - 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["embedding.txt", "reference.txt"]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(dump_words, max_size=7, unique=True), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 8), st.data())
    def test_any_split_gives_the_same_bytes(self, tmp_path_factory, words, dim, cpus,
                                            per_range, data):
        values = data.draw(st.lists(dump_values, min_size=len(words) * dim,
                                    max_size=len(words) * dim))
        with np.errstate(over="ignore", invalid="ignore"):
            vectors = WordVectors(words, np.array(values, dtype=np.float64).reshape(-1, dim))
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.split(monkeypatch, cpus, per_range)
            TestDumpBytes().assert_same_bytes(tmp_path_factory.mktemp("emb"), vectors)

    @pytest.mark.parametrize("failure, ended", [
        ("child raises", "exit code 1"),
        ("child killed", f"signal {signal.SIGKILL.value}"),
        ("parent interrupted", None),
    ])
    def test_failure_leaves_the_old_file_and_no_process(self, tmp_path, monkeypatch, capfd,
                                                        failure, ended):
        self.split(monkeypatch, 2)
        parent, dump_rows = os.getpid(), embedding._dump_rows

        def failing(words, block):
            if failure == "parent interrupted":
                if os.getpid() == parent:
                    raise KeyboardInterrupt
                time.sleep(60)  # until save kills it
            if failure == "child raises" and os.getpid() != parent:
                raise MemoryError("the range could not be held")
            if failure == "child killed" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return dump_rows(words, block)

        monkeypatch.setattr(embedding, "_dump_rows", failing)
        path = tmp_path / "embedding.txt"
        path.write_bytes(b"before")
        vectors = WordVectors(["a", "b", "c", "d"], np.ones((4, 2)))
        if ended is None:
            raised, pattern = KeyboardInterrupt, None
        else:
            message = f"{path}: the process writing rows 2 to 3 ended with {ended}"
            raised, pattern = RuntimeError, f"^{re.escape(message)}$"
        start = time.perf_counter()
        try:
            with pytest.raises(raised, match=pattern):
                vectors.save(path)
        finally:
            if os.getpid() != parent:  # a child unwound out of save
                os._exit(99)
        assert time.perf_counter() - start < 30
        err = capfd.readouterr().err
        if failure == "child raises":  # the child's traceback, once
            assert err.startswith("Traceback (most recent call last):\n")
            assert err.endswith("\nMemoryError: the range could not be held\n")
            assert err.count("Traceback") == 1
        else:
            assert err == ""
        assert path.read_bytes() == b"before"
        assert [p.name for p in tmp_path.iterdir()] == ["embedding.txt"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("case", ["below the threshold", "one CPU", "no affinity call"])
    def test_one_range_never_forks(self, tmp_path, monkeypatch, case):
        self.split(monkeypatch, 1 if case == "one CPU" else 4, per_range=100)
        if case == "no affinity call":
            monkeypatch.delattr(os, "sched_getaffinity")
        forks = self.count_forks(monkeypatch)
        rows = 199 if case == "below the threshold" else 1000
        TestDumpBytes().assert_same_bytes(
            tmp_path, WordVectors([f"w{i}" for i in range(rows)], np.ones((rows, 1))))
        assert forks == []

    def test_ranges_at_the_default_threshold(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert split(176, 176 * 32, embedding._DUMP_PARALLEL_MIN) == [(0, 176)]
        assert split(10, 2 * embedding._DUMP_PARALLEL_MIN,
                     embedding._DUMP_PARALLEL_MIN) == [(0, 5), (5, 10)]


class TestBinaryRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(dump_words, max_size=5, unique=True), st.integers(1, 4), st.data())
    def test_round_trip_is_bit_equal_to_the_text_dump(self, tmp_path_factory, words, dim, data):
        values = data.draw(st.lists(st.one_of(st.floats(), st.sampled_from(
            [-0.0, 5e-324, -2.2e-308, math.inf, -math.inf, math.nan])),
            min_size=len(words) * dim, max_size=len(words) * dim))
        matrix = np.array(values, dtype=np.float64).reshape(len(words), dim)
        matrix[np.isnan(matrix)] = np.nan  # the text dump keeps no NaN sign or payload
        directory = tmp_path_factory.mktemp("emb")
        with np.errstate(over="ignore", invalid="ignore"):
            vectors = WordVectors(words, matrix)
            vectors.save(directory / "embedding.txt")
            vectors.save_binary(directory / "embedding.bin")
            binary = WordVectors.load_binary(directory / "embedding.bin")
            binary.save(directory / "reloaded.txt")
        assert binary.words == words
        assert binary.matrix.shape == (len(words), dim)
        assert np.array_equal(binary.matrix.view(np.uint64), matrix.view(np.uint64))
        assert ((directory / "reloaded.txt").read_bytes()
                == (directory / "embedding.txt").read_bytes())

    def test_saving_twice_is_byte_identical(self, tmp_path):
        vectors = TestNearestNeighbors().random_vectors(n=6, dim=3)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        vectors.save_binary(a)
        WordVectors(list(vectors.words), vectors.matrix.copy()).save_binary(b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("cut", [1, 10, 100, -1])
    def test_truncated_file_names_the_path(self, tmp_path, cut):
        path = tmp_path / "embedding.bin"
        TestNearestNeighbors().random_vectors(n=6, dim=3).save_binary(path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(CorpusFormatError, match="embedding.bin"):
            WordVectors.load_binary(path)

    def test_trailing_bytes_are_refused(self, tmp_path):
        path = tmp_path / "embedding.bin"
        TestNearestNeighbors().random_vectors(n=6, dim=3).save_binary(path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(CorpusFormatError, match="embedding.bin.*trailing"):
            WordVectors.load_binary(path)

    def test_foreign_npy_is_refused(self, tmp_path):
        path = tmp_path / "embedding.bin"
        with path.open("wb") as out:
            np.save(out, np.eye(3))
        with pytest.raises(CorpusFormatError, match="embedding.bin.*format tag"):
            WordVectors.load_binary(path)

    def test_token_store_is_not_an_embedding(self, tmp_path):
        path = tmp_path / "embedding.bin"
        corpus_store([{"id": "X-1", "priority": "Major", "title": "a b"}]).save(path)
        with pytest.raises(CorpusFormatError, match="embedding.bin.*format tag"):
            WordVectors.load_binary(path)

    def test_wrong_dtype_is_refused(self, tmp_path):
        path = tmp_path / "embedding.bin"
        vectors = WordVectors(["a", "b"], np.eye(2))
        vectors.matrix = vectors.matrix.astype(np.float32)
        vectors.save_binary(path)
        with pytest.raises(CorpusFormatError, match="embedding.bin.*record shape or type"):
            WordVectors.load_binary(path)

    def test_repeated_word_is_refused(self, tmp_path):
        path = tmp_path / "embedding.bin"
        vectors = WordVectors(["a", "b", "c"], np.eye(3))
        vectors.words = ["a", "b", "a"]
        vectors.save_binary(path)
        with pytest.raises(CorpusFormatError, match="embedding.bin.*repeated word 'a'"):
            WordVectors.load_binary(path)

    def test_row_count_must_match_the_words(self, tmp_path):
        path = tmp_path / "embedding.bin"
        vectors = WordVectors(["a", "b"], np.eye(2))
        vectors.words = ["a"]
        vectors.save_binary(path)
        with pytest.raises(CorpusFormatError, match="embedding.bin.*does not fit 1 words"):
            WordVectors.load_binary(path)


class TestBatchedNeighbors:
    """nearest_neighbors_batch against a per-query brute-force scan."""

    def vectors(self):
        rng = np.random.default_rng(29)
        matrix = rng.normal(size=(40, 5))
        matrix[[7, 21, 33]] = matrix[3]  # w32, w18 and w06 duplicate w36
        matrix[[11, 12]] = 0.0  # w28 and w27 are never returned
        matrix[30] = -matrix[3]
        # row order is the reverse of word order, so ties cannot fall back on rows
        return WordVectors([f"w{39 - i:02d}" for i in range(40)], matrix)

    def brute_force(self, vectors, word, k):
        query = vectors.vector(word)
        qn = math.sqrt(float(np.dot(query, query)))
        scored = []
        for other in vectors.words:
            vec = vectors.vector(other)
            if other == word or not vec.any():
                continue
            sim = float(np.dot(query, vec)) / (qn * math.sqrt(float(np.dot(vec, vec))))
            scored.append((-sim, other))
        scored.sort()
        return [w for _, w in scored[:k]]

    @pytest.mark.parametrize("k", [0, 1, 3, 10, 37, 39, 40, 100])
    @pytest.mark.parametrize("per_block", [1, 3, 64])
    def test_matches_brute_force(self, monkeypatch, k, per_block):
        vectors = self.vectors()
        monkeypatch.setattr(embedding, "_KNN_BLOCK", 8 * 40 * per_block)
        queries = ["w36", "w00", "w32", "w09", "w39", "w18", "w36", "w15", "w06", "w10"]
        got = nearest_neighbors_batch(vectors, queries, k)
        assert len(got) == len(queries)
        for word, neighbors in zip(queries, got):
            assert [w for w, _ in neighbors] == self.brute_force(vectors, word, k), (word, k)
            single = nearest_neighbors(vectors, word, k)
            assert [w for w, _ in neighbors] == [w for w, _ in single]
            assert [s for _, s in neighbors] == pytest.approx([s for _, s in single], abs=1e-12)

    def test_duplicates_tie_at_the_kth_place(self):
        vectors = self.vectors()
        # w32, w18 and w06 all have similarity 1 to w36; only two fit
        assert [w for w, _ in nearest_neighbors_batch(vectors, ["w36"], 2)[0]] == ["w06", "w18"]

    def test_no_queries_give_no_results(self):
        assert nearest_neighbors_batch(self.vectors(), [], 5) == []

    def test_zero_or_unknown_query_is_an_error(self):
        with pytest.raises(ValueError, match="'w28' has a zero vector"):
            nearest_neighbors_batch(self.vectors(), ["w00", "w28"], 3)
        with pytest.raises(ValueError, match="zzz"):
            nearest_neighbors_batch(self.vectors(), ["w00", "zzz"], 3)


class TestPlantedSimilarity:
    def build(self):
        # "asap" and "soon" fill the same slot in otherwise identical
        # contexts, so their vectors should end up close
        rng = np.random.default_rng(21)
        fillers = [f"f{i}" for i in range(20)]
        units = []
        for n in range(300):
            context = [fillers[rng.integers(20)] for _ in range(3)]
            target = "asap" if n % 2 == 0 else "soon"
            units.append(["please", "fix", context[0], target, context[1], "thanks", context[2]])
        words = sorted({w for unit in units for w in unit})
        vocab = Vocabulary({w: 50 for w in words}, min_count=1)
        cooc = count_streams(units, vocab, window=5)
        model = glove_train(cooc, vocab.words, EmbeddingConfig(dim=12, epochs=12, seed=5))
        return model

    def test_interchangeable_words_become_neighbors(self):
        model = self.build()
        vectors = WordVectors(model.words, model.w_main + model.w_context)
        neighbors = [w for w, _ in nearest_neighbors(vectors, "asap", 10)]
        assert "soon" in neighbors

    def test_expansion_discovers_the_planted_neighbor(self):
        from arousalkit.lexicon import CandidateSet, Seed, SeedSet, expand_embedding

        model = self.build()
        seeds = SeedSet()
        seeds.add(Seed("asap", "high", "brainstorm", 150))
        candidates = CandidateSet.from_seeds(seeds)
        vectors = WordVectors(model.words, model.w_main + model.w_context)
        expand_embedding(candidates, seeds, vectors, k=10)
        assert "soon" in candidates
        kind, seed, similarity = {c.word: c for c in candidates}["soon"].provenance.split(":")
        assert (kind, seed) == ("embedding", "asap")
        assert 0.0 < float(similarity) <= 1.0


def wide_config(tmp_path, n_words, dim, epochs):
    """An ingested work directory whose vocabulary is ``n_words`` distinct
    words, each once, and a config that trains them at ``dim``."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    words = ["".join(t) for t in itertools.islice(itertools.product(letters, repeat=3), n_words)]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": str(i), "title": " ".join(words[i:i + 20])}) + "\n"
                              for i in range(0, n_words, 20)), encoding="utf-8")
    config = PipelineConfig.from_dict({
        "corpus": str(corpus), "work_dir": str(tmp_path / "work"), "min_count": 1,
        "embedding": {"dim": dim, "window": 2, "epochs": epochs, "seed": 5}})
    run_ingest(config)
    return config


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of the allocations made by ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrainMemory:
    """``train`` holds the two parameter blocks W and W~ and no other V x d
    array; numpy reports its buffers to tracemalloc."""

    def test_zero_epoch_peak_is_two_blocks(self, tmp_path, monkeypatch):
        config = wide_config(tmp_path, n_words=8000, dim=256, epochs=0)
        # the per-call gathers of the loss and of the norms are bounded by
        # these constants, not by V x d; smaller bounds leave the blocks in view
        monkeypatch.setattr(embedding, "_LOSS_GATHER", 1 << 16)
        monkeypatch.setattr(embedding, "_NORM_BLOCK", 1 << 16)
        block = 8000 * 256 * 8
        assert traced_peak(run_train, config) <= 2.3 * block

    def test_word_vectors_take_norms_in_row_blocks(self):
        matrix = np.random.default_rng(4).standard_normal((4000, 300))
        words = [f"w{i}" for i in range(len(matrix))]
        assert traced_peak(WordVectors, words, matrix) < matrix.nbytes / 4

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.data())
    def test_blocked_norms_are_the_bits_of_one_call(self, per_block, dim, data):
        # no rows, then below, at and above one and several blocks
        n_rows = data.draw(st.integers(0, 3 * per_block + 1))
        matrix = data.draw(hnp.arrays(np.float64, (n_rows, dim), elements=st.floats(width=64)))
        with mock.patch.object(embedding, "_NORM_BLOCK", 8 * dim * per_block), \
                np.errstate(over="ignore", invalid="ignore"):
            assert embedding._row_norms(matrix).tobytes() == \
                np.linalg.norm(matrix, axis=1).tobytes()

    def test_zero_epoch_embedding_is_the_initial_sum(self, tmp_path):
        config = wide_config(tmp_path, n_words=300, dim=16, epochs=0)
        run_train(config)
        loaded = WordVectors.load_binary(tmp_path / "work" / "embedding.bin")
        words = loaded.words
        fresh = EmbeddingModel.initialize(words, EmbeddingConfig(dim=16, epochs=0, seed=5))
        expected = fresh.w_main + fresh.w_context
        assert loaded.matrix.tobytes() == expected.tobytes()
        WordVectors(words, expected).save(tmp_path / "expected.txt")
        assert (tmp_path / "work" / "embedding.txt").read_bytes() == \
            (tmp_path / "expected.txt").read_bytes()
