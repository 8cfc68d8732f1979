"""Word embeddings trained on the issue corpus plus cosine neighbor queries.

The vector space is fit to log co-occurrence counts by weighted least
squares (global-vectors objective):

    J = sum over nonzero cells (i, j) of
        f(X_ij) * (w_i . w~_j + b_i + b~_j - ln X_ij)^2

with f(x) = (x / x_max)^alpha for x < x_max, else 1. Training runs AdaGrad
over the shuffled nonzero cells; a fixed seed is bit-reproducible. The
output vector of a word is the sum of its main and context rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from .artifacts import atomic_open
from .corpus import CorpusFormatError, Vocabulary

logger = logging.getLogger(__name__)


class TrainingDivergedError(Exception):
    pass


@dataclass
class EmbeddingConfig:
    dim: int = 300
    window: int = 10
    x_max: float = 100.0
    alpha: float = 0.75
    learning_rate: float = 0.05
    epochs: int = 15
    seed: int = 42

    def validate(self) -> None:
        if self.dim < 1 or self.window < 1 or self.epochs < 0:
            raise ValueError("dim and window must be >= 1 and epochs >= 0")
        if self.x_max <= 0 or self.learning_rate <= 0:
            raise ValueError("x_max and learning_rate must be positive")


class CoocMatrix:
    """Sparse symmetric co-occurrence weights keyed by (word id, word id)."""

    def __init__(self, n_words: int, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.n_words = n_words
        self.window = window
        self._weights: dict[tuple[int, int], float] = {}

    def add_pair(self, i: int, j: int, weight: float) -> None:
        """Accumulate weight on both (i, j) and (j, i)."""
        self._weights[(i, j)] = self._weights.get((i, j), 0.0) + weight
        self._weights[(j, i)] = self._weights.get((j, i), 0.0) + weight

    def weight(self, i: int, j: int) -> float:
        return self._weights.get((i, j), 0.0)

    def __len__(self) -> int:
        return len(self._weights)

    def total_mass(self) -> float:
        return sum(self._weights.values())

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero cells as (I, J, X) arrays sorted by (i, j).

        Sorting makes downstream training independent of the order in
        which units were counted.
        """
        keys = sorted(self._weights)
        rows = np.array([k[0] for k in keys], dtype=np.int64)
        cols = np.array([k[1] for k in keys], dtype=np.int64)
        vals = np.array([self._weights[k] for k in keys], dtype=np.float64)
        return rows, cols, vals


def count_cooccurrences(
    unit_streams: Iterable[list[str]], vocab: Vocabulary, window: int
) -> CoocMatrix:
    """Harmonically weighted symmetric counts within each token stream.

    Every ordered pair at distance d <= window adds 1/d to both matrix
    cells. Out-of-vocabulary tokens are skipped but still occupy their
    positions; no pair spans two streams.
    """
    cooc = CoocMatrix(len(vocab), window)
    for stream in unit_streams:
        ids = [vocab.id(tok) if tok in vocab else -1 for tok in stream]
        n = len(ids)
        for t in range(n):
            i = ids[t]
            if i < 0:
                continue
            limit = min(t + window, n - 1)
            for t2 in range(t + 1, limit + 1):
                j = ids[t2]
                if j < 0:
                    continue
                cooc.add_pair(i, j, 1.0 / (t2 - t))
    return cooc


class EmbeddingModel:
    """Main/context vectors and biases over a fixed word list."""

    def __init__(
        self,
        words: list[str],
        w_main: np.ndarray,
        w_context: np.ndarray,
        b_main: np.ndarray,
        b_context: np.ndarray,
        config: EmbeddingConfig,
        loss_history: Optional[list[float]] = None,
    ):
        n, d = w_main.shape
        if len(words) != n or w_context.shape != (n, d):
            raise ValueError("parameter blocks disagree on vocabulary size")
        if b_main.shape != (n,) or b_context.shape != (n,):
            raise ValueError("bias blocks disagree on vocabulary size")
        self.words = words
        self.w_main = w_main
        self.w_context = w_context
        self.b_main = b_main
        self.b_context = b_context
        self.config = config
        self.loss_history = loss_history or []
        self._index = {w: i for i, w in enumerate(words)}

    @classmethod
    def initialize(cls, words: list[str], config: EmbeddingConfig) -> "EmbeddingModel":
        config.validate()
        rng = np.random.default_rng(config.seed)
        n, d = len(words), config.dim
        bound = 0.5 / d
        return cls(
            words,
            rng.uniform(-bound, bound, size=(n, d)),
            rng.uniform(-bound, bound, size=(n, d)),
            rng.uniform(-bound, bound, size=n),
            rng.uniform(-bound, bound, size=n),
            config,
        )

    @property
    def dim(self) -> int:
        return self.w_main.shape[1]

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def vector(self, word: str) -> Optional[np.ndarray]:
        """Combined (main + context) vector, or None for unknown words."""
        idx = self._index.get(word)
        if idx is None:
            return None
        return self.w_main[idx] + self.w_context[idx]

    def to_vectors(self) -> "WordVectors":
        return WordVectors(list(self.words), self.w_main + self.w_context)


def _loss_weights(x: np.ndarray, x_max: float, alpha: float) -> np.ndarray:
    return np.where(x < x_max, (x / x_max) ** alpha, 1.0)


def glove_loss(model: EmbeddingModel, cooc: CoocMatrix) -> float:
    """Exact objective over all stored co-occurrence cells."""
    if len(cooc) == 0:
        raise ValueError("co-occurrence matrix is empty")
    if cooc.n_words > len(model.words):
        raise ValueError("co-occurrence ids exceed model vocabulary")
    rows, cols, vals = cooc.entries()
    return _loss_on_entries(model, rows, cols, vals)


def _loss_on_entries(
    model: EmbeddingModel, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> float:
    fx = _loss_weights(vals, model.config.x_max, model.config.alpha)
    logx = np.log(vals)
    total = 0.0
    chunk = 1 << 18
    for lo in range(0, len(vals), chunk):
        hi = min(lo + chunk, len(vals))
        r, c = rows[lo:hi], cols[lo:hi]
        pred = (
            np.einsum("ij,ij->i", model.w_main[r], model.w_context[c])
            + model.b_main[r]
            + model.b_context[c]
        )
        diff = pred - logx[lo:hi]
        total += float(np.sum(fx[lo:hi] * diff * diff))
    return total


def loss_and_gradients(
    model: EmbeddingModel, cooc: CoocMatrix
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Full-batch loss and analytic gradients for every parameter block.

    Returns (loss, dW, dW~, db, db~); used by the finite-difference check
    and small-scale experiments, not by the per-cell AdaGrad loop.
    """
    rows, cols, vals = cooc.entries()
    fx = _loss_weights(vals, model.config.x_max, model.config.alpha)
    logx = np.log(vals)
    pred = (
        np.einsum("ij,ij->i", model.w_main[rows], model.w_context[cols])
        + model.b_main[rows]
        + model.b_context[cols]
    )
    diff = pred - logx
    loss = float(np.sum(fx * diff * diff))
    g = 2.0 * fx * diff
    d_w = np.zeros_like(model.w_main)
    d_wc = np.zeros_like(model.w_context)
    d_b = np.zeros_like(model.b_main)
    d_bc = np.zeros_like(model.b_context)
    np.add.at(d_w, rows, g[:, None] * model.w_context[cols])
    np.add.at(d_wc, cols, g[:, None] * model.w_main[rows])
    np.add.at(d_b, rows, g)
    np.add.at(d_bc, cols, g)
    return loss, d_w, d_wc, d_b, d_bc


def glove_train(
    cooc: CoocMatrix, words: list[str], config: EmbeddingConfig
) -> EmbeddingModel:
    """AdaGrad over shuffled nonzero cells for config.epochs passes."""
    config.validate()
    if len(cooc) == 0:
        raise ValueError("co-occurrence matrix is empty")
    model = EmbeddingModel.initialize(words, config)
    rows, cols, vals = cooc.entries()
    fx = _loss_weights(vals, config.x_max, config.alpha)
    logx = np.log(vals)
    rng = np.random.default_rng(config.seed)

    acc_w = np.ones_like(model.w_main)
    acc_wc = np.ones_like(model.w_context)
    acc_b = np.ones_like(model.b_main)
    acc_bc = np.ones_like(model.b_context)

    model.loss_history = [_loss_on_entries(model, rows, cols, vals)]
    for epoch in range(config.epochs):
        order = rng.permutation(len(vals))
        _sgd_pass(model, acc_w, acc_wc, acc_b, acc_bc, rows, cols, fx, logx, order,
                  config.learning_rate)
        loss = _loss_on_entries(model, rows, cols, vals)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss after epoch {epoch + 1}; "
                "the learning rate is probably too high"
            )
        model.loss_history.append(loss)
        logger.info("epoch %d/%d loss %.6f", epoch + 1, config.epochs, loss)
    return model


def _sgd_pass(model, acc_w, acc_wc, acc_b, acc_bc, rows, cols, fx, logx, order, lr):
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
        acc_w[i] += gw * gw
        acc_wc[j] += gwc * gwc
        w[i] = wi - lr * gw / np.sqrt(acc_w[i])
        wc[j] = wj - lr * gwc / np.sqrt(acc_wc[j])
        acc_b[i] += g * g
        acc_bc[j] += g * g
        b[i] -= lr * g / np.sqrt(acc_b[i])
        bc[j] -= lr * g / np.sqrt(acc_bc[j])


class WordVectors:
    """Dense word vectors for similarity queries, loadable from the text dump."""

    def __init__(self, words: list[str], matrix: np.ndarray):
        if matrix.shape[0] != len(words):
            raise ValueError("matrix row count does not match word list")
        self.words = words
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self._index = {w: i for i, w in enumerate(words)}
        self._norms = np.linalg.norm(self.matrix, axis=1)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __len__(self) -> int:
        return len(self.words)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def vector(self, word: str) -> Optional[np.ndarray]:
        idx = self._index.get(word)
        if idx is None:
            return None
        return self.matrix[idx]

    def save(self, path: str | Path) -> None:
        """Text dump: first line "|V| d", then one "word v1 ... vd" per word.

        Floats are written with shortest round-trip repr, so save/load and
        repeated runs are byte-identical.
        """
        with atomic_open(path) as out:
            out.write(f"{len(self.words)} {self.dim}\n")
            for word, row in zip(self.words, self.matrix):
                out.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "WordVectors":
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            header = handle.readline().split()
            if len(header) != 2:
                raise CorpusFormatError(f"{path}: bad embedding dump header")
            n, d = int(header[0]), int(header[1])
            words = []
            matrix = np.empty((n, d), dtype=np.float64)
            for k in range(n):
                parts = handle.readline().split()
                if len(parts) != d + 1:
                    raise CorpusFormatError(f"{path}: bad embedding row {k + 1}")
                words.append(parts[0])
                matrix[k] = [float(v) for v in parts[1:]]
        return cls(words, matrix)


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("vectors have different lengths")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    return float(np.dot(u, v) / (nu * nv))


def nearest_neighbors(
    source: Union[EmbeddingModel, WordVectors], word: str, k: int
) -> list[tuple[str, float]]:
    """The k most cosine-similar vocabulary words, query excluded.

    Ties are broken lexicographically. Candidates with a zero vector are
    never returned (their similarity is undefined).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    vectors = source.to_vectors() if isinstance(source, EmbeddingModel) else source
    query = vectors.vector(word)
    if query is None:
        raise ValueError(f"word not in vocabulary: {word!r}")
    qnorm = float(np.linalg.norm(query))
    if qnorm == 0.0:
        raise ValueError(f"query word {word!r} has a zero vector")
    norms = vectors._norms
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = (vectors.matrix @ query) / (norms * qnorm)
    sims = np.where(norms == 0.0, -np.inf, sims)
    ranked = sorted(
        (-sims[idx], w)
        for idx, w in enumerate(vectors.words)
        if w != word and np.isfinite(sims[idx])
    )
    return [(w, float(-negsim)) for negsim, w in ranked[:k]]
