"""Word embeddings trained on the issue corpus plus cosine neighbor queries.

The vector space is fit to log co-occurrence counts by weighted least
squares (global-vectors objective):

    J = sum over nonzero cells (i, j) of
        f(X_ij) * (w_i . w~_j + b_i + b~_j - ln X_ij)^2

with f(x) = (x / x_max)^alpha for x < x_max, else 1. Each epoch applies
the per-cell AdaGrad update to every nonzero cell once, in conflict-free
batches: cell (i, j) goes to batch (pi[i] + sigma[j]) mod V, for random
permutations pi and sigma of the V word ids, and the batches run in random
order. Given the batch and i only one j fits, and the reverse, so a batch
repeats no row and no column. Its updates touch disjoint parameters, so
one set of array operations gives what a loop over its cells would, up to
the summation order of the dot products. A fixed seed is bit-reproducible.
The output vector of a word is the sum of its main and context rows.

Co-occurrence cells are COO arrays rows, cols (int64 word ids) and vals
(float64), one entry per nonzero cell, sorted by (row, col). Counting
first takes the exact integer number n_d of pairs at each distance d,
then applies the 1/d weights in distance order. Integers add exactly, so
a cell's value depends only on its counts, not on the order of the
streams or of the pairs within them.
"""

from __future__ import annotations

import logging
import numbers
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import orjson

from .artifacts import atomic_open, pack_strings, read_records, unpack_strings, write_records
from .parallel import forked, split

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
        for name, low in (("dim", 1), ("window", 1), ("epochs", 0), ("seed", 0)):
            require_number("embedding." + name, getattr(self, name), low)
        for name in ("x_max", "learning_rate", "alpha"):
            require_number("embedding." + name, getattr(self, name), 0, integer=False,
                           strict=name != "alpha")


def require_number(key: str, value, low, integer: bool = True, strict: bool = False) -> None:
    """ValueError naming the dotted config ``key`` unless ``value`` is an int
    (a finite number if not ``integer``; never a bool) >= ``low``, or > ``low``
    if ``strict``."""
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{key} must be {'an integer' if integer else 'a finite number'}, "
                         f"got {value!r}")
    if value < low or (strict and value == low):
        raise ValueError(f"{key} must be {'>' if strict else '>='} {low}, got {value!r}")


@dataclass(frozen=True, eq=False)
class CoocMatrix:
    """Nonzero co-occurrence cells as COO arrays sorted by (row, col)."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __len__(self) -> int:
        return len(self.vals)


def count_cooccurrences(ids: np.ndarray, offsets: np.ndarray, window: int) -> CoocMatrix:
    """Harmonically weighted symmetric counts within each token stream.

    ``ids`` holds word ids, -1 for a token outside the vocabulary; stream
    k is ``ids[offsets[k]:offsets[k + 1]]`` and the streams cover ``ids``
    in order. Cell (i, j) is the sum over d = 1..window of n_d * (1/d),
    added in distance order, where n_d counts the pairs at distance d with
    i first or j first. Out-of-vocabulary tokens are skipped but still
    occupy their positions; no pair spans two streams. No pair lies farther
    apart than the longest stream's length minus one, so the window is
    capped there.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if offsets[0] != 0 or offsets[-1] != len(ids):
        raise ValueError("stream offsets must run from 0 to the number of tokens")
    window = max(min(window, int(np.diff(offsets).max(initial=0)) - 1), 1)
    n_words = max(int(ids.max(initial=-1)) + 1, 1)
    # window sentinels after every stream, so no pair spans two streams
    padded = np.insert(ids, np.repeat(offsets[1:], window), -1)
    # per distance: the sorted keys i * n_words + j of the pairs with i first
    # and their counts, then the same for the pairs with j first
    counted = []
    for d in range(1, window + 1):
        left, right = padded[:-d], padded[d:]
        ok = (left >= 0) & (right >= 0)
        keys = left[ok].astype(np.int64)
        keys *= n_words
        keys += right[ok]
        keys, counts = np.unique(keys, return_counts=True)
        first, second = np.divmod(keys, n_words)
        flipped = second * n_words + first
        order = np.argsort(flipped)  # sorted lookups below stay local in cells
        counted.append(((keys, counts), (flipped[order], counts[order])))
    # sort + diff: bare np.unique may take a hash-table path, slower on int64 keys
    cells = np.sort(np.concatenate([keys for both in counted for keys, _ in both]))
    cells = cells[np.diff(cells, prepend=-1) != 0]
    vals = np.zeros(len(cells))
    for d, both in enumerate(counted, 1):
        n = np.zeros(len(cells), dtype=np.int64)
        for keys, counts in both:
            n[np.searchsorted(cells, keys)] += counts
        vals += n * (1.0 / d)
    rows, cols = np.divmod(cells, n_words)
    return CoocMatrix(rows, cols, vals)


@dataclass(eq=False)
class EmbeddingModel:
    """Main/context vectors and biases over a fixed word list."""

    words: list[str]
    w_main: np.ndarray
    w_context: np.ndarray
    b_main: np.ndarray
    b_context: np.ndarray
    config: EmbeddingConfig
    loss_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        n, d = self.w_main.shape
        if len(self.words) != n or self.w_context.shape != (n, d):
            raise ValueError("parameter blocks disagree on vocabulary size")
        if self.b_main.shape != (n,) or self.b_context.shape != (n,):
            raise ValueError("bias blocks disagree on vocabulary size")

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

    def blocks(self) -> tuple:
        """The parameter blocks (W, W~, b, b~)."""
        return self.w_main, self.w_context, self.b_main, self.b_context


def _loss_weights(x: np.ndarray, x_max: float, alpha: float) -> np.ndarray:
    return np.where(x < x_max, (x / x_max) ** alpha, 1.0)


#: Most bytes of vectors gathered at once per parameter block by glove_loss.
_LOSS_GATHER = 1 << 20


def glove_loss(model: EmbeddingModel, cooc: CoocMatrix) -> float:
    """Exact objective over all stored co-occurrence cells."""
    # for direct callers; run_train refuses an empty matrix naming its inputs
    if len(cooc) == 0:
        raise ValueError("co-occurrence matrix is empty")
    if max(cooc.rows.max(), cooc.cols.max()) >= len(model.words):
        raise ValueError("co-occurrence ids exceed model vocabulary")
    fx = _loss_weights(cooc.vals, model.config.x_max, model.config.alpha)
    logx = np.log(cooc.vals)
    total = 0.0
    chunk = max(1, _LOSS_GATHER // (model.w_main.itemsize * model.dim))
    for lo in range(0, len(logx), chunk):
        cut = slice(lo, lo + chunk)
        diff = _residuals(model, cooc.rows[cut], cooc.cols[cut], logx[cut])[0]
        total += float(np.sum(fx[cut] * diff * diff))
    return total


def _residuals(model: EmbeddingModel, rows, cols, logx) -> tuple:
    """w_i . w~_j + b_i + b~_j - ln X_ij of each cell, with the gathered
    main rows w_i and context rows w~_j."""
    wi, wj = model.w_main[rows], model.w_context[cols]
    pred = np.einsum("ij,ij->i", wi, wj) + model.b_main[rows] + model.b_context[cols]
    return pred - logx, wi, wj


def _cell_gradients(fx, diff, wi, wj) -> tuple:
    """Gradients of each cell's f(X_ij) * diff^2: g = 2 f diff for both
    biases, g * w~_j for w_i and g * w_i for w~_j."""
    g = 2.0 * fx * diff
    return g, g[:, None] * wj, g[:, None] * wi


def loss_and_gradients(
    model: EmbeddingModel, cooc: CoocMatrix
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Full-batch loss and analytic gradients for every parameter block.

    Returns (loss, dW, dW~, db, db~), the sums per row of the per-cell
    gradients that training applies one cell at a time.
    """
    rows, cols = cooc.rows, cooc.cols
    fx = _loss_weights(cooc.vals, model.config.x_max, model.config.alpha)
    diff, wi, wj = _residuals(model, rows, cols, np.log(cooc.vals))
    loss = float(np.sum(fx * diff * diff))
    g, gw, gwc = _cell_gradients(fx, diff, wi, wj)
    d_w, d_wc, d_b, d_bc = map(np.zeros_like, model.blocks())
    np.add.at(d_w, rows, gw)
    np.add.at(d_wc, cols, gwc)
    np.add.at(d_b, rows, g)
    np.add.at(d_bc, cols, g)
    return loss, d_w, d_wc, d_b, d_bc


def glove_train(
    cooc: CoocMatrix, words: list[str], config: EmbeddingConfig
) -> EmbeddingModel:
    """AdaGrad over every nonzero cell once per epoch, for config.epochs
    epochs, in conflict-free batches."""
    model = EmbeddingModel.initialize(words, config)
    model.loss_history = [glove_loss(model, cooc)]
    if config.epochs == 0:  # the AdaGrad state below is as large as the model
        return model
    fx = _loss_weights(cooc.vals, config.x_max, config.alpha)
    logx = np.log(cooc.vals)
    rng = np.random.default_rng(config.seed)
    acc_w, acc_wc, acc_b, acc_bc = map(np.ones_like, model.blocks())
    for epoch in range(config.epochs):
        batches = _conflict_free_batches(cooc.rows, cooc.cols, len(words), rng)
        _sgd_pass(model, acc_w, acc_wc, acc_b, acc_bc, cooc.rows, cooc.cols, fx, logx, batches,
                  config.learning_rate)
        loss = glove_loss(model, cooc)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss after epoch {epoch + 1}; "
                "the learning rate is probably too high"
            )
        model.loss_history.append(loss)
        logger.info("epoch %d/%d loss %.6f", epoch + 1, config.epochs, loss)
    return model


def _conflict_free_batches(rows, cols, n_words: int, rng) -> list[np.ndarray]:
    """Cell indices in the conflict-free batches of one epoch (see the
    module docstring), the non-empty batches in the order they run."""
    pi, sigma = rng.permutation(n_words), rng.permutation(n_words)
    batch = (pi[rows] + sigma[cols]) % n_words
    order = np.argsort(batch, kind="stable")
    sizes = np.bincount(batch, minlength=n_words)
    ends = np.cumsum(sizes)
    return [order[ends[c] - sizes[c]:ends[c]] for c in rng.permutation(n_words) if sizes[c]]


def _sgd_pass(model, acc_w, acc_wc, acc_b, acc_bc, rows, cols, fx, logx, batches, lr):
    """Per-cell AdaGrad, one batch of cells at a time; no batch may repeat
    a row or a column."""
    w, wc, b, bc = model.blocks()
    for p in batches:
        i, j = rows[p], cols[p]
        diff, wi, wj = _residuals(model, i, j, logx[p])
        g, gw, gwc = _cell_gradients(fx[p], diff, wi, wj)
        acc_w[i] += gw * gw
        acc_wc[j] += gwc * gwc
        w[i] = wi - lr * gw / np.sqrt(acc_w[i])
        wc[j] = wj - lr * gwc / np.sqrt(acc_wc[j])
        acc_b[i] += g * g
        acc_bc[j] += g * g
        b[i] -= lr * g / np.sqrt(acc_b[i])
        bc[j] -= lr * g / np.sqrt(acc_bc[j])


#: First record of a binary embedding file, checked on load.
_VECTORS_TAG = b"arousalkit embedding 1"

#: dtype and number of dimensions of each binary embedding record after the tag
_VECTORS_LAYOUT = ((np.uint8, 1), (np.int64, 1), (np.float64, 2))


#: Most bytes of squares one block of ``_row_norms`` holds at once.
_NORM_BLOCK = 1 << 20


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(matrix, axis=1)`` over blocks of rows, so that the
    squares never take the matrix's size; each row is reduced as in one
    call, so the norms are the same bits."""
    norms = np.empty(len(matrix))
    step = max(1, _NORM_BLOCK // (8 * max(matrix.shape[1], 1)))
    for lo in range(0, len(matrix), step):
        norms[lo:lo + step] = np.linalg.norm(matrix[lo:lo + step], axis=1)
    return norms


class WordVectors:
    """Dense word vectors for similarity queries.

    Stored two ways: the text dump (``save``) is the documented export,
    written for people and other tools, and the binary file
    (``save_binary``/``load_binary``) is the copy the pipeline stages read.
    """

    def __init__(self, words: list[str], matrix: np.ndarray):
        """Distinct words, one matrix row each with at least one column; else ValueError."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(words) or matrix.shape[1] < 1:
            raise ValueError(f"a {matrix.shape} matrix does not fit {len(words)} words")
        self._index = {w: i for i, w in enumerate(words)}
        if len(self._index) != len(words):  # the index keeps a repeated word's last row
            repeated = next(w for i, w in enumerate(words) if self._index[w] != i)
            raise ValueError(f"repeated word {repeated!r}")
        self.words, self.matrix = words, matrix
        self._norms = _row_norms(self.matrix)
        # lexicographic rank of each word, for tie-breaking neighbors
        ordered = {w: r for r, w in enumerate(sorted(words))}
        self._rank = np.array([ordered[w] for w in words], dtype=np.int64)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def vector(self, word: str) -> Optional[np.ndarray]:
        idx = self._index.get(word)
        if idx is None:
            return None
        return self.matrix[idx]

    def norm(self, word: str) -> float:
        """Euclidean norm of the vector of ``word``, which must be present,
        read from the row norms that the neighbor queries divide by; a word
        whose norm is 0.0 cannot be a neighbor query."""
        return float(self._norms[self._index[word]])

    def save(self, path: str | Path) -> None:
        """Text dump: first line "|V| d", then one "word v1 ... vd" per word.

        Each value is written as ``repr`` writes it, the shortest string
        that ``float`` reads back to the same bits (NaN keeps no sign or
        payload), so repeated runs are byte-identical. Rows are formatted
        in blocks by orjson, whose shortest round-trip digits are ``repr``'s
        wherever both use plain decimal notation (see ``_dump_rows``); the
        other values go through ``repr`` itself.

        The rows are split into contiguous ranges by ``parallel.split``, one
        per usable CPU and at most one per ``_DUMP_PARALLEL_MIN`` matrix
        values, formatted at once: this process writes the first, and a
        forked child writes each other range to an unlinked spool file beside
        ``path``, which is then copied into the dump in row order.
        The text of a row depends only on that row, so the bytes are those
        of one process writing every row. A child that fails raises
        RuntimeError naming the path and its rows, and leaves no file; no
        child outlives the call.
        """
        path = Path(path)
        first, *others = split(len(self.words), self.matrix.size, _DUMP_PARALLEL_MIN)

        def name(start: int, stop: int) -> str:
            return f"{path}: the process writing rows {start} to {stop - 1}"

        with atomic_open(path, "wb") as out, \
                forked(self._dump, others, name, path.parent) as spools:
            out.write(f"{len(self.words)} {self.dim}\n".encode())
            self._dump(out, *first)
            for spool in spools:
                shutil.copyfileobj(spool, out)

    def _dump(self, out, start: int, stop: int) -> None:
        """Write the dump lines of rows ``start`` to ``stop - 1`` to ``out``."""
        rows_per_block = max(1, _DUMP_BLOCK // (8 * self.dim))
        for lo in range(start, stop, rows_per_block):
            hi = min(lo + rows_per_block, stop)
            out.write(_dump_rows(self.words[lo:hi], self.matrix[lo:hi]))

    def save_binary(self, path: str | Path) -> None:
        """Three .npy records after a format tag: the UTF-8 bytes and byte
        offsets of the words, then the float64 matrix. The file holds no
        timestamp, so saving the same vectors twice gives the same bytes."""
        write_records(path, _VECTORS_TAG,
                      (*pack_strings(self.words), np.ascontiguousarray(self.matrix)))

    @classmethod
    def load_binary(cls, path: str | Path) -> "WordVectors":
        """Read a file written by ``save_binary``; a short, corrupt or
        inconsistent file or a repeated word raises CorpusFormatError
        naming the path."""
        return read_records(path, "binary embedding", _VECTORS_TAG, _VECTORS_LAYOUT,
                            _unpack_vectors)


#: Bytes of float64 values one block of the text dump formats at once;
#: larger blocks are no faster and raise the peak memory of ``save``.
_DUMP_BLOCK = 64 << 10

#: Fewest matrix values in one row range of the text dump. On a 2-core
#: host, with zipf-vocab's 10,707 x 300 matrix loaded, 2**17 values took
#: 26 ms to format, against 2.0-2.7 ms to fork and reap a child and 1 ms
#: to copy their 2.9 MB of text from its spool file.
_DUMP_PARALLEL_MIN = 1 << 17

def _dump_rows(words: Sequence[str], block: np.ndarray) -> bytes:
    """The dump lines of ``words`` and their rows ``block``, as UTF-8.

    orjson and ``repr`` write the same shortest digits, and the same
    notation for 0 and for 1e-4 <= |x| < 1e16. Every other value (NaN,
    infinities, tiny, subnormal and huge values) is set to NaN, which
    orjson writes as ``null``, and its ``repr`` is spliced in there.
    """
    block = np.array(block, dtype=np.float64, order="C")
    magnitude = np.abs(block)
    outside = ~(((magnitude >= 1e-4) & (magnitude < 1e16)) | (block == 0))
    spliced = [repr(x).encode() for x in block[outside].tolist()]
    block[outside] = np.nan
    # "[[v,v],[v,null]]": null for each NaN; no digits hold "[", "]", "," or "n"
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].replace(b",", b" ")
    if spliced:
        pieces = text.split(b"null")
        if len(pieces) != len(spliced) + 1:
            raise RuntimeError(f"orjson wrote {len(pieces) - 1} nulls for {len(spliced)} values")
        joined = [b""] * (2 * len(spliced) + 1)
        joined[0::2] = pieces
        joined[1::2] = spliced
        text = b"".join(joined)
    rows = text.split(b"] [")
    return b"".join(word.encode() + b" " + row + b"\n" for word, row in zip(words, rows))


def _unpack_vectors(word_data, word_offsets, matrix) -> WordVectors:
    return WordVectors(unpack_strings(word_data, word_offsets), matrix)


def nearest_neighbors(vectors: WordVectors, word: str, k: int) -> list[tuple[str, float]]:
    """The k most cosine-similar vocabulary words, query excluded.

    Ties are broken lexicographically. Candidates with a zero vector are
    never returned (their similarity is undefined).
    """
    return nearest_neighbors_batch(vectors, [word], k)[0]


#: Most bytes of similarities one block of neighbor queries computes at once.
_KNN_BLOCK = 4 << 20


def nearest_neighbors_batch(
    vectors: WordVectors, words: Sequence[str], k: int
) -> list[list[tuple[str, float]]]:
    """``nearest_neighbors`` of each word in ``words``, in order.

    The similarities of a block of queries come from one matrix product,
    blocks bounded by ``_KNN_BLOCK`` bytes. Each query keeps every
    candidate at or above its k-th largest similarity and ranks only those
    by similarity, then word. A word that is not in the vocabulary or has
    a zero vector raises ValueError.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    rows = []
    for word in words:
        if word not in vectors:
            raise ValueError(f"word not in vocabulary: {word!r}")
        if vectors.norm(word) == 0.0:
            raise ValueError(f"query word {word!r} has a zero vector")
        rows.append(vectors._index[word])
    if k == 0:
        return [[] for _ in rows]
    n_words = len(vectors.words)
    norms, rank = vectors._norms, vectors._rank
    block = max(1, _KNN_BLOCK // (8 * max(n_words, 1)))
    results = []
    for lo in range(0, len(rows), block):
        q = np.array(rows[lo:lo + block])
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = (vectors.matrix[q] @ vectors.matrix.T) / (norms * norms[q][:, None])
        # a zero candidate vector gives inf or nan, never a finite similarity
        sims[~np.isfinite(sims) | (rank == rank[q][:, None])] = -np.inf
        keep = sims > -np.inf
        if k < n_words:
            kth = np.negative(sims)
            kth.partition(k - 1, axis=1)
            keep &= sims >= -kth[:, k - 1:k]
        for sim, row in zip(sims, keep):
            idx = np.flatnonzero(row)
            top = idx[np.lexsort((rank[idx], -sim[idx]))[:k]]
            results.append([(vectors.words[i], float(sim[i])) for i in top])
    return results
