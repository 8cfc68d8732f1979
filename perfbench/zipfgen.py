"""Large-vocabulary issue corpus for the ``zipf-vocab`` workload.

The planted signal is the one of ``arousalkit.synthetic``: every text
unit carries one designated seed word whose pole is drawn with the
per-priority probability ``HIGH_SIGNAL_PROB``, sometimes trailed by a
companion word and sometimes joined by one extra planted word. Only the
filler differs: instead of the 128-word demo filler it is drawn from a
Zipfian distribution (exponent ``ZIPF_S``) over ``FILLER_VOCAB``
letter-only pseudo-words, so the vocabulary, the embedding matrix and
every cost that grows with them are large.

Everything is derived from ``seed``: the same seed writes the same bytes.
"""

from __future__ import annotations

import json
import string
from pathlib import Path

import numpy as np

from arousalkit import synthetic

FILLER_VOCAB = 100_000
ZIPF_S = 1.0
PRIORITIES = ("Blocker", "Critical", "Major", "Minor", "Trivial")


def pseudo_words(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct letter-only words of 4 to 9 letters that collide with no
    planted or demo filler word (so the planted signal stays exact)."""
    reserved = set(synthetic.planted_truth()) | set(synthetic.FILLER_WORDS)
    letters = np.array(list(string.ascii_lowercase))
    words: list[str] = []
    seen = set(reserved)
    while len(words) < n:
        need = n - len(words)
        lengths = rng.integers(4, 10, size=need + need // 8 + 16)
        chars = letters[rng.integers(0, 26, size=(len(lengths), 9))]
        for row, length in zip(chars, lengths):
            word = "".join(row[:length])
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == n:
                    break
    return words


def generate_zipf_corpus(path: str | Path, n_issues: int, seed: int) -> None:
    """Write the planted-signal JSON-lines corpus with Zipfian filler."""
    rng = np.random.default_rng(seed)
    filler = np.array(pseudo_words(rng, FILLER_VOCAB))
    ranks = np.arange(1, FILLER_VOCAB + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_S
    cdf = np.cumsum(weights / weights.sum())
    n1 = synthetic.N1_SEEDS
    high_pool = [w for w, _ in synthetic.HIGH_WORDS[:n1]]
    low_pool = [w for w, _ in synthetic.LOW_WORDS[:n1]]
    extra_pool = (
        [w for w, _ in synthetic.HIGH_WORDS[n1:] + synthetic.LOW_WORDS[n1:]]
        + [w for w, _ in synthetic.NEUTRAL_LEXICON_WORDS]
    )
    cursors = {"high": 0, "low": 0}

    def make_unit(priority: str, length: int) -> str:
        draws = np.searchsorted(cdf, rng.random(length), side="right")
        tokens = filler[np.minimum(draws, FILLER_VOCAB - 1)].tolist()
        pole = "high" if rng.random() < synthetic.HIGH_SIGNAL_PROB[priority] else "low"
        pool = high_pool if pole == "high" else low_pool
        signal = [pool[cursors[pole] % len(pool)]]
        cursors[pole] += 1
        if rng.random() < 0.35:
            companions = (synthetic.HIGH_COMPANIONS if pole == "high"
                          else synthetic.LOW_COMPANIONS)
            signal.append(companions[rng.integers(len(companions))][0])
        pos = int(rng.integers(0, len(tokens) + 1))
        tokens[pos:pos] = signal
        if rng.random() < 0.30:
            tokens.insert(int(rng.integers(0, len(tokens) + 1)),
                          extra_pool[rng.integers(len(extra_pool))])
        return " ".join(tokens)

    with Path(path).open("w", encoding="utf-8") as out:
        for k in range(n_issues):
            if rng.random() < 0.02:
                priority = "Unknown"
            else:
                priority = PRIORITIES[rng.integers(len(PRIORITIES))]
            n_comments = 0 if rng.random() < 0.08 else int(rng.integers(1, 5))
            record = {
                "id": f"ZIPF-{k + 1}",
                "priority": priority,
                "title": make_unit(priority, int(rng.integers(6, 13))),
                "description": make_unit(priority, int(rng.integers(15, 36))),
                "comments": [
                    {"ts": f"2016-01-{(k % 28) + 1:02d}T00:00:00Z",
                     "body": make_unit(priority, int(rng.integers(8, 26)))}
                    for _ in range(n_comments)
                ],
            }
            out.write(json.dumps(record, sort_keys=True) + "\n")
