"""Synthetic demo inputs: a planted-signal issue corpus, a matching
general-purpose lexicon, a toy WordNet dict directory, and ground-truth
word arousals for simulated raters.

The generator plants high-arousal vocabulary with occurrence probability
increasing monotonically from Trivial to Blocker issues, so a working
pipeline must recover positive effect sizes between priority groups.
Every generated text unit carries at least one designated seed word,
which keeps combined-mode coverage total on the toy data.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .artifacts import read_table, text_lines, write_rows
from .lexicon import SHEET_HEADER

# (word, planted arousal); the first 20 of each pole are the designated
# seeds, the rest stay below/above the seed cut and are expansion targets.
HIGH_WORDS = [
    ("panic", 8.9), ("emergency", 8.8), ("explode", 8.7), ("furious", 8.6),
    ("frantic", 8.5), ("terror", 8.4), ("outrage", 8.3), ("chaos", 8.2),
    ("alarm", 8.1), ("scream", 8.0), ("disaster", 7.9), ("urgent", 7.8),
    ("rage", 7.7), ("crash", 7.6), ("deadline", 7.5), ("hurry", 7.4),
    ("critical", 7.3), ("asap", 7.2), ("stress", 7.1), ("rush", 7.0),
    ("burning", 6.9), ("severe", 6.8), ("fatal", 6.7), ("pressing", 6.6),
]

LOW_WORDS = [
    ("sleepy", 1.1), ("serene", 1.2), ("tranquil", 1.3), ("calm", 1.4),
    ("dull", 1.5), ("idle", 1.6), ("lazy", 1.7), ("mellow", 1.8),
    ("peaceful", 1.9), ("relaxed", 2.0), ("quiet", 2.1), ("gentle", 2.2),
    ("slow", 2.3), ("boring", 2.4), ("someday", 2.5), ("whenever", 2.6),
    ("eventually", 2.7), ("routine", 2.8), ("mild", 2.9), ("patient", 3.0),
    ("steady", 3.1), ("trivial", 3.2), ("minor", 3.3), ("later", 3.4),
]

# inserted next to high/low signal words so the embedding expansion has
# domain words to discover; not in the general lexicon
HIGH_COMPANIONS = [("soon", 6.5), ("shortly", 6.4), ("immediately", 6.6)]
LOW_COMPANIONS = [("sometime", 3.6), ("occasionally", 3.8)]

# mid-arousal everyday words included in the general lexicon but never
# eligible as seeds
NEUTRAL_LEXICON_WORDS = [
    ("think", 4.6), ("change", 4.7), ("small", 4.8), ("simple", 4.9),
    ("solution", 5.0), ("reason", 5.1), ("question", 5.2), ("answer", 5.3),
    ("example", 5.4), ("problem", 5.6), ("message", 4.5), ("note", 4.4),
]

FILLER_WORDS = """\
the a of to in for on with and or but if then else when while
build test patch version update config server client thread method
branch merge commit release module function class object value index
file path line code review ticket issue report comment user admin
log trace debug output input stream buffer cache memory disk network
socket request response header payload schema table column row query
parse token lexer compile link deploy install upgrade rollback script
job task queue worker pool lock mutex flag option setting default
case switch loop array list map set tree graph node edge key
string number float integer boolean null empty blank space tab
""".split()

N1_SEEDS = 20  # designated seeds per pole


def planted_truth() -> dict[str, float]:
    truth = {}
    for word, arousal in (
        HIGH_WORDS + LOW_WORDS + HIGH_COMPANIONS + LOW_COMPANIONS
        + NEUTRAL_LEXICON_WORDS
    ):
        truth[word] = arousal
    return truth


#: chance that a unit's signal slot is a high-arousal word, per priority
HIGH_SIGNAL_PROB = {
    "Blocker": 0.90,
    "Critical": 0.70,
    "Major": 0.45,
    "Minor": 0.25,
    "Trivial": 0.10,
    "Unknown": 0.45,
}


def generate_corpus(path: str | Path, n_issues: int = 1000, seed: int = 7) -> None:
    """Write the planted-signal JSON-lines corpus.

    Every text unit contains exactly one signal-slot word cycled through
    the designated seed pool of the pole drawn for that unit; signal
    words are sometimes trailed by a companion word, and units may carry
    one extra non-seed planted word.
    """
    rng = np.random.default_rng(seed)
    high_pool = [w for w, _ in HIGH_WORDS[:N1_SEEDS]]
    low_pool = [w for w, _ in LOW_WORDS[:N1_SEEDS]]
    extra_pool = (
        [w for w, _ in HIGH_WORDS[N1_SEEDS:] + LOW_WORDS[N1_SEEDS:]]
        + [w for w, _ in NEUTRAL_LEXICON_WORDS]
    )
    cursors = {"high": 0, "low": 0}

    def next_signal(pole: str) -> str:
        pool = high_pool if pole == "high" else low_pool
        word = pool[cursors[pole] % len(pool)]
        cursors[pole] += 1
        return word

    def make_unit(priority: str, length: int) -> str:
        draws = rng.integers(0, len(FILLER_WORDS), size=length)
        tokens = [FILLER_WORDS[i] for i in draws.tolist()]
        pole = "high" if rng.random() < HIGH_SIGNAL_PROB[priority] else "low"
        signal = [next_signal(pole)]
        if rng.random() < 0.35:
            companions = HIGH_COMPANIONS if pole == "high" else LOW_COMPANIONS
            signal.append(companions[rng.integers(len(companions))][0])
        pos = int(rng.integers(0, len(tokens) + 1))
        tokens[pos:pos] = signal
        if rng.random() < 0.30:
            tokens.insert(int(rng.integers(0, len(tokens) + 1)),
                          extra_pool[rng.integers(len(extra_pool))])
        return " ".join(tokens)

    priorities = ["Blocker", "Critical", "Major", "Minor", "Trivial"]
    with Path(path).open("w", encoding="utf-8") as out:
        for k in range(n_issues):
            if rng.random() < 0.02:
                priority = "Unknown"
            else:
                priority = priorities[rng.integers(len(priorities))]
            n_comments = 0 if rng.random() < 0.08 else int(rng.integers(1, 5))
            record = {
                "id": f"TOY-{k + 1}",
                "priority": priority,
                "title": make_unit(priority, int(rng.integers(6, 13))),
                "description": make_unit(priority, int(rng.integers(15, 36))),
                "comments": [
                    {
                        "ts": f"2016-01-{(k % 28) + 1:02d}T00:00:00Z",
                        "body": make_unit(priority, int(rng.integers(8, 26))),
                    }
                    for _ in range(n_comments)
                ],
            }
            out.write(json.dumps(record, sort_keys=True) + "\n")


def generate_general_lexicon(path: str | Path) -> None:
    """General-lexicon CSV (default column layout) covering the planted
    high/low words plus some mid-arousal everyday words."""
    rows = HIGH_WORDS + LOW_WORDS + NEUTRAL_LEXICON_WORDS
    write_rows(path, ("Word", "V.Mean.Sum", "A.Mean.Sum", "D.Mean.Sum"),
               ((word, "5.00", f"{arousal:.2f}", "5.00") for word, arousal in sorted(rows)))


TRUTH_HEADER = ("word", "arousal")


def write_truth(path: str | Path, truth: dict[str, float]) -> None:
    write_rows(path, TRUTH_HEADER, ((word, f"{truth[word]:.2f}") for word in sorted(truth)))


def load_truth(path: str | Path) -> dict[str, float]:
    return dict(read_table(path, TRUTH_HEADER, lambda word, arousal: (word, float(arousal))))


# ---------------------------------------------------------------------------
# toy WordNet fixture

_POS_CHAR = {"noun": "n", "verb": "v", "adj": "a", "adv": "r"}

TOY_SYNSETS = [
    ("adj", ["calm", "tranquil", "serene"]),
    ("adj", ["urgent", "pressing"]),
    ("adj", ["slow", "dull"]),
    ("noun", ["hurry", "rush", "haste", "in_a_hurry"]),
    ("verb", ["hurry", "rush"]),
    ("adv", ["shortly", "soon"]),
]


def write_wordnet_fixture(
    dict_dir: str | Path,
    synsets: list[tuple[str, list[str]]] | None = None,
) -> Path:
    """Write a minimal but format-correct WordNet 3.x dict directory.

    Offsets in the data files are true byte offsets of their lines, and
    index entries reference them, so the fixture exercises the same code
    paths as a full database.
    """
    if synsets is None:
        synsets = TOY_SYNSETS
    dict_dir = Path(dict_dir)
    dict_dir.mkdir(parents=True, exist_ok=True)
    header = "  1 toy wordnet fixture\n  2 license: none\n"
    for pos in _POS_CHAR:
        pos_synsets = [lemmas for p, lemmas in synsets if p == pos]
        data_lines = []
        offset = len(header.encode("utf-8"))
        offsets = []
        for lemmas in pos_synsets:
            line = _data_line(offset, _POS_CHAR[pos], lemmas)
            offsets.append(offset)
            data_lines.append(line)
            offset += len(line.encode("utf-8"))
        (dict_dir / f"data.{pos}").write_text(header + "".join(data_lines),
                                              encoding="utf-8")
        lemma_offsets: dict[str, list[int]] = {}
        for off, lemmas in zip(offsets, pos_synsets):
            for lemma in lemmas:
                lemma_offsets.setdefault(lemma, []).append(off)
        index_lines = []
        for lemma in sorted(lemma_offsets):
            offs = lemma_offsets[lemma]
            cnt = len(offs)
            rendered = " ".join(f"{o:08d}" for o in offs)
            index_lines.append(f"{lemma} {_POS_CHAR[pos]} {cnt} 0 {cnt} 0 {rendered}\n")
        (dict_dir / f"index.{pos}").write_text(header + "".join(index_lines),
                                               encoding="utf-8")
    return dict_dir


def _data_line(offset: int, ss_type: str, lemmas: list[str]) -> str:
    words = " ".join(f"{lemma} 0" for lemma in lemmas)
    return f"{offset:08d} 00 {ss_type} {len(lemmas):02x} {words} 000 | toy gloss\n"


# ---------------------------------------------------------------------------
# simulated raters


def fill_ratings(
    sheet_path: str | Path,
    out_path: str | Path,
    truth: dict[str, float],
    seed: int,
) -> None:
    """Fill a rating sheet's empty rating column from the planted truth.

    Scores are the truth value plus a small integer jitter, clamped to
    1..9; unknown words rate neutral. Deterministic per seed. The sheet is
    read by ``text_lines``, so a byte that is not UTF-8 is refused with
    the file and line.
    """
    rng = np.random.default_rng(seed)
    lines_out = []
    for _, line in text_lines(sheet_path):
        stripped = line.rstrip("\r\n")
        if stripped.startswith("#") or stripped == SHEET_HEADER:
            lines_out.append(stripped)
            continue
        if not stripped:
            continue
        parts = stripped.split(",")
        word = parts[0]
        jitter = int(rng.choice([-1, 0, 0, 1]))
        score = int(round(truth.get(word, 5.0))) + jitter
        score = max(1, min(9, score))
        parts[1] = str(score)
        lines_out.append(",".join(parts))
    Path(out_path).write_text("\n".join(lines_out) + "\n", encoding="utf-8")


def generate_demo_inputs(
    work_dir: str | Path, n_issues: int = 1000, seed: int = 7
) -> dict[str, float]:
    """Write all synthetic inputs under work_dir/inputs: corpus.jsonl,
    general_lexicon.csv, truth.csv and the wordnet directory. Returns the
    planted truth that truth.csv holds, for the simulated raters."""
    inputs = Path(work_dir) / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    generate_corpus(inputs / "corpus.jsonl", n_issues=n_issues, seed=seed)
    generate_general_lexicon(inputs / "general_lexicon.csv")
    truth = planted_truth()
    write_truth(inputs / "truth.csv", truth)
    write_wordnet_fixture(inputs / "wordnet")
    return truth
