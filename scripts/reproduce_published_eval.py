#!/usr/bin/env python3
"""Score an external issue corpus with the general-purpose and domain
lexicons and render the priority-pair effect-size tables.

This is the external-data evaluation path: it needs the full issue
corpus (JSON lines), the general-purpose arousal lexicon CSV, and a
built domain lexicon file. It writes ``scores.csv`` and the ``eval_*``
files into ``--out-dir`` through the writers of the ``score`` and
``evaluate`` stages. The combined-mode AllComments Blocker-Trivial cell is
printed for comparison against the reference value 0.5070.
"""

import argparse
import sys
from pathlib import Path

from arousalkit.corpus import Field, read_corpus
from arousalkit.evalstats import PRIORITY_PAIRS, evaluate_priorities, pair_label, render_tables
from arousalkit.lexicon import SeaLexicon, load_general_lexicon
from arousalkit.scoring import ScoringLexicon, save_scores, score_corpus


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("corpus", help="issue corpus, one JSON record per line")
    parser.add_argument("general_lexicon", help="general-purpose lexicon CSV")
    parser.add_argument("sea_lexicon", help="domain lexicon (word,arousal,r1,r2,source)")
    parser.add_argument("--out-dir", default="eval_out")
    parser.add_argument("--t-test", choices=("welch", "pooled"), default="welch")
    args = parser.parse_args()

    general = load_general_lexicon(args.general_lexicon)
    sea = ScoringLexicon(SeaLexicon.load(args.sea_lexicon).arousal_map())
    rows = score_corpus(read_corpus(args.corpus), general, sea)
    if not len(rows):
        sys.exit(f"error: no text unit of {args.corpus} matches a word of "
                 f"{args.general_lexicon} or {args.sea_lexicon}; nothing to evaluate")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the reals as the export states them, which is what `arousalkit evaluate` reads
    rows = save_scores(rows, out_dir / "scores.csv")
    print(f"wrote {out_dir / 'scores.csv'}")
    table = evaluate_priorities(rows, t_test=args.t_test)
    for path in render_tables(table, out_dir):
        print(f"wrote {path}")
    pair = PRIORITY_PAIRS[0]
    cell = table.cell(Field.ALL_COMMENTS, "combined", pair)
    if cell:
        print(f"combined all_comments {pair_label(pair)}: d={cell.cohen_d:.4f} "
              f"(reference 0.5070)")
    for warning in table.warnings:
        print(f"warning: {warning}")


if __name__ == "__main__":
    main()
