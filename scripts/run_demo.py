#!/usr/bin/env python3
"""Run the full bootstrapping pipeline on a generated corpus.

Writes every stage artifact into the work directory and prints the
AllComments effect sizes for the extreme priority pair.
"""

import argparse
import logging

from arousalkit.corpus import Field
from arousalkit.evalstats import pair_label
from arousalkit.pipeline import run_demo


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", default="demo_work")
    parser.add_argument("--issues", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    table = run_demo(args.work_dir, n_issues=args.issues, seed=args.seed)
    print(f"artifacts in {args.work_dir}")
    for mode in table.modes:
        cell = table.cell(Field.ALL_COMMENTS, mode, table.pairs[0])
        if cell:
            print(f"all_comments {pair_label(cell.pair)} [{mode}]: "
                  f"d={cell.cohen_d:.4f} p={cell.p:.3g}")


if __name__ == "__main__":
    main()
