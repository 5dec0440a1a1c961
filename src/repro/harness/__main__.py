"""Command-line entry point: regenerate the paper's evaluation.

    python -m repro.harness [--quick] [--out FILE] [EXPERIMENT ...]

Runs every registered experiment (or the named subset) at its "ci"
sweep — the scale EXPERIMENTS.md records — prints each table and checks
each shape; ``--quick`` uses the tiny "quick" sweeps instead.  ``--out``
also writes the tables to a report file.  Exits 1 naming every
experiment whose shape check failed.
"""

from __future__ import annotations

import argparse

from repro.harness import EXPERIMENTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness", description=__doc__)
    parser.add_argument("experiments", nargs="*",
                        choices=[[], *EXPERIMENTS],
                        help="subset to run (default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny problem sizes for a fast pass")
    parser.add_argument("--out", default=None,
                        help="also write the tables to this file")
    args = parser.parse_args(argv)

    sweep = "quick" if args.quick else "ci"
    tables, failed = [], []
    for name in args.experiments or EXPERIMENTS:
        entry = EXPERIMENTS[name]
        results = entry.run(**entry.sweeps[sweep])
        tables.append(entry.table(results).render())
        print(tables[-1] + "\n")
        try:
            entry.check(results)
        except AssertionError as exc:
            failed.append(name)
            print(f"{name}: shape check FAILED: {exc}\n")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n\n".join(tables) + "\n")
        print(f"report written to {args.out}")
    if failed:
        print("shape check failed:", " ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
