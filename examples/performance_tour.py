#!/usr/bin/env python3
"""Performance tour: regenerate the paper's performance results.

Runs the performance experiments (Figures 2-4 and the key-switch
micro-benchmark of §6.1.1) at the parameters of EXPERIMENTS.md and
prints their tables.  ``python -m repro experiments`` runs the rest.
"""

from repro.bench import EXPERIMENTS


def main():
    print(__doc__)
    for experiment in EXPERIMENTS:
        if experiment.id in ("E1", "E2", "E3", "E4"):
            record = experiment.run()
            print(record.summary())
            for table in record.tables:
                table.print()


if __name__ == "__main__":
    main()
