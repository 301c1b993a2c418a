"""Every experiment of EXPERIMENTS.md under pytest-benchmark.

One test per :data:`repro.bench.EXPERIMENTS` entry, with the parameters
the committed record was measured at (``-k E11`` picks one).  The
benchmark fixture times the simulation run; the scientific output is
the rendered record, printed (visible with ``-s``) and attached to the
benchmark's ``extra_info``.
"""

import pytest

from repro.bench import EXPERIMENTS


@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.id)
def test_experiment(benchmark, experiment):
    record = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        experiment=record.experiment_id,
        paper_claim=record.paper_claim,
        measured=record.measured,
        reproduced=record.reproduced,
    )
    print()
    print(record.summary())
    for table in record.tables:
        table.print()
    assert record.reproduced
