"""E6+E10 / Section 6.2 — the security evaluation matrix.

Runs the full attack suite (ROP injection, replay variants, writable
function-pointer and JOP overwrites, ops-table swaps, rodata writes,
credential-pointer swaps, PAC brute force, XOM reads, malicious LKMs,
SCTLR tampering, verification-oracle probing) against the none /
backward / full kernels, plus the per-scheme replay-window matrix of
Sections 4.2 and 7.
"""

from conftest import record_experiment

from repro.bench import run_replay_matrix, run_security_matrix
from repro.inject import render_profile_table


def test_security_matrix(benchmark):
    record, matrices = benchmark.pedantic(
        run_security_matrix, rounds=1, iterations=1
    )
    record_experiment(benchmark, record)
    print(render_profile_table(matrices))
    assert record.reproduced


def test_replay_window_matrix(benchmark):
    record = benchmark.pedantic(run_replay_matrix, rounds=1, iterations=1)
    record_experiment(benchmark, record)
    assert record.reproduced
