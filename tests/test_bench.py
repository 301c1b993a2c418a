"""Tests for the bench harness and the fast experiment runners."""

from pathlib import Path

import pytest

from repro.bench.harness import ExperimentRecord, ns_from_cycles
from repro.trace.report import TextTable


class TestTextTable:
    def test_render_alignment(self):
        table = TextTable("Demo", ["name", "value"])
        table.add_row("alpha", 1.5)
        table.add_row("b", 22)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "alpha" in text and "1.50" in text and "22" in text
        # Columns align: all data lines equal width of header line.
        assert len({len(line) for line in lines[2:]}) <= 2

    def test_row_arity_checked(self):
        table = TextTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_empty_table_renders(self):
        assert "T" in TextTable("T", ["a"]).render()


class TestUnits:
    def test_ns_from_cycles_at_1_2_ghz(self):
        assert ns_from_cycles(12) == pytest.approx(10.0)
        assert ns_from_cycles(0) == 0


class TestExperimentRecord:
    def test_summary_status(self):
        good = ExperimentRecord("E0", "claim", "measured", True)
        bad = ExperimentRecord("E0", "claim", "measured", False)
        assert "REPRODUCED" in good.summary()
        assert "DIVERGED" in bad.summary()


class TestFastRunners:
    def test_vmsa_tables_reproduced(self):
        from repro.bench import run_vmsa_tables

        record = run_vmsa_tables()
        assert record.reproduced
        assert len(record.tables) == 2

    def test_survey_reproduced(self):
        from repro.bench import run_survey

        record = run_survey()
        assert record.reproduced

    def test_fig2_reproduced_small(self):
        from repro.bench import run_fig2

        record = run_fig2(iterations=30)
        assert record.reproduced
        assert "camouflage" in record.measured

    def test_compat_reproduced(self):
        from repro.bench import run_compat

        record = run_compat(iterations=30)
        assert record.reproduced

    def test_key_switch_nine_cycles(self):
        from repro.bench import run_key_switch

        record = run_key_switch(iterations=5)
        assert record.reproduced
        assert "9.00" in record.measured

    def test_replay_matrix_reproduced(self):
        from repro.bench import run_replay_matrix

        record = run_replay_matrix()
        assert record.reproduced


class TestExperimentTable:
    """The one list of experiments; none of these runs an experiment."""

    def test_ids_are_unique(self):
        from repro.bench import EXPERIMENTS

        ids = [experiment.id for experiment in EXPERIMENTS]
        assert len(ids) == len(set(ids))

    def test_experiments_md_sections_follow_the_table(self):
        from repro.bench import EXPERIMENTS

        path = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
        headings = [
            line[3:].split(" / ")[0]
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.startswith("## ")
        ]
        assert headings == [experiment.id for experiment in EXPERIMENTS]

    def test_experiments_command_counts_diverged_records(
        self, monkeypatch, capsys
    ):
        import repro.bench
        from repro.__main__ import main
        from repro.bench import Experiment

        def record(reproduced):
            return ExperimentRecord("X", "claim", "value", reproduced)

        monkeypatch.setattr(
            repro.bench,
            "EXPERIMENTS",
            (
                Experiment("X1", lambda: record(True)),
                Experiment("X2", lambda: record(False)),
            ),
        )
        assert main(["experiments"]) == 1
        out = capsys.readouterr().out
        assert "[DIVERGED] X" in out
        assert out.rstrip().endswith("1/2 reproduced")
