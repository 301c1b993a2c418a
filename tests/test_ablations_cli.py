"""Tests for the ablation runners, the chart renderer and the CLI."""

import pytest

from repro.bench.figures import BarChart
from repro.errors import ReproError


class TestBarChart:
    def test_single_bars(self):
        chart = BarChart("T", unit=" ns", width=20)
        chart.add_bar("a", 10.0)
        chart.add_bar("b", 5.0)
        text = chart.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        a_line = next(line for line in lines if line.strip().startswith("a"))
        b_line = next(line for line in lines if line.strip().startswith("b"))
        assert a_line.count("█") == 20
        assert b_line.count("█") == 10
        assert "10.00 ns" in a_line

    def test_grouped_bars(self):
        chart = BarChart("G", width=10)
        chart.add_group("row", [("x", 1.0), ("y", 2.0)])
        text = chart.render()
        assert "row:" in text
        assert "x" in text and "y" in text

    def test_zero_values(self):
        chart = BarChart("Z", width=10)
        chart.add_bar("nil", 0.0)
        assert "█" not in chart.render()

    def test_minimum_width_enforced(self):
        with pytest.raises(ReproError):
            BarChart("t", width=2)

    def test_small_values_get_visible_bar(self):
        chart = BarChart("S", width=40)
        chart.add_bar("big", 100.0)
        chart.add_bar("tiny", 0.5)
        tiny = next(
            line for line in chart.render().splitlines() if "tiny" in line
        )
        assert tiny.count("█") >= 1


class TestFigureCharts:
    def test_fig2_includes_chart(self):
        from repro.bench import run_fig2

        record = run_fig2(iterations=30)
        rendered = [t.render() for t in record.tables]
        assert any("█" in text for text in rendered)


class TestAblationRunners:
    def test_key_mgmt(self):
        from repro.bench import run_key_mgmt_ablation

        assert run_key_mgmt_ablation(iterations=8).reproduced

    def test_frame_mac(self):
        from repro.bench import run_frame_mac_ablation

        assert run_frame_mac_ablation(iterations=8).reproduced

    def test_irq(self):
        from repro.bench import run_irq_overhead

        assert run_irq_overhead(ticks=4, tick_period=1500).reproduced

    def test_ctx_switch(self):
        from repro.bench import run_ctx_switch

        assert run_ctx_switch(rounds=4).reproduced

    def test_pac_sweep(self):
        from repro.bench import run_pac_size_sweep

        assert run_pac_size_sweep().reproduced

    def test_hardened_abi(self):
        from repro.bench import run_hardened_abi

        assert run_hardened_abi(iterations=6).reproduced

    def test_canary(self):
        from repro.bench import run_canary_ablation

        assert run_canary_ablation(iterations=20).reproduced


class TestCli:
    def test_boot_command(self, capsys):
        from repro.__main__ import main

        assert main(["boot", "--profile", "none"]) == 0
        out = capsys.readouterr().out
        assert "sections:" in out
        assert ".text" in out

    def test_boot_banked(self, capsys):
        from repro.__main__ import main

        assert main(["boot", "--key-management", "banked-isa"]) == 0
        assert "banked-isa" in capsys.readouterr().out

    def test_survey_command(self, capsys):
        from repro.__main__ import main

        assert main(["survey"]) == 0
        assert "1285" in capsys.readouterr().out

    def test_inject_cross_profile_command(self, capsys):
        from repro.__main__ import main

        argv = ["inject", "--smoke", "--no-invariants"]
        for profile in ("none", "backward", "full"):
            argv += ["--profile", profile]
        # The unprotected kernel lets the attacks through: exit 1.
        assert main(argv) == 1
        out = capsys.readouterr().out
        table = out[out.index("attack    "):]
        assert "none    backward        full" in table
        assert "rop-injection" in table
        assert "exception-frame-tamper" in table

    def test_removed_attacks_command_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["attacks"])

    def test_unknown_command_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["figures", "--iterations", "0"],
            ["trace", "syscall", "--capacity", "0"],
            ["profile", "syscall", "--capacity", "0"],
            ["verify", "--profile", "bogus"],
        ],
    )
    def test_bad_option_value_is_a_usage_error(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "error: argument" in capsys.readouterr().err
