"""Tests for the experiment harness (WorkloadLab, figure drivers, CLI)."""

import pytest

from repro.errors import ConfigurationError
from repro.extinst import SelectionParams
from repro.harness.cli import main as cli_main
from repro.harness.figures import fig2_greedy, fig7_area, greedy_stats
from repro.harness.runner import WorkloadLab


class TestWorkloadLab:
    def test_baseline_cached(self, gsm_encode_lab):
        a = gsm_encode_lab.baseline()
        b = gsm_encode_lab.baseline()
        assert a is b

    def test_selection_cached_per_key(self, gsm_encode_lab):
        s1 = gsm_encode_lab.selection(SelectionParams("selective", 2))
        s2 = gsm_encode_lab.selection(SelectionParams("selective", 2))
        s3 = gsm_encode_lab.selection(SelectionParams("selective", 4))
        assert s1 is s2 and s1 is not s3

    def test_unknown_algorithm(self, gsm_encode_lab):
        with pytest.raises(ConfigurationError):
            gsm_encode_lab.selection(SelectionParams("magic", 2))

    def test_run_baseline(self, gsm_encode_lab):
        result = gsm_encode_lab.run("baseline", 0, 0)
        assert result.speedup == 1.0

    def test_run_selective(self, gsm_encode_lab):
        result = gsm_encode_lab.run("selective", 2, 10)
        assert result.speedup > 1.0
        assert result.workload == "gsm_encode"
        assert result.n_configs >= 1

    def test_greedy_thrash_vs_selective(self, gsm_encode_lab):
        greedy = gsm_encode_lab.run("greedy", 2, 10)
        selective = gsm_encode_lab.run("selective", 2, 10)
        assert greedy.speedup < 1.0 < selective.speedup

    def test_select_pfus_decoupled_from_hardware(self, gsm_encode_lab):
        """Plan for 2 PFUs but run on 1: the mismatch causes reconfigs."""
        planned2_on1 = gsm_encode_lab.run(
            "selective", 1, 10, select_pfus=2
        )
        planned1_on1 = gsm_encode_lab.run("selective", 1, 10)
        assert planned1_on1.stats.pfu_misses <= planned2_on1.stats.pfu_misses

    def test_rewritten_validated(self, epic_lab):
        program, defs = epic_lab.rewritten(SelectionParams("selective", 2))
        assert len(program.text) < len(epic_lab.program.text)
        assert defs


class TestFigureDrivers:
    def test_fig2_single_workload(self):
        headers, rows = fig2_greedy(workloads=("epic",))
        assert len(rows) == 1
        assert rows[0][0] == "epic"
        assert len(headers) == len(rows[0])

    def test_fig7_distribution(self):
        dist = fig7_area(workloads=("epic", "gsm_encode"))
        assert dist.costs
        assert dist.max_luts < 150

    def test_greedy_stats_row_shape(self):
        headers, rows = greedy_stats(workloads=("gsm_decode",))
        assert rows[0][2] >= rows[0][1] >= 1   # sites >= configs
        assert 2 <= rows[0][3] <= rows[0][4] <= 8


class TestCLI:
    def test_run_command(self, capsys):
        rc = cli_main(["run", "epic", "--algorithm", "selective",
                       "--pfus", "2", "--reconfig", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup over baseline" in out

    def test_run_baseline_command(self, capsys):
        assert cli_main(["run", "epic", "--algorithm", "baseline"]) == 0
        assert "1.000" in capsys.readouterr().out

    def test_fig2_subset(self, capsys):
        assert cli_main(["fig2", "--workloads", "epic"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "epic" in out

    def test_stats_subset(self, capsys):
        assert cli_main(["stats", "--workloads", "epic"]) == 0
        assert "distinct configs" in capsys.readouterr().out

    def test_fig7_subset(self, capsys):
        assert cli_main(["fig7", "--workloads", "epic"]) == 0
        assert "LUT" in capsys.readouterr().out

    def test_unlimited_pfus_argument(self, capsys):
        assert cli_main(["run", "epic", "--pfus", "unlimited"]) == 0
