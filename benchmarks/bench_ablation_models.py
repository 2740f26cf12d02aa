"""Ablation benches for the design choices DESIGN.md calls out.

Not paper artefacts — these quantify how the reproduced results depend on
the modelling assumptions the paper states:

- perfect branch prediction (§3.1) vs a bimodal predictor;
- single-cycle extended instructions (§3.1) vs latency derived from the
  LUT mapping's critical path;
- fixed reconfiguration latency vs bitstream-proportional loading (§6);
- the two-register-input constraint (§2: more inputs = more register
  file ports).
"""

import pytest
from conftest import write_result

from repro.extinst import SelectionParams, greedy_select
from repro.extinst.extraction import ExtractionParams
from repro.harness.runner import get_lab
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import MachineConfig, OoOSimulator
from repro.utils.tables import format_table

WORKLOADS = ("gsm_encode", "mpeg2_decode", "epic")


def _timed(lab, machine: MachineConfig):
    program, defs = lab.rewritten(SelectionParams("selective", 2))
    trace = FunctionalSimulator(program, ext_defs=defs).run(
        collect_trace=True
    ).trace
    return OoOSimulator(program, machine, ext_defs=defs).simulate(trace)


def test_branch_predictor_ablation(benchmark):
    """Perfect prediction (the paper's model) vs bimodal: speedups shrink
    slightly but the selective algorithm's gains survive."""

    def sweep():
        rows = []
        for name in WORKLOADS:
            lab = get_lab(name)
            base = lab.baseline()
            perfect = _timed(lab, MachineConfig(n_pfus=2))
            bimodal = _timed(
                lab, MachineConfig(n_pfus=2, branch_predictor="bimodal")
            )
            base_bimodal = OoOSimulator(
                lab.program, MachineConfig(branch_predictor="bimodal")
            ).simulate(
                FunctionalSimulator(lab.program).run(collect_trace=True).trace
            )
            rows.append([
                name,
                base.cycles / perfect.cycles,
                base_bimodal.cycles / bimodal.cycles,
                f"{1 - bimodal.bpred_mispredictions / max(1, bimodal.bpred_lookups):.2%}",
            ])
        return rows

    rows = benchmark(sweep)
    write_result(
        "ablation_branch_predictor.txt",
        "Selective 2-PFU speedup: perfect vs bimodal prediction\n"
        + format_table(
            ["workload", "perfect bpred", "bimodal bpred", "bpred accuracy"],
            rows,
        ),
    )
    for row in rows:
        assert row[2] > 1.0, f"{row[0]}: gains vanished under bimodal bpred"


def test_ext_latency_model_ablation(benchmark):
    """Single-cycle vs mapped PFU latency: the extraction's level budget
    keeps chosen instructions shallow, so results barely move."""

    def sweep():
        rows = []
        for name in WORKLOADS:
            lab = get_lab(name)
            base = lab.baseline()
            single = _timed(lab, MachineConfig(n_pfus=2))
            mapped = _timed(
                lab, MachineConfig(n_pfus=2, ext_latency_model="mapped")
            )
            rows.append(
                [name, base.cycles / single.cycles, base.cycles / mapped.cycles]
            )
        return rows

    rows = benchmark(sweep)
    write_result(
        "ablation_ext_latency.txt",
        "Selective 2-PFU speedup: single-cycle vs mapped PFU latency\n"
        + format_table(["workload", "single-cycle", "mapped"], rows),
    )
    for row in rows:
        assert row[2] > 1.0
        assert row[2] >= row[1] * 0.9   # shallow configs: small impact


def test_reconfig_model_ablation(benchmark):
    """Fixed 10-cycle vs bitstream-proportional reconfiguration."""

    def sweep():
        rows = []
        for name in WORKLOADS:
            lab = get_lab(name)
            base = lab.baseline()
            fixed = _timed(lab, MachineConfig(n_pfus=2, reconfig_latency=10))
            prop = _timed(
                lab,
                MachineConfig(
                    n_pfus=2, reconfig_model="bitstream",
                    config_bits_per_cycle=800,
                ),
            )
            rows.append([
                name,
                base.cycles / fixed.cycles,
                base.cycles / prop.cycles,
                prop.reconfig_cycles,
            ])
        return rows

    rows = benchmark(sweep)
    write_result(
        "ablation_reconfig_model.txt",
        "Selective 2-PFU speedup: fixed vs bitstream-proportional reconfig\n"
        + format_table(
            ["workload", "fixed 10cy", "bitstream", "bitstream cycles"], rows
        ),
    )
    for row in rows:
        assert row[2] > 1.0   # proportional loading doesn't kill the gains


def test_register_port_ablation(benchmark):
    """§2: allowing more PFU inputs means more register-file ports. How
    much performance does the 2-input constraint cost?"""

    def sweep():
        rows = []
        for name in WORKLOADS:
            lab = get_lab(name)
            counts = {}
            for max_inputs in (1, 2, 3):
                sel = greedy_select(
                    lab.profile, ExtractionParams(max_inputs=max_inputs)
                )
                gain = sum(
                    lab.profile.exec_counts[site.root]
                    * (len(site.nodes) - 1)
                    for site in sel.sites
                )
                counts[max_inputs] = (sel.n_configs, gain)
            rows.append([
                name,
                *(f"{counts[m][0]} cfg / {counts[m][1]} cyc" for m in (1, 2, 3)),
            ])
        return rows

    rows = benchmark(sweep)
    write_result(
        "ablation_register_ports.txt",
        "Greedy selection: configs and ideal cycle gain vs input limit\n"
        + format_table(["workload", "1 input", "2 inputs", "3 inputs"], rows),
    )
    assert rows
