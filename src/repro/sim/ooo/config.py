"""Machine configuration for the T1000 timing model."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.sim.cache.hierarchy import HierarchyConfig
from repro.utils.fields import require_exact_ints


@dataclass(frozen=True)
class MachineConfig:
    """T1000 microarchitecture parameters.

    Defaults model the paper's machine: a 4-issue out-of-order superscalar
    (SimpleScalar RUU scheme) with 2 PFUs and a 10-cycle reconfiguration
    penalty. ``n_pfus=None`` models the unlimited-PFU idealisation of §4.
    """

    fetch_width: int = 4
    decode_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    ruu_size: int = 64

    n_ialu: int = 4          # single-cycle integer ALUs (also branches)
    n_imult: int = 1         # pipelined integer multiplier
    n_memports: int = 2      # cache ports (loads + stores)

    n_pfus: int | None = 2   # None = unlimited PFUs
    reconfig_latency: int = 10  # cycles to load a PFU configuration

    #: "fixed" charges ``reconfig_latency`` per configuration load (the
    #: paper's model); "bitstream" derives each configuration's load time
    #: from its XC4000 bitstream size (§6 hook): bits / bandwidth.
    reconfig_model: str = "fixed"
    config_bits_per_cycle: int = 800

    #: "single_cycle" executes every extended instruction in one cycle
    #: (§3.1's default assumption); "mapped" derives the latency from the
    #: LUT mapping's critical path ("this could easily be altered to
    #: allow for varying execution times", §3.1).
    ext_latency_model: str = "single_cycle"
    lut_levels_per_cycle: int = 8   # LUT levels that fit one clock

    #: "perfect" matches the paper (§3.1); "bimodal" adds a 2-bit
    #: predictor with redirect-on-misprediction (extension/ablation).
    branch_predictor: str = "perfect"
    bpred_entries: int = 2048

    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)

    #: Execution strategy, not semantics: allow the native pre-pass and
    #: replay kernels (bit-identical to the reference loop; see
    #: docs/simulator.md "Fast path"). ``False`` forces the reference
    #: loop, as does ``REPRO_SIM_REFERENCE=1`` in the environment.
    sim_fast_path: bool = True

    def __post_init__(self) -> None:
        # Exact ints make ``==`` imply one content digest (the store
        # memoizes machine fingerprints by value).
        require_exact_ints(self)
        for name in (
            "fetch_width",
            "decode_width",
            "issue_width",
            "commit_width",
            "ruu_size",
            "n_ialu",
            "n_imult",
            "n_memports",
        ):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.n_pfus is not None and self.n_pfus < 1:
            raise ConfigurationError("n_pfus must be >= 1 or None (unlimited)")
        if self.reconfig_latency < 0:
            raise ConfigurationError("reconfig_latency must be >= 0")
        if self.reconfig_model not in ("fixed", "bitstream"):
            raise ConfigurationError(
                f"unknown reconfig_model {self.reconfig_model!r}"
            )
        if self.ext_latency_model not in ("single_cycle", "mapped"):
            raise ConfigurationError(
                f"unknown ext_latency_model {self.ext_latency_model!r}"
            )
        if self.branch_predictor not in ("perfect", "bimodal"):
            raise ConfigurationError(
                f"unknown branch_predictor {self.branch_predictor!r}"
            )
        if self.config_bits_per_cycle < 1 or self.lut_levels_per_cycle < 1:
            raise ConfigurationError("bandwidth/levels parameters must be >= 1")
        if self.bpred_entries < 1 or self.bpred_entries & (self.bpred_entries - 1):
            raise ConfigurationError("bpred_entries must be a power of two")


#: The baseline superscalar of Figure 2 bar 1: identical core, no PFUs.
#: (Baseline runs contain no ``ext`` instructions, so any PFU setting is
#: inert; this constant just documents intent.)
BASELINE = MachineConfig()
