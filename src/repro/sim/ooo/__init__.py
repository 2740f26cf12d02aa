"""The T1000 out-of-order timing model.

A trace-driven reproduction of the paper's SimpleScalar-based simulator
(§3.1): 4-wide fetch/decode/issue/commit, a Register Update Unit (RUU)
window, per-class functional units, realistic caches and TLBs, perfect
branch prediction — plus the programmable functional units (PFUs) of §2.2
with config-ID tag checks at dispatch, LRU replacement, and a configurable
reconfiguration latency.
"""

from repro.sim.ooo.config import MachineConfig
from repro.sim.ooo.pfu import PFUBank
from repro.sim.ooo.pipeline import OoOSimulator, simulate_many
from repro.sim.ooo.stats import SimStats

__all__ = [
    "MachineConfig",
    "OoOSimulator",
    "simulate_many",
    "SimStats",
    "PFUBank",
]
