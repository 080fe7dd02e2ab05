"""AI accelerator chiplet (Definition 2).

``c = {df, N_PE, BW_noc, BW_mem, Sz_mem}`` -- a chiplet is fully described
by its dataflow class and resource tuple.  Two chiplets with equal fields
belong to the same *class* for cost-database purposes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.dataflow.dataflow import by_name
from repro.errors import HardwareError
from repro.units import MB


@dataclass(frozen=True)
class Chiplet:
    """One accelerator chiplet.

    ``dataflow``    registered dataflow name (``nvdla`` / ``shidiannao``).
    ``num_pes``     processing-engine count.
    ``sram_bytes``  L2 shared scratchpad size (paper: 10 MB).
    ``noc_gbps``    on-chiplet operand-delivery bandwidth.
    ``mem_gbps``    chiplet shared-memory port bandwidth.
    """

    dataflow: str
    num_pes: int
    sram_bytes: int = 10 * MB
    noc_gbps: float = 512.0
    mem_gbps: float = 512.0

    def __post_init__(self) -> None:
        by_name(self.dataflow)  # validates the dataflow exists
        if self.num_pes < 1:
            raise HardwareError(f"num_pes must be >= 1, got {self.num_pes}")
        if self.sram_bytes < 1:
            raise HardwareError(
                f"sram_bytes must be >= 1, got {self.sram_bytes}")
        if self.noc_gbps <= 0 or self.mem_gbps <= 0:
            raise HardwareError("bandwidths must be positive")

    def with_dataflow(self, dataflow: str) -> "Chiplet":
        """Same resources, different dataflow class."""
        return replace(self, dataflow=dataflow)

    @property
    def class_key(self) -> tuple:
        """Hashable chiplet-class identity.

        Keys the per-class placement tables and affinity scores of the
        engine; :class:`~repro.dataflow.database.LayerCostDatabase` reads
        the same five fields directly into its flat cache key.
        """
        return (self.dataflow, self.num_pes, self.sram_bytes, self.noc_gbps,
                self.mem_gbps)


def datacenter_chiplet(dataflow: str) -> Chiplet:
    """Paper's datacenter operating point: 4096 PEs, 10 MB L2."""
    return Chiplet(dataflow=dataflow, num_pes=4096, sram_bytes=10 * MB,
                   noc_gbps=512.0, mem_gbps=512.0)


def arvr_chiplet(dataflow: str) -> Chiplet:
    """Paper's AR/VR (edge) operating point: 256 PEs, 10 MB L2."""
    return Chiplet(dataflow=dataflow, num_pes=256, sram_bytes=10 * MB,
                   noc_gbps=32.0, mem_gbps=32.0)


def chiplet_for_use_case(dataflow: str, use_case: str) -> Chiplet:
    """Chiplet operating point for a scenario's use case."""
    if use_case == "datacenter":
        return datacenter_chiplet(dataflow)
    if use_case == "arvr":
        return arvr_chiplet(dataflow)
    raise HardwareError(f"unknown use case {use_case!r}")
