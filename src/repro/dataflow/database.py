"""Offline layer-cost database (the "intra-layer cost database" of Fig. 1).

The paper's MCM-Reconfig engine consumes per-layer latency/energy figures
"offline-analyzed by MAESTRO" for each chiplet dataflow class.  This module
provides that database: a memoized front-end over
:func:`repro.dataflow.cost.compute_layer_cost`, keyed by a layer's
cost-relevant dimensions and the *class* of a chiplet (its resource
tuple), plus the Eq. (1) expectation helpers::

    E(Lat(l)) = sum_i (n_dfi / |C|) * Lat(l -> i)
"""

from __future__ import annotations

from typing import Iterable, Mapping, Protocol

from repro.dataflow.cost import LayerCost, compute_layer_cost
from repro.dataflow.dataflow import Dataflow, by_name
from repro.dataflow.energy import DEFAULT_ENERGY, EnergyTable
from repro.workloads.layer import Layer


class ChipletLike(Protocol):
    """Structural type for anything describing a chiplet class.

    :class:`repro.mcm.chiplet.Chiplet` satisfies this; tests may pass any
    object with these attributes.
    """

    dataflow: str
    num_pes: int
    sram_bytes: int
    noc_gbps: float
    mem_gbps: float


class LayerCostDatabase:
    """Memoized per-(layer, chiplet-class) cost store.

    One database instance corresponds to one operating point (clock, energy
    table).  A :class:`~repro.api.session.Session` keeps one per clock
    domain for its whole life and hands it to every scheduler, evaluator
    and kernel of every request, so each distinct (layer shape, batch,
    chiplet class) is computed once per session and every later lookup is
    a dictionary hit (the paper's "offline analysis" step); process-pool
    workers start each request from an empty one.  Entries are
    never evicted: the key space is bounded by distinct layer shapes x
    batch divisors x chiplet classes (3,264 for the whole Table III grid).

    The cache key is one flat tuple of the layer's ten cost-relevant
    fields followed by the chiplet's five class fields -- exactly the
    arguments :func:`~repro.dataflow.cost.compute_layer_cost` reads besides
    the database's own clock and energy table.  Layer names are not part
    of it, so same-shaped layers share an entry.
    """

    def __init__(self, clock_hz: float = 500e6,
                 energy: EnergyTable = DEFAULT_ENERGY) -> None:
        self.clock_hz = clock_hz
        self.energy = energy
        self._cache: dict[tuple, LayerCost] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def cost(self, layer: Layer, chiplet: ChipletLike) -> LayerCost:
        """Intra-chiplet cost of ``layer`` on ``chiplet``'s class."""
        key = (layer.op, layer.n, layer.k, layer.c, layer.y, layer.x,
               layer.r, layer.s, layer.stride, layer.bytes_per_element,
               chiplet.dataflow, chiplet.num_pes, chiplet.sram_bytes,
               chiplet.noc_gbps, chiplet.mem_gbps)
        cached = self._cache.get(key)
        if cached is None:
            # Unlocked check-then-insert is safe when threads share one
            # database (``scar serve --job-backend thread``): the value is
            # a pure function of the key, so a racing duplicate computes
            # and stores an equal LayerCost, and a reader sees either no
            # entry or a complete one.
            dataflow = by_name(chiplet.dataflow)
            cached = compute_layer_cost(
                layer, dataflow,
                num_pes=chiplet.num_pes,
                sram_bytes=chiplet.sram_bytes,
                noc_gbps=chiplet.noc_gbps,
                mem_gbps=chiplet.mem_gbps,
                clock_hz=self.clock_hz,
                energy=self.energy,
            )
            self._cache[key] = cached
        return cached

    def latency_s(self, layer: Layer, chiplet: ChipletLike) -> float:
        """Compute latency of ``layer`` on ``chiplet`` in seconds."""
        return self.cost(layer, chiplet).latency_s(self.clock_hz)

    def energy_j(self, layer: Layer, chiplet: ChipletLike) -> float:
        """Compute energy of ``layer`` on ``chiplet`` in joules."""
        return self.cost(layer, chiplet).energy_j()

    # -- Eq. (1) expectations over a heterogeneous composition ----------

    def expected_latency_s(self, layer: Layer,
                           chiplets: Iterable[ChipletLike]) -> float:
        """``E(Lat(l))`` over the MCM's chiplet composition (Eq. 1)."""
        chiplet_list = list(chiplets)
        if not chiplet_list:
            raise ValueError("expected_latency_s needs at least one chiplet")
        total = sum(self.latency_s(layer, chiplet)
                    for chiplet in chiplet_list)
        return total / len(chiplet_list)

    def expected_energy_j(self, layer: Layer,
                          chiplets: Iterable[ChipletLike]) -> float:
        """Expected energy of ``layer`` over the chiplet composition."""
        chiplet_list = list(chiplets)
        if not chiplet_list:
            raise ValueError("expected_energy_j needs at least one chiplet")
        total = sum(self.energy_j(layer, chiplet)
                    for chiplet in chiplet_list)
        return total / len(chiplet_list)

    def affinity(self, layer: Layer,
                 chiplets_by_class: Mapping[str, ChipletLike]) -> str:
        """Name of the dataflow class with the lowest EDP for ``layer``."""
        best_name = ""
        best_edp = float("inf")
        for name, chiplet in sorted(chiplets_by_class.items()):
            cost = self.cost(layer, chiplet)
            edp = cost.latency_s(self.clock_hz) * cost.energy_j()
            if edp < best_edp:
                best_edp = edp
                best_name = name
        return best_name
