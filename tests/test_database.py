"""Unit tests for the offline layer-cost database (Eq. 1)."""

import random
import sys
import threading

import pytest

from repro.core.baselines import NNBatonScheduler, StandaloneScheduler
from repro.core.metrics import ScheduleEvaluator
from repro.core.scar import SCARScheduler
from repro.dataflow.database import LayerCostDatabase
from repro.engine.evaluator import CandidateEvaluator
from repro.mcm.chiplet import arvr_chiplet, datacenter_chiplet
from repro.workloads.layer import conv, gemm


@pytest.fixture
def db():
    return LayerCostDatabase(clock_hz=500e6)


NVD = datacenter_chiplet("nvdla")
SHI = datacenter_chiplet("shidiannao")


class TestMemoization:
    def test_cache_grows_once_per_key(self, db):
        layer = conv("c", c=8, k=8, y=8, x=8)
        db.cost(layer, NVD)
        assert len(db) == 1
        db.cost(layer, NVD)
        assert len(db) == 1
        db.cost(layer, SHI)
        assert len(db) == 2

    def test_same_dims_different_name_share_entry(self, db):
        db.cost(conv("a", c=8, k=8, y=8, x=8), NVD)
        db.cost(conv("b", c=8, k=8, y=8, x=8), NVD)
        assert len(db) == 1

    def test_batch_is_part_of_key(self, db):
        layer = conv("a", c=8, k=8, y=8, x=8)
        db.cost(layer, NVD)
        db.cost(layer.with_batch(2), NVD)
        assert len(db) == 2

    def test_chiplet_class_not_identity(self, db):
        layer = conv("a", c=8, k=8, y=8, x=8)
        db.cost(layer, datacenter_chiplet("nvdla"))
        db.cost(layer, datacenter_chiplet("nvdla"))
        assert len(db) == 1
        db.cost(layer, arvr_chiplet("nvdla"))
        assert len(db) == 2


class TestQueries:
    def test_latency_and_energy_consistent_with_cost(self, db):
        layer = gemm("g", m=16, n_out=128, k_in=128)
        cost = db.cost(layer, NVD)
        assert db.latency_s(layer, NVD) == pytest.approx(
            cost.latency_s(db.clock_hz))
        assert db.energy_j(layer, NVD) == pytest.approx(cost.energy_j())

    def test_expected_latency_is_composition_mean(self, db):
        layer = gemm("g", m=16, n_out=512, k_in=512)
        lat_nvd = db.latency_s(layer, NVD)
        lat_shi = db.latency_s(layer, SHI)
        expected = db.expected_latency_s(layer, [NVD, NVD, SHI])
        assert expected == pytest.approx((2 * lat_nvd + lat_shi) / 3)

    def test_expected_energy_is_composition_mean(self, db):
        layer = conv("c", c=16, k=16, y=16, x=16)
        e_nvd = db.energy_j(layer, NVD)
        e_shi = db.energy_j(layer, SHI)
        assert db.expected_energy_j(layer, [NVD, SHI]) == pytest.approx(
            (e_nvd + e_shi) / 2)

    def test_expected_requires_chiplets(self, db):
        with pytest.raises(ValueError):
            db.expected_latency_s(conv("c", c=1, k=1, y=1, x=1), [])

    def test_affinity_picks_lower_edp_class(self, db):
        gemm_layer = gemm("g", m=128, n_out=5120, k_in=1280)
        stem = conv("s", c=3, k=64, y=112, x=112, r=7, stride=2)
        classes = {"nvdla": NVD, "shidiannao": SHI}
        assert db.affinity(gemm_layer, classes) == "nvdla"
        assert db.affinity(stem, classes) == "shidiannao"


def _tensor_evaluator(scenario, mcm, database):
    pytest.importorskip("numpy")
    from repro.engine.tensorkernel import TensorEvaluator
    return TensorEvaluator(scenario, mcm, database)


class TestSharedDatabase:
    """Every consumer reads the database it is handed, even an empty one.

    An empty database has ``len() == 0`` and so is falsy; a consumer that
    defaulted with ``database or LayerCostDatabase(...)`` would silently
    swap in a private store and the caller's would never fill.
    """

    @pytest.mark.parametrize("build", [
        lambda sc, mcm, db: SCARScheduler(mcm, database=db),
        lambda sc, mcm, db: ScheduleEvaluator(sc, mcm, db),
        lambda sc, mcm, db: CandidateEvaluator(sc, mcm, db),
        _tensor_evaluator,
        lambda sc, mcm, db: StandaloneScheduler(mcm, db),
        lambda sc, mcm, db: NNBatonScheduler(mcm, database=db),
    ], ids=["SCARScheduler", "ScheduleEvaluator", "CandidateEvaluator",
            "TensorEvaluator", "StandaloneScheduler", "NNBatonScheduler"])
    def test_empty_database_is_kept(self, build, tiny_scenario, het_mcm):
        db = LayerCostDatabase(clock_hz=het_mcm.clock_hz)
        assert len(db) == 0
        assert build(tiny_scenario, het_mcm, db).database is db

    def test_concurrent_lookups_match_serial_reference(self):
        """Threads sharing one database (the thread job backend) race on
        its unlocked check-then-insert; every racer must still read the
        serial value and the store must hold each key exactly once."""
        layers = [conv(f"c{i}", c=4 + i, k=8 + 2 * i, y=8 + i % 5,
                       x=8 + i % 3, r=1 + 2 * (i % 2)) for i in range(16)]
        layers += [gemm(f"g{i}", m=8 * (1 + i % 4), n_out=64 + 32 * i,
                        k_in=64 + 16 * i) for i in range(16)]
        chiplets = [datacenter_chiplet("nvdla"),
                    datacenter_chiplet("shidiannao"),
                    arvr_chiplet("nvdla"), arvr_chiplet("shidiannao")]
        pairs = [(layer, chiplet) for layer in layers
                 for chiplet in chiplets]
        reference = LayerCostDatabase(clock_hz=500e6)
        expected = [reference.cost(layer, chiplet)
                    for layer, chiplet in pairs]

        shared = LayerCostDatabase(clock_hz=500e6)
        mismatches: list[int] = []
        errors: list[Exception] = []
        start = threading.Barrier(8)

        def worker(seed: int) -> None:
            order = list(range(len(pairs)))
            random.Random(seed).shuffle(order)
            try:
                start.wait(timeout=30)
                for i in order:
                    if shared.cost(*pairs[i]) != expected[i]:
                        mismatches.append(i)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert mismatches == []
        assert len(shared) == len(reference) == len(pairs)
