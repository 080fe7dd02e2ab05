"""The vectorized cost kernel (``eval_mode="vector"``).

The contract under test: the numpy tensor kernel is an *accelerator*,
never a different cost model.  Every schedule, metric, candidate
population and perf counter it produces must be bit-identical to the
scalar Sec. III-E reference, across scenarios, templates (mesh and
triangular), seg-search modes and randomly generated tenant mixes; and
the whole ``eval_mode`` plumbing (request validation, wire round-trip,
session default, sweep axis, CLI flags, missing-numpy failure) must
behave like the existing ``backend`` knob.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.api import ScheduleRequest, Session
from repro.core import QUICK_BUDGET, SCARScheduler, objective_by_name
from repro.core.evalcache import EvalCache
from repro.engine import (
    EVAL_MODES,
    CandidateEvaluator,
    TensorEvaluator,
    have_numpy,
)
from repro.engine.tensorkernel import require_numpy
from repro.errors import ConfigError, SearchError
from repro.mcm import templates
from repro.sweep import SweepSpec
from repro.workloads import scenario
from repro.workloads.generator import random_mix


def _results(request: ScheduleRequest):
    """(scalar, vector) results for one request via session defaults.

    Both sessions see the *same* request (``eval_mode=None``), so
    ``ScheduleResult.same_payload`` -- which compares the request too --
    is exactly the parity contract.
    """
    scalar = Session(eval_mode="scalar").submit(request)
    vector = Session(eval_mode="vector").submit(request)
    return scalar, vector


def _quick_request(workload, **kwargs) -> ScheduleRequest:
    kwargs.setdefault("nsplits", 2)
    kwargs.setdefault("budget", QUICK_BUDGET)
    return ScheduleRequest.for_scenario(workload, **kwargs)


class TestBitIdentity:
    """vector == scalar, bit for bit, through the full public stack."""

    @pytest.mark.parametrize("scenario_id", [1, 2])
    def test_table3_scenarios(self, scenario_id):
        scalar, vector = _results(_quick_request(scenario_id))
        assert vector.same_payload(scalar)

    def test_evolutionary_search(self):
        scalar, vector = _results(
            _quick_request(1, seg_search="evolutionary"))
        assert vector.same_payload(scalar)

    def test_triangular_template(self):
        scalar, vector = _results(_quick_request(1, template="het_t"))
        assert vector.same_payload(scalar)

    @pytest.mark.parametrize("seed", [7, 19, 23])
    def test_random_tenant_mixes(self, seed):
        """Seeded random workloads: batches, models and tenant counts
        vary, so divisor grids and table shapes do too."""
        workload = random_mix(seed, tenants=2 + seed % 2,
                              use_case="datacenter")
        scalar, vector = _results(_quick_request(workload))
        assert vector.same_payload(scalar)

    def test_perf_accounting_parity(self):
        """The delta-evaluation counters ride through PerfReport
        unchanged: the tensor kernel plugs in below the accounting."""
        scalar, vector = _results(_quick_request(1))
        assert vector.perf.num_evaluated == scalar.perf.num_evaluated
        assert vector.perf.num_segments == scalar.perf.num_segments
        assert (vector.perf.num_segments_recosted
                == scalar.perf.num_segments_recosted)
        assert vector.perf.num_segments_recosted > 0

    def test_explicit_request_mode_beats_session_default(self):
        request = _quick_request(1, eval_mode="vector")
        result = Session(eval_mode="scalar").submit(request)
        baseline = Session().submit(_quick_request(1))
        assert result.schedule == baseline.schedule
        assert result.metrics == baseline.metrics

    def test_delta_off_parity(self):
        """use_delta=False recomputes every chain through the tensor
        kernel; results still match the scalar reference."""
        sc = scenario(1)
        mcm = templates.build("het_sides_3x3", sc.use_case)

        def run(eval_mode):
            return SCARScheduler(
                mcm, objective=objective_by_name("edp"), nsplits=2,
                budget=QUICK_BUDGET, use_delta=False,
                eval_mode=eval_mode).schedule(sc)

        scalar, vector = run("scalar"), run("vector")
        assert vector.metrics == scalar.metrics
        assert vector.schedule == scalar.schedule
        assert vector.num_evaluated == scalar.num_evaluated


class TestEvaluatorUnit:
    """TensorEvaluator as a drop-in CandidateEvaluator."""

    def test_is_candidate_evaluator(self):
        sc = scenario(1)
        mcm = templates.build("het_sides_3x3", sc.use_case)
        evaluator = TensorEvaluator(sc, mcm, cache=EvalCache())
        assert isinstance(evaluator, CandidateEvaluator)

    def test_schedule_evaluate_matches_scalar(self):
        sc = scenario(1)
        mcm = templates.build("het_sides_3x3", sc.use_case)
        result = SCARScheduler(mcm, nsplits=2, budget=QUICK_BUDGET,
                               eval_mode="scalar").schedule(sc)
        vector = TensorEvaluator(sc, mcm, cache=EvalCache())
        scalar = CandidateEvaluator(sc, mcm, cache=EvalCache())
        assert (vector.evaluate(result.schedule)
                == scalar.evaluate(result.schedule))


class TestValidationAndPlumbing:
    """eval_mode behaves like the backend knob at every layer."""

    def test_eval_modes_constant(self):
        assert EVAL_MODES == ("scalar", "vector")
        assert have_numpy()
        require_numpy()  # no-op when numpy is importable

    def test_request_rejects_unknown_mode(self):
        with pytest.raises(ConfigError, match="eval_mode"):
            ScheduleRequest(scenario_id=1, eval_mode="bogus")

    def test_scheduler_rejects_unknown_mode(self):
        mcm = templates.build("het_sides_3x3", "datacenter")
        with pytest.raises(SearchError, match="eval_mode"):
            SCARScheduler(mcm, eval_mode="fast")

    def test_session_rejects_unknown_mode(self):
        with pytest.raises(ConfigError, match="eval_mode"):
            Session(eval_mode="tensor")

    def test_make_evaluator_picks_kernel(self):
        sc = scenario(1)
        mcm = templates.build("het_sides_3x3", sc.use_case)
        scalar = SCARScheduler(mcm).make_evaluator(sc)
        vector = SCARScheduler(mcm,
                               eval_mode="vector").make_evaluator(sc)
        assert type(scalar) is CandidateEvaluator
        assert type(vector) is TensorEvaluator
        assert scalar.delta and vector.delta

    def test_wire_round_trip(self):
        request = ScheduleRequest(scenario_id=1, eval_mode="vector")
        assert ScheduleRequest.from_dict(request.to_dict()) == request
        assert '"eval_mode":"vector"' in request.cache_key()

    def test_cache_key_separates_modes(self):
        scalar = ScheduleRequest(scenario_id=1, eval_mode="scalar")
        vector = ScheduleRequest(scenario_id=1, eval_mode="vector")
        unset = ScheduleRequest(scenario_id=1)
        assert len({scalar.cache_key(), vector.cache_key(),
                    unset.cache_key()}) == 3

    def test_legacy_document_means_unset(self):
        """Requests serialized before the kernel landed still load."""
        data = ScheduleRequest(scenario_id=1).to_dict()
        del data["eval_mode"]
        assert ScheduleRequest.from_dict(data).eval_mode is None

    def test_sweep_axis(self):
        spec = SweepSpec(scenarios=(1,),
                         eval_modes=("scalar", "vector"))
        requests = spec.requests()
        assert spec.size == len(requests) == 2
        assert {r.eval_mode for r in requests} == {"scalar", "vector"}
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_sweep_legacy_document_means_scalar_default(self):
        data = SweepSpec(scenarios=(1,)).to_dict()
        del data["eval_modes"]
        assert SweepSpec.from_dict(data).eval_modes == (None,)

    def test_determinism_lint_covers_the_kernel(self):
        from repro.analysis import SourceFile, run_checkers

        snippet = SourceFile("tensorkernel.py",
                             "import random\nx = random.random()\n",
                             module="repro.engine.tensorkernel")
        report = run_checkers([snippet], select=["SCAR002"])
        assert [f.code for f in report.findings] == ["SCAR002"]


class TestMissingNumpy:
    """Without numpy: vector fails fast and clear, scalar never cares."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        import repro.engine.tensorkernel as tk

        monkeypatch.setattr(tk, "_np", None)

    def test_have_and_require(self, no_numpy):
        assert not have_numpy()
        with pytest.raises(ConfigError,
                           match="requires numpy.*eval_mode='scalar'"):
            require_numpy()

    def test_scheduler_fails_at_construction(self, no_numpy):
        mcm = templates.build("het_sides_3x3", "datacenter")
        with pytest.raises(ConfigError, match="numpy"):
            SCARScheduler(mcm, eval_mode="vector")

    def test_session_fails_at_construction(self, no_numpy):
        with pytest.raises(ConfigError, match="numpy"):
            Session(eval_mode="vector")

    def test_vector_request_fails_as_config_error(self, no_numpy):
        """A vector request on a numpy-less host surfaces the stable
        config_error wire code (HTTP 400 through the service)."""
        from repro.api import ErrorDocument

        request = _quick_request(1, eval_mode="vector")
        with pytest.raises(ConfigError) as excinfo:
            Session().submit(request)
        assert ErrorDocument.from_exception(excinfo.value).code \
            == "config_error"

    def test_scalar_path_still_runs(self, no_numpy):
        result = Session().submit(_quick_request(1))
        assert result.num_evaluated > 0
