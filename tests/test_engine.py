"""Unit tests for the deployment-engine package."""

import numpy as np
import pytest

from repro.engine import (
    AllBestPolicy,
    CoordinationPolicy,
    DeploymentEngine,
    DeploymentSpec,
    FullEECSPolicy,
    IdealEnvironment,
    SimulationClock,
    SubsetPolicy,
    available_policies,
    register_policy,
    resolve_policy,
    validate_policy_name,
)
from repro.engine.policy import _REGISTRY, RoundPlan


class TestSimulationClock:
    def test_frame_cadence(self):
        clock = SimulationClock(seconds_per_frame=2.0)
        assert clock.now_s == 0.0
        assert clock.time_at_frame(1000) == 2000.0
        assert clock.advance_to_frame(1500) == 3000.0
        assert clock.now_s == 3000.0

    def test_reset(self):
        clock = SimulationClock()
        clock.advance_to_frame(100)
        clock.reset()
        assert clock.now_s == 0.0


class TestPolicyRegistry:
    def test_all_registered(self):
        assert available_policies() == (
            "all_best", "cell", "cell_full", "fixed", "full", "peer",
            "predictive", "subset",
        )

    def test_unknown_name_lists_valid_policies(self):
        with pytest.raises(ValueError) as excinfo:
            validate_policy_name("bestest")
        message = str(excinfo.value)
        assert "bestest" in message
        for name in available_policies():
            assert repr(name) in message

    def test_resolve_by_name_and_instance(self):
        policy = resolve_policy("full")
        assert isinstance(policy, FullEECSPolicy)
        assert resolve_policy(policy) is policy

    def test_full_is_subset_with_downgrade(self):
        assert issubclass(FullEECSPolicy, SubsetPolicy)
        assert FullEECSPolicy.enable_downgrade
        assert not SubsetPolicy.enable_downgrade

    def test_fixed_requires_assignment(self):
        with pytest.raises(ValueError):
            resolve_policy("fixed").validate(None)
        resolve_policy("fixed").validate({"cam": "HOG"})

    def test_new_policy_needs_only_registration(self):
        """Adding a strategy = subclass + register, no engine edits."""

        @register_policy
        class EveryOtherFramePolicy(AllBestPolicy):
            name = "every_other"

        try:
            assert "every_other" in available_policies()
            assert isinstance(
                resolve_policy("every_other"), EveryOtherFramePolicy
            )
        finally:
            del _REGISTRY["every_other"]

    def test_engine_loop_has_no_mode_string_branching(self):
        """The engine core never compares against policy names."""
        import repro.engine.core as core
        from pathlib import Path

        source = Path(core.__file__).read_text()
        for name in available_policies():
            assert f'== "{name}"' not in source
            assert f"== '{name}'" not in source


class TestRoundPlanning:
    def test_all_best_single_round(self, runner1):
        engine = runner1
        records = engine.dataset.frames(1000, 1300, only_ground_truth=True)
        plans = AllBestPolicy().plan_rounds(engine, records, 2.0, None)
        assert len(plans) == 1
        assert plans[0].assess_count == 0
        assert len(plans[0].static_assignments) == len(records)

    def test_subset_partitions_by_recalibration_interval(self, runner1):
        engine = runner1
        records = engine.dataset.frames(1000, 2500, only_ground_truth=True)
        plans = SubsetPolicy().plan_rounds(engine, records, 2.0, None)
        per_round = engine.gt_frames_per_round
        assert per_round == 20  # 500-frame interval / gt every 25
        assert [len(p.records) for p in plans] == [20, 20, 20]
        assert all(
            p.assess_count == engine.gt_frames_per_assessment for p in plans
        )


class TestDeploymentSpec:
    def test_validates_policy_at_construction(self):
        with pytest.raises(ValueError, match="valid policies are"):
            DeploymentSpec(dataset_number=1, policy="warp")

    def test_validates_fixed_assignment_at_construction(self):
        with pytest.raises(ValueError, match="assignment"):
            DeploymentSpec(dataset_number=1, policy="fixed")
        DeploymentSpec(
            dataset_number=1,
            policy="fixed",
            assignment=(("lab-cam1", "HOG"),),
        )

    def test_spec_is_hashable_and_picklable(self):
        import pickle

        spec = DeploymentSpec(dataset_number=1, policy="subset", budget=2.0)
        assert hash(spec) == hash(
            DeploymentSpec(dataset_number=1, policy="subset", budget=2.0)
        )
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestEngineSeams:
    def test_ideal_environment_matches_direct_run(self, runner1):
        engine = runner1
        direct = engine.run("all_best", budget=2.0, start=1000, end=1200)
        deployed = engine.deploy(
            IdealEnvironment(
                policy="all_best", budget=2.0, start=1000, end=1200
            )
        )
        assert vars(deployed) == vars(direct)

    def test_shared_context_caches_by_config(self):
        from repro.core.config import EECSConfig
        from repro.engine import shared_context

        base = shared_context(1)
        assert shared_context(1) is base
        assert shared_context(1, train_seed=2018) is base
        other = shared_context(1, config=EECSConfig(gamma_n=0.9))
        assert other is not base
