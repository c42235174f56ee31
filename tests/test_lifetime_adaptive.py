"""Tests for the lifetime simulation and the adaptive deployment."""

import pytest

from repro.experiments.lifetime import lifetime_extension, simulate_lifetime


class TestLifetime:
    @pytest.fixture(scope="class")
    def comparison(self, runner1):
        return lifetime_extension(
            runner1, battery_joules=400.0, budget=2.0
        )

    def test_eecs_outlives_baseline(self, comparison):
        assert (
            comparison["full"].frames_survived
            >= comparison["all_best"].frames_survived
        )

    def test_lifetime_detects_humans(self, comparison):
        for result in comparison.values():
            assert result.humans_detected > 0

    def test_energy_bounded_by_batteries(self, comparison):
        for result in comparison.values():
            assert result.energy_consumed <= 4 * 400.0 + 1e-6

    def test_deaths_recorded_when_batteries_drain(self, runner1):
        result = simulate_lifetime(
            runner1,
            mode="all_best",
            battery_joules=150.0,
            budget=2.0,
            max_passes=10,
        )
        # A 150 J battery dies within two passes of ~86 J each.
        assert len(result.deaths) >= 1

    def test_rejects_bad_inputs(self, runner1):
        with pytest.raises(ValueError):
            simulate_lifetime(runner1, "warp", 100.0, 2.0)
        with pytest.raises(ValueError):
            simulate_lifetime(runner1, "full", -5.0, 2.0)


class TestAdaptiveDeployment:
    @pytest.fixture(scope="class")
    def deployment(self):
        from repro.experiments.adaptive import AdaptiveDeployment

        return AdaptiveDeployment(
            dataset_numbers=(1, 2),
            window_frames=10,
            vocabulary_size=200,
        )

    @pytest.fixture(scope="class")
    def scenario(self, deployment):
        return deployment.run_scenario()

    def test_matches_correct_environment(self, scenario):
        """The GFK comparison identifies each phase's own training
        item — the property Table V establishes."""
        for phase in scenario:
            assert phase.correct_match, (
                phase.dataset_number, phase.matched_item,
            )

    def test_chap_phase_selects_acf(self, scenario):
        by_dataset = {p.dataset_number: p for p in scenario}
        assert by_dataset[2].algorithm == "ACF"

    def test_lsvm_excluded(self, scenario):
        for phase in scenario:
            assert phase.algorithm != "LSVM"

    def test_phase_accuracy_reasonable(self, scenario):
        for phase in scenario:
            assert phase.counts.f_score > 0.4

    def test_energy_positive(self, scenario):
        for phase in scenario:
            assert phase.energy_joules > 0

    def test_unknown_phase_raises(self, deployment):
        with pytest.raises(KeyError):
            deployment.run_phase(3)

    def test_needs_two_environments(self):
        from repro.experiments.adaptive import AdaptiveDeployment

        with pytest.raises(ValueError):
            AdaptiveDeployment(dataset_numbers=(1,))
