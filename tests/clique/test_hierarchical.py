"""Tests for the paper's two-tier hierarchy: Clique on-chip + MWPM off-chip.

The hierarchy is the default :class:`~repro.clique.cascade.DecoderCascade`
(``tiers=("clique", "mwpm")``); the tier spellings, construction checks
and frozen seeded pins are covered in ``test_cascade.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clique.cascade import DecoderCascade
from repro.decoders.mwpm import MWPMDecoder
from repro.types import Coord, DecodeLocation, StabilizerType


@pytest.fixture(scope="module")
def hierarchical_d5():
    from repro.codes.rotated_surface import get_code

    return DecoderCascade(get_code(5), StabilizerType.X, tiers=("clique", "mwpm"))


def _width(code):
    return code.num_ancillas_of_type(StabilizerType.X)


class TestOnChipPath:
    def test_quiet_history_stays_on_chip(self, hierarchical_d5, code_d5):
        detections = np.zeros((4, _width(code_d5)), dtype=np.uint8)
        result = hierarchical_d5.decode_history(detections)
        assert result.correction == frozenset()
        assert result.num_offchip_rounds == 0
        assert all(loc is DecodeLocation.ON_CHIP for loc in result.round_locations)
        assert result.onchip_fraction == 1.0

    def test_single_data_error_is_handled_on_chip(self, hierarchical_d5, code_d5):
        error = Coord(4, 4)
        syndrome = code_d5.syndrome_of({error}, StabilizerType.X)
        detections = np.zeros((3, _width(code_d5)), dtype=np.uint8)
        detections[1] = syndrome
        result = hierarchical_d5.decode_history(detections)
        assert result.num_offchip_rounds == 0
        assert result.correction == frozenset({error})
        assert result.onchip_correction == frozenset({error})
        assert result.offchip_correction == frozenset()

    def test_transient_measurement_error_is_filtered_on_chip(
        self, hierarchical_d5, code_d5
    ):
        # A measurement error creates a same-ancilla detection pair in
        # consecutive rounds; the persistence filter absorbs it with no
        # correction and no off-chip traffic.
        detections = np.zeros((4, _width(code_d5)), dtype=np.uint8)
        detections[1, 5] = 1
        detections[2, 5] = 1
        result = hierarchical_d5.decode_history(detections)
        assert result.correction == frozenset()
        assert result.num_offchip_rounds == 0


def _bulk_ancilla_index(code) -> int:
    """Index of an X ancilla with no boundary qubits (its lone flip is complex)."""
    return next(
        a.index for a in code.ancillas(StabilizerType.X) if not a.boundary_qubits
    )


def _complex_round_signature(code) -> np.ndarray:
    """A persistent lone flip on a bulk ancilla — the Fig. 8(d) off-chip case."""
    signature = np.zeros(_width(code), dtype=np.uint8)
    signature[_bulk_ancilla_index(code)] = 1
    return signature


class TestOffChipPath:
    def test_lone_bulk_flip_goes_off_chip(self, hierarchical_d5, code_d5):
        detections = np.zeros((3, _width(code_d5)), dtype=np.uint8)
        detections[0] = _complex_round_signature(code_d5)
        result = hierarchical_d5.decode_history(detections)
        assert result.num_offchip_rounds == 1
        assert result.offchip_rounds == (0,)
        assert result.round_locations[0] is DecodeLocation.OFF_CHIP
        # The off-chip decoder must cancel exactly the flipped ancilla.
        syndrome = code_d5.syndrome_of(result.offchip_correction, StabilizerType.X)
        assert np.array_equal(syndrome, detections[0])

    def test_mixed_history_splits_rounds(self, hierarchical_d5, code_d5):
        simple = Coord(4, 4)
        detections = np.zeros((4, _width(code_d5)), dtype=np.uint8)
        detections[0] = code_d5.syndrome_of({simple}, StabilizerType.X)
        detections[2] = _complex_round_signature(code_d5)
        result = hierarchical_d5.decode_history(detections)
        assert result.round_locations[0] is DecodeLocation.ON_CHIP
        assert result.round_locations[2] is DecodeLocation.OFF_CHIP
        assert simple in result.onchip_correction

    def test_decode_metadata_reports_fractions(self, hierarchical_d5, code_d5):
        detections = np.zeros((2, _width(code_d5)), dtype=np.uint8)
        detections[0] = _complex_round_signature(code_d5)
        outcome = hierarchical_d5.decode(detections)
        assert outcome.handled
        assert outcome.metadata["num_rounds"] == 2
        assert outcome.metadata["num_offchip_rounds"] == 1
        assert outcome.metadata["onchip_fraction"] == pytest.approx(0.5)


class TestConfiguration:
    def test_custom_final_tier_is_used(self, code_d5):
        # The cascade hands decoder-instance final tiers their off-chip
        # window through the decode_event_windows entry point, so record
        # every entry point.
        calls = []

        class RecordingMWPM(MWPMDecoder):
            def decode(self, detections):
                calls.append(("decode", detections.copy()))
                return super().decode(detections)

            def decode_events_bitmap(self, rounds, ancillas):
                calls.append(("decode_events_bitmap", rounds.copy()))
                return super().decode_events_bitmap(rounds, ancillas)

            def decode_event_windows(self, rounds, ancillas, bounds):
                calls.append(("decode_event_windows", bounds.tolist()))
                return super().decode_event_windows(rounds, ancillas, bounds)

        final = RecordingMWPM(code_d5, StabilizerType.X)
        decoder = DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", final))
        detections = np.zeros((2, _width(code_d5)), dtype=np.uint8)
        detections[0] = _complex_round_signature(code_d5)
        decoder.decode_history(detections)
        num_events = int(detections[0].sum())
        assert calls == [("decode_event_windows", [0, num_events])]

    def test_final_tier_not_called_when_everything_is_trivial(self, code_d5):
        calls = []

        class RecordingMWPM(MWPMDecoder):
            def decode(self, detections):
                calls.append(detections.copy())
                return super().decode(detections)

            def decode_events_bitmap(self, rounds, ancillas):
                calls.append(rounds.copy())
                return super().decode_events_bitmap(rounds, ancillas)

            def decode_event_windows(self, rounds, ancillas, bounds):
                calls.append(bounds.copy())
                return super().decode_event_windows(rounds, ancillas, bounds)

        decoder = DecoderCascade(
            code_d5,
            StabilizerType.X,
            tiers=("clique", RecordingMWPM(code_d5, StabilizerType.X)),
        )
        detections = np.zeros((3, _width(code_d5)), dtype=np.uint8)
        detections[0] = code_d5.syndrome_of({Coord(4, 4)}, StabilizerType.X)
        decoder.decode_history(detections)
        assert calls == []

    def test_measurement_rounds_parameter_exposed(self, code_d5):
        decoder = DecoderCascade(code_d5, StabilizerType.X, measurement_rounds=3)
        assert decoder.measurement_rounds == 3

    def test_clique_and_offchip_tier_accessors(self, hierarchical_d5):
        assert hierarchical_d5.clique is not None
        assert isinstance(hierarchical_d5.offchip, MWPMDecoder)


class TestAccuracyAgainstBaseline:
    def test_logical_error_rate_close_to_mwpm(self, code_d3):
        from repro.noise.models import PhenomenologicalNoise
        from repro.simulation.memory import run_memory_experiment

        noise = PhenomenologicalNoise(0.02)
        baseline = run_memory_experiment(
            code_d3,
            noise,
            lambda code, stype: MWPMDecoder(code, stype),
            trials=600,
            rng=5,
        )
        hierarchical = run_memory_experiment(
            code_d3,
            noise,
            lambda code, stype: DecoderCascade(code, stype),
            trials=600,
            rng=5,
        )
        # Fig. 14: the hierarchy tracks the baseline closely; allow a modest
        # statistical + design margin.
        assert hierarchical.logical_error_rate <= 2.5 * max(
            baseline.logical_error_rate, 0.01
        )

    def test_most_rounds_stay_on_chip_at_low_error_rate(self, code_d5):
        from repro.noise.models import PhenomenologicalNoise
        from repro.simulation.memory import run_memory_experiment

        result = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(1e-3),
            lambda code, stype: DecoderCascade(code, stype),
            trials=200,
            rng=6,
        )
        assert result.onchip_round_fraction > 0.9


class TestNamedOffchipTiers:
    def test_mwpm_is_the_default(self, code_d5):
        decoder = DecoderCascade(code_d5, StabilizerType.X)
        assert decoder.tier_names == ("clique", "mwpm")
        assert isinstance(decoder.offchip, MWPMDecoder)

    def test_ready_decoder_is_selectable_as_offchip_tier(self, code_d5):
        from offchip_tiers import BitmapHookMWPM

        final = BitmapHookMWPM(code_d5, StabilizerType.X)
        decoder = DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", final))
        assert decoder.tier_names == ("clique", "BitmapHookMWPM")
        assert decoder.offchip is final

    def test_unknown_name_is_rejected(self, code_d5):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", "lookup_table"))
