import numpy as np
import pytest

from repro.dart.streaming import (
    ContourTrackerUnit,
    PitchAnalysisUnit,
    melody_frames,
    run_streaming_dart,
)
from repro.loader.nl_load import load_events
from repro.query import StampedeQuery
from repro.schema.stampede import STAMPEDE_SCHEMA
from repro.schema.validator import EventValidator
from repro.triana.appender import MemoryAppender

NOTES = [220.0, 261.6, 329.6, 392.0]


class TestMelodyFrames:
    def test_frame_shape(self):
        frames = melody_frames(NOTES, frames_per_note=3, frame_size=1024)
        assert len(frames) == 12
        assert all(len(f) == 1024 for f in frames)

    def test_deterministic(self):
        a = melody_frames(NOTES, seed=1)
        b = melody_frames(NOTES, seed=1)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestUnits:
    def test_pitch_analysis_unit(self):
        frames = melody_frames([220.0], frames_per_note=1)
        unit = PitchAnalysisUnit("shs")
        out = unit.process([frames[0]])
        assert abs(1200 * np.log2(out["f0"] / 220.0)) < 60
        assert unit.frames_analyzed == 1

    def test_contour_tracker_release(self):
        tracker = ContourTrackerUnit("t", target_voiced_frames=2,
                                     salience_floor=0.5)
        tracker.process([{"f0": 220.0, "salience": 1.0}])
        assert not tracker.satisfied
        tracker.process([{"f0": 220.0, "salience": 0.1}])  # unvoiced: skipped
        assert not tracker.satisfied
        tracker.process([{"f0": 221.0, "salience": 1.0}])
        assert tracker.satisfied
        assert len(tracker.contour) == 2


class TestStreamingExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        sink = MemoryAppender()
        res = run_streaming_dart(sink, notes=NOTES, frames_per_note=4,
                                 target_voiced_frames=10, seed=0)
        return sink, res

    def test_run_succeeds(self, result):
        sink, res = result
        assert res.report.ok

    def test_contour_tracks_melody(self, result):
        sink, res = result
        assert len(res.contour) >= 10
        # the contour visits each note's neighbourhood in order
        detected = np.array(res.contour)
        for note in NOTES[:2]:  # at least the first notes before release
            cents = np.abs(1200 * np.log2(detected / note))
            assert (cents < 80).any(), f"note {note} never detected"

    def test_multiple_invocations_per_job(self, result):
        sink, res = result
        loader = load_events(sink.events)
        q = StampedeQuery(loader.archive)
        wf = q.workflow_by_uuid(res.xwf_id)
        analysis_job = q.job_by_exec_id(wf.wf_id, "shs-analysis")
        (inst,) = q.job_instances_for_job(analysis_job.job_id)
        invocations = q.invocations_for_instance(inst.job_instance_id)
        assert len(invocations) > 1  # the streaming property
        assert [i.task_submit_seq for i in invocations] == list(
            range(1, len(invocations) + 1)
        )

    def test_events_schema_valid(self, result):
        sink, res = result
        assert EventValidator(STAMPEDE_SCHEMA).validate(sink.events).ok

    def test_local_condition_releases_early(self):
        """With a tiny target, the run releases before draining the stream."""
        sink = MemoryAppender()
        res = run_streaming_dart(sink, notes=NOTES, frames_per_note=8,
                                 target_voiced_frames=4, seed=1)
        assert res.report.ok
        loader = load_events(sink.events)
        q = StampedeQuery(loader.archive)
        wf = q.workflow_by_uuid(res.xwf_id)
        analysis_job = q.job_by_exec_id(wf.wf_id, "shs-analysis")
        (inst,) = q.job_instances_for_job(analysis_job.job_id)
        n_inv = len(q.invocations_for_instance(inst.job_instance_id))
        assert n_inv < res.frames_streamed  # released before the end
