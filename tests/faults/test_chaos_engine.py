"""Engine-layer chaos: injected crashes/hangs ride the organic failure
paths, so every fault produces a complete, lintable Stampede lifecycle.

The DAGMan retry test is the contract the archive analyses depend on: a
failed-then-retried job must emit events that pass the repro.lint
lifecycle (STL107/108) and start/end-pairing (STL109/110) rules — an
injected crash is indistinguishable, event-wise, from a real site
failure.
"""
import pytest

from repro.faults import FaultPlan
from repro.lint import LintConfig, Severity
from repro.lint.stream import lint_bp
from repro.loader.nl_load import load_events
from repro.model.entities import JobInstanceRow, WorkflowRow
from repro.pegasus import DAGManRun, Planner, run_pegasus_workflow
from repro.schema.events import Events
from repro.triana.appender import MemoryAppender
from repro.triana.scheduler import Scheduler
from repro.triana.taskgraph import TaskGraph
from repro.triana.unit import CallableUnit, ConstantUnit
from repro.workloads import diamond

LINT_CONFIG = LintConfig(allow_unknown_attrs=True)


def make_injector(**engine_spec):
    seed = engine_spec.pop("seed", 0)
    plan = FaultPlan.from_dict({"seed": seed, "engine": engine_spec})
    return plan.engine_injector(), plan


class TestEngineFaultInjector:
    def test_scripted_crash_and_hang(self):
        inj, plan = make_injector(
            crash={"j": [2]}, hang={"j": [1]}, hang_seconds=30.0
        )
        first = inj.attempt("j", 1)
        assert not first.crash and first.hang_seconds == 30.0
        second = inj.attempt("j", 2)
        assert second.crash and second.hang_seconds == 0.0
        assert inj.attempt("j", 3).clean
        assert inj.attempt("other", 1).clean
        assert plan.stats.engine_crashes == 1
        assert plan.stats.engine_hangs == 1

    def test_inactive_spec_is_always_clean(self):
        inj, plan = make_injector()
        assert all(inj.attempt("j", n).clean for n in range(1, 50))
        assert plan.stats.engine_crashes == 0

    def test_rates_are_seed_deterministic(self):
        def decisions(seed):
            inj, _ = make_injector(crash_rate=0.3, hang_rate=0.3, seed=seed)
            return [
                (d.crash, d.hang_seconds)
                for d in (inj.attempt("j", n) for n in range(1, 40))
            ]

        assert decisions(4) == decisions(4)
        assert decisions(4) != decisions(5)
        assert any(crash for crash, _ in decisions(4))


class TestDAGManFaults:
    def run_diamond(self, plan=None, seed=11):
        aw = diamond()
        ew = Planner().plan(aw)
        sink = MemoryAppender()
        faults = plan.engine_injector() if plan is not None else None
        run = DAGManRun(aw, ew, sink, seed=seed, faults=faults)
        report = run.run()
        return run, report, sink.events

    def compute_job_id(self):
        ew = Planner().plan(diamond())
        return ew.compute_jobs()[0].exec_job_id

    def test_injected_crash_is_retried_to_success(self):
        job_id = self.compute_job_id()
        plan = FaultPlan.from_dict({"engine": {"crash": {job_id: [1]}}})
        run, report, events = self.run_diamond(plan)
        assert plan.stats.engine_crashes == 1
        assert report.ok  # the retry rescued the workflow
        assert report.retries >= 1
        submits = [
            e for e in events
            if e.event == Events.JOB_INST_SUBMIT_START
            and e.attrs.get("job.id") == job_id
        ]
        assert len(submits) == 2  # failed attempt + successful retry

    def test_retried_job_lifecycle_lints_clean(self):
        # satellite: the chaos-injected failure must produce events that
        # pass the lifecycle and start/end-pairing lint rules
        job_id = self.compute_job_id()
        plan = FaultPlan.from_dict({"engine": {"crash": {job_id: [1]}}})
        _, report, events = self.run_diamond(plan)
        assert report.ok
        bp_text = "\n".join(e.to_bp() for e in events) + "\n"
        findings = lint_bp(bp_text, config=LINT_CONFIG)
        errors = [f for f in findings if f.severity >= Severity.ERROR]
        assert errors == []
        pairing = [f for f in findings if f.rule_id in ("STL109", "STL110")]
        assert pairing == []

    def test_crashed_attempts_archive_as_extra_job_instances(self):
        job_id = self.compute_job_id()
        plan = FaultPlan.from_dict({"engine": {"crash": {job_id: [1]}}})
        _, report, events = self.run_diamond(plan)
        loader = load_events(events)
        assert len(loader.archive.query(WorkflowRow).all()) == 1
        _, clean_report, clean_events = self.run_diamond(plan=None)
        clean_loader = load_events(clean_events)
        chaos_insts = loader.archive.query(JobInstanceRow).all()
        clean_insts = clean_loader.archive.query(JobInstanceRow).all()
        assert len(chaos_insts) == len(clean_insts) + 1

    def test_exhausted_retries_fail_the_workflow(self):
        job_id = self.compute_job_id()
        # crash every attempt DAGMan is willing to make (max_retries=3)
        plan = FaultPlan.from_dict(
            {"engine": {"crash": {job_id: [1, 2, 3, 4]}}}
        )
        _, report, events = self.run_diamond(plan)
        assert not report.ok
        # even the terminal failure lints clean
        bp_text = "\n".join(e.to_bp() for e in events) + "\n"
        errors = [
            f for f in lint_bp(bp_text, config=LINT_CONFIG)
            if f.severity >= Severity.ERROR
        ]
        assert errors == []

    def test_hang_stretches_the_makespan(self):
        job_id = self.compute_job_id()
        _, base_report, _ = self.run_diamond(plan=None)
        plan = FaultPlan.from_dict(
            {"engine": {"hang": {job_id: [1]}, "hang_seconds": 60.0}}
        )
        _, hung_report, _ = self.run_diamond(plan)
        assert plan.stats.engine_hangs == 1
        assert hung_report.ok  # a hang delays, it does not fail
        assert hung_report.wall_time >= base_report.wall_time + 50.0

    def test_run_pegasus_workflow_passes_faults_through(self):
        plan = FaultPlan.from_dict({"engine": {"crash_rate": 0.2}})
        sink = MemoryAppender()
        run = run_pegasus_workflow(
            diamond(), sink, seed=1, faults=plan.engine_injector()
        )
        assert run.faults is plan.engine_injector()


class TestTrianaFaults:
    def pipeline(self):
        g = TaskGraph("pipe")
        src = g.add(ConstantUnit("src", [1, 2, 3]))
        work = g.add(CallableUnit("work", lambda ins: sum(ins[0])))
        g.connect(src, work)
        return g

    def test_injected_crash_surfaces_as_unit_error(self):
        plan = FaultPlan.from_dict({"engine": {"crash": {"work": [1]}}})
        sched = Scheduler(self.pipeline(), fault_injector=plan.engine_injector())
        report = sched.run()
        assert plan.stats.engine_crashes == 1
        assert not report.ok

    def test_hang_inflates_invocation_duration(self):
        base = Scheduler(self.pipeline(), seed=5).run()
        plan = FaultPlan.from_dict(
            {"engine": {"hang": {"work": [1]}, "hang_seconds": 45.0}}
        )
        hung = Scheduler(
            self.pipeline(), seed=5, fault_injector=plan.engine_injector()
        ).run()
        assert hung.ok
        assert hung.wall_time >= base.wall_time + 40.0

    def test_clean_plan_leaves_execution_untouched(self):
        plan = FaultPlan.from_dict({})
        base = Scheduler(self.pipeline(), seed=5).run()
        faulted = Scheduler(
            self.pipeline(), seed=5, fault_injector=plan.engine_injector()
        ).run()
        assert faulted.ok
        assert faulted.wall_time == base.wall_time
