import pytest

from repro.loader.nl_load import load_events
from repro.pegasus import PlannerConfig, run_pegasus_workflow
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender
from repro.workloads import (
    chain,
    cybershake,
    diamond,
    epigenomics,
    fan,
    ligo_inspiral,
    montage,
    random_layered_dag,
)


class TestShapes:
    def test_chain(self):
        aw = chain(5)
        assert len(aw) == 5
        assert len(aw.edges()) == 4
        assert aw.critical_path_seconds() == 50.0
        with pytest.raises(ValueError):
            chain(0)

    def test_diamond(self):
        aw = diamond()
        assert len(aw) == 4
        assert aw.levels()["d"] == 2

    def test_fan(self):
        aw = fan(width=7)
        assert len(aw) == 9
        assert aw.parents("join") == [f"work{i}" for i in range(7)]
        with pytest.raises(ValueError):
            fan(0)

    def test_random_layered_dag_connected_and_acyclic(self):
        aw = random_layered_dag(50, n_layers=6, seed=3)
        assert len(aw) == 50
        aw.topological_order()  # raises on cycles
        levels = aw.levels()
        # every task beyond the first layer has a parent
        for task in aw.tasks():
            if levels[task.task_id] > 0:
                assert aw.parents(task.task_id) or levels[task.task_id] == 0

    def test_random_dag_deterministic(self):
        a = random_layered_dag(30, seed=9)
        b = random_layered_dag(30, seed=9)
        assert a.edges() == b.edges()
        assert [t.runtime_estimate for t in a.tasks()] == [
            t.runtime_estimate for t in b.tasks()
        ]


class TestScienceShapes:
    def test_cybershake_structure(self):
        aw = cybershake(n_ruptures=10, variations_per_rupture=2)
        assert len(aw) == 2 + 2 * 10 * 2 + 1
        # SGTs fan into every synthesis task
        assert len(aw.children("sgt_x")) == 20
        assert aw.parents("hazard_curve")  # all peaks feed the curve
        assert len(aw.parents("hazard_curve")) == 20

    def test_montage_structure(self):
        aw = montage(n_images=8)
        aw.topological_order()
        levels = aw.levels()
        assert levels["mAdd"] > levels["mBgModel"] > levels["mProjectPP_0000"]
        assert aw.leaves() == ["mJPEG"]

    def test_epigenomics_structure(self):
        aw = epigenomics(n_lanes=2, splits_per_lane=3)
        assert len(aw) == 2 * (3 * 5 + 1) + 3
        assert aw.leaves() == ["pileup"]
        # chains inside lanes: map depends transitively on fastqSplit
        assert "fastqSplit_l0_s0" in aw.topological_order()

    def test_ligo_structure(self):
        aw = ligo_inspiral(n_blocks=2, templates_per_block=4)
        assert len(aw) == 2 * (1 + 8 + 1) + 1
        assert aw.leaves() == ["thinca_final"]
        # second-pass inspiral gated by the block coincidence stage
        assert "thinca_b0" in aw.parents("inspiral2_b0_t0")

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: cybershake(n_ruptures=5),
            lambda: montage(n_images=6),
            lambda: epigenomics(n_lanes=2, splits_per_lane=2),
            lambda: ligo_inspiral(n_blocks=2, templates_per_block=2),
        ],
    )
    def test_all_shapes_run_and_load(self, factory):
        aw = factory()
        sink = MemoryAppender()
        run = run_pegasus_workflow(
            aw, sink, planner_config=PlannerConfig(cluster_size=3), seed=1
        )
        assert run.report.ok
        loader = load_events(sink.events)
        q = StampedeQuery(loader.archive)
        wf = q.workflows()[0]
        counts = q.summary_counts(wf.wf_id)
        assert counts.tasks_total == len(aw)
        assert counts.tasks_succeeded == len(aw)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            cybershake(n_ruptures=0)
        with pytest.raises(ValueError):
            montage(n_images=1)
        with pytest.raises(ValueError):
            epigenomics(n_lanes=0)
        with pytest.raises(ValueError):
            ligo_inspiral(n_blocks=0)
