import pytest

from repro.core.corpus import build_corpus_report, predict_workflow_runtime
from repro.loader.nl_load import make_loader
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender
from repro.workloads import diamond, fan, montage


@pytest.fixture(scope="module")
def corpus_query():
    """An archive holding several runs across two sites."""
    loader = make_loader()
    catalog = SiteCatalog(
        [
            Site("reliable", slots=16, mean_queue_delay=1.0),
            Site("flaky", slots=16, mean_queue_delay=6.0, failure_rate=0.25),
        ]
    )
    for seed in range(4):
        sink = MemoryAppender()
        run_pegasus_workflow(
            montage(n_images=8), sink, catalog=catalog,
            planner_config=PlannerConfig(cluster_size=2, max_retries=3),
            seed=seed,
        )
        loader.process_all(sink.events)
    for seed in range(2):
        sink = MemoryAppender()
        run_pegasus_workflow(
            fan(width=10, runtime=30.0), sink, catalog=catalog, seed=100 + seed
        )
        loader.process_all(sink.events)
    return StampedeQuery(loader.archive)


class TestCorpusReport:
    def test_counts(self, corpus_query):
        report = build_corpus_report(corpus_query)
        assert report.workflows == 6
        assert report.total_invocations > 100

    def test_transformation_profiles(self, corpus_query):
        report = build_corpus_report(corpus_query)
        proj = report.transformations["mProjectPP"]
        assert proj.invocations == 4 * 8  # 8 images x 4 montage runs
        assert 8 < proj.median < 16  # runtime_estimate 12 + noise
        assert proj.p95 >= proj.median
        work = report.transformations["work"]
        assert work.invocations == 2 * 10

    def test_site_profiles(self, corpus_query):
        report = build_corpus_report(corpus_query)
        assert set(report.sites) <= {"reliable", "flaky", "unknown"}
        flaky = report.sites.get("flaky")
        reliable = report.sites.get("reliable")
        if flaky and reliable and flaky.instances > 20:
            assert flaky.failure_rate >= reliable.failure_rate
        worst = report.least_reliable_sites(top=1)[0]
        assert worst.failure_rate >= 0.0

    def test_slowest_transformations_ranked(self, corpus_query):
        report = build_corpus_report(corpus_query)
        top = report.slowest_transformations(top=3)
        assert len(top) == 3
        assert top[0].mean >= top[1].mean >= top[2].mean


class TestRuntimePrediction:
    def test_prediction_from_history(self, corpus_query):
        report = build_corpus_report(corpus_query)
        # predict a NEW montage run (same transformations, bigger)
        aw = montage(n_images=20)
        pred = predict_workflow_runtime(aw, report, parallelism=8.0)
        assert pred["coverage"] == 1.0  # every transformation seen before
        assert pred["serial_seconds"] > 0
        assert pred["predicted_wall_seconds"] >= pred["critical_path_seconds"]
        assert pred["predicted_wall_seconds"] >= pred["serial_seconds"] / 8.0

    def test_unknown_transformations_use_fallback(self, corpus_query):
        report = build_corpus_report(corpus_query)
        aw = diamond()  # preprocess/analyze/combine: never seen
        pred = predict_workflow_runtime(aw, report, default_runtime=42.0)
        assert pred["coverage"] == 0.0
        assert pred["serial_seconds"] == pytest.approx(4 * 42.0)

    def test_invalid_parallelism(self, corpus_query):
        report = build_corpus_report(corpus_query)
        with pytest.raises(ValueError):
            predict_workflow_runtime(diamond(), report, parallelism=0)

    def test_prediction_accuracy_on_rerun(self, corpus_query):
        """The provisioning use case: prediction within 2x of a real run."""
        report = build_corpus_report(corpus_query)
        aw = montage(n_images=8)
        catalog = SiteCatalog([Site("reliable", slots=16, mean_queue_delay=1.0)])
        sink = MemoryAppender()
        run = run_pegasus_workflow(
            aw, sink, catalog=catalog,
            planner_config=PlannerConfig(cluster_size=2), seed=77,
        )
        pred = predict_workflow_runtime(aw, report, parallelism=16.0)
        assert (
            pred["predicted_wall_seconds"] * 0.3
            < run.report.wall_time
            < pred["predicted_wall_seconds"] * 3.0
        )
