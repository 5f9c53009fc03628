"""§VIII hypothesis: "Since both workflow systems use the same Stampede
component (nl_load) to load the logs, we do not expect any performance
penalty when running large workflows through Triana."

The paper leaves testing this to future work; this bench performs it:
equal-sized workflows executed by the Triana-style and Pegasus-style
engines, loaded by the same loader — events/second should be comparable.
"""
import pytest

from repro.loader.nl_load import load_events
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.triana.appender import MemoryAppender
from repro.triana.scheduler import Scheduler
from repro.triana.stampede_log import StampedeLog
from repro.triana.taskgraph import TaskGraph
from repro.triana.unit import CallableUnit, ConstantUnit, GatherUnit
from repro.util.uuidgen import derive_uuid
from repro.workloads import fan

WIDTH = 300


def triana_events():
    g = TaskGraph("parity-fan")
    src = g.add(ConstantUnit("split", 0, seconds=2.0))
    join = g.add(GatherUnit("join", seconds=2.0))
    for i in range(WIDTH):
        w = g.add(CallableUnit(f"work{i}", lambda ins: None, seconds=10.0))
        g.connect(src, w)
        g.connect(w, join)
    sink = MemoryAppender()
    sched = Scheduler(g, seed=0, max_concurrent=32)
    StampedeLog(sched, sink, xwf_id=derive_uuid("parity", "triana-bench"))
    sched.run()
    return list(sink.events)


def pegasus_events():
    sink = MemoryAppender()
    catalog = SiteCatalog(
        [Site("pool", slots=32, mean_queue_delay=1.0, hosts_per_site=8)]
    )
    run_pegasus_workflow(
        fan(width=WIDTH), sink, catalog=catalog,
        planner_config=PlannerConfig(cluster_size=1), seed=0,
    )
    return list(sink.events)


RATES = {}


@pytest.mark.parametrize("engine", ["triana", "pegasus"])
def test_engine_parity_loading(benchmark, engine):
    events = triana_events() if engine == "triana" else pegasus_events()

    loader = benchmark(lambda: load_events(events, batch_size=500))
    assert loader.stats.events_processed == len(events)
    rate = len(events) / benchmark.stats.stats.mean
    RATES[engine] = rate
    print(f"\n{engine}: {len(events)} events, {rate:,.0f} events/s")
    if len(RATES) == 2:
        ratio = max(RATES.values()) / min(RATES.values())
        print(f"parity ratio: {ratio:.2f}x (paper hypothesis: ~1)")
        # no engine-specific penalty: within 2x of each other
        assert ratio < 2.0
