"""Shared benchmark fixtures: one full DART run + loaded archive per session."""
import pytest

from repro.dart.workflow import run_dart_experiment
from repro.loader.nl_load import load_events
from repro.query import StampedeQuery
from repro.triana.appender import MemoryAppender


@pytest.fixture(scope="session")
def dart_events():
    """The full 306-command / 20-bundle / 8-node DART event stream."""
    sink = MemoryAppender()
    result = run_dart_experiment(sink, seed=0)
    return list(sink.events), result


@pytest.fixture(scope="session")
def dart_archive(dart_events):
    events, result = dart_events
    loader = load_events(events)
    query = StampedeQuery(loader.archive)
    root = query.workflow_by_uuid(result.root_xwf_id)
    return loader.archive, query, root, result
