"""Import-graph regression: the ingest/serve entry points load only the
layers they run.

Package ``__init__``s on this path import nothing, and optional layers
(lint, the parse pool, schema validation, the bus consumer, fault
injection, the analysis tools, the workflow engines) are imported in the
branch that uses them.  Each case runs in a fresh interpreter and checks
which modules ended up in ``sys.modules`` — not timings, so it cannot
flake on a slow host.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

# never needed to ingest or serve
NEVER = (
    "numpy",
    "repro.lint",
    "repro.pegasus",
    "repro.triana",
    "repro.dart",
    "repro.workloads",
    "repro.replay",
    "repro.analysis",
)
# analysis and fault layers a plain nl-load run does not use
NOT_IN_NL_LOAD = NEVER + (
    "repro.faults",
    "repro.core.analyzer",
    "repro.core.anomaly",
    "repro.core.corpus",
    "repro.core.prediction",
    "repro.core.reports",
    "repro.core.timeseries",
)

_REPORT = """
import json, sys
json.dump(sorted(sys.modules), sys.stdout)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _loaded(code: str, cwd: Path) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        cwd=cwd,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _held(modules: list, forbidden: tuple) -> list:
    return [
        m for m in modules if any(m == f or m.startswith(f + ".") for f in forbidden)
    ]


@pytest.mark.parametrize(
    "module",
    ["repro.loader.nl_load", "repro.bus.cli", "repro.core.dashboard", "repro.core.rollup"],
)
def test_entry_module_imports_no_optional_layer(module, tmp_path):
    assert _held(_loaded(f"import {module}", tmp_path), NEVER) == []


@pytest.mark.parametrize(
    "args",
    [
        ["--resume", "--shard-dir", "shards", "--shards", "2"],
        ["stampede_loader", "connString=sqlite:///run.db"],
    ],
    ids=["sharded-resume", "sqlite"],
)
def test_nl_load_run_imports_no_optional_layer(args, tmp_path):
    (tmp_path / "empty.bp").write_text("")
    code = (
        "from repro.loader.nl_load import main\n"
        f"assert main({['empty.bp', *args]!r}) == 0\n"
    )
    assert _held(_loaded(code, tmp_path), NOT_IN_NL_LOAD) == []


def test_run_as_module_does_not_warn(tmp_path):
    # a package __init__ importing nl_load made ``-m`` find the module in
    # sys.modules before running it, which Python reports as a warning
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.loader.nl_load", "--help"],
        cwd=tmp_path,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
