"""Seeded inputs: BP storms from ``mixed_trace`` and the read-side history.

Every input is a function of the seed alone (the interpreter runs with
``PYTHONHASHSEED=0``, which ``mixed_trace`` needs to order its DART
events the same way twice).  Inputs are made before any clock starts and
kept under the cache directory; the program only ever sees BP files,
published events and HTTP requests.

The generator (``mixed_trace``, ``storm_stream``) and the loader that
builds the ``live`` history are code under ``src/repro``, so every cached
input is keyed by a hash of those sources as well: a cache left behind by
other code is never reused.

One copy of the mixed trace is 15 workflows (all five engines, DART
sub-workflow hierarchies included), 7,259 events and 457
``stampede.inv.end`` events.  Copies are remapped onto fresh workflow
uuids by ``storm_stream``, so N copies are N distinct workflow trees.
"""
from __future__ import annotations

import hashlib
import os
import pickle
import re
import shutil
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

INV_END = "stampede.inv.end"
_XWF = re.compile(r"(?:^| )xwf\.id=([0-9a-f-]+)")

#: the live history does not depend on the seed: it is built once per
#: checkout and program version (about a minute) and copied into every run
HISTORY_SEED = 7
HISTORY_COPIES = 120
#: per-seed storm files kept in the cache (oldest are pruned)
KEEP_STORMS = 8


def source_hash() -> str:
    """A short hash of every file under ``src/repro``: the code that
    generates the inputs and builds the history."""
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def storm_lines(seed: int, copies: int, salt: str) -> List[str]:
    from repro.replay.soak import mixed_trace, storm_stream

    base = mixed_trace(seed=seed)
    return [r.bp_line() for r in storm_stream(base, copies, salt=f"{salt}/{seed}")]


def storm_file(cache: Path, seed: int, copies: int, salt: str) -> Path:
    """A cached BP file of ``copies`` remapped copies for ``seed``."""
    folder = cache / "storms"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{salt}-s{seed}-c{copies}-{source_hash()}.bp"
    if not path.exists():
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in storm_lines(seed, copies, salt):
                fh.write(line + "\n")
        os.replace(tmp, path)
        stale = sorted(folder.glob("*.bp"), key=lambda p: p.stat().st_mtime)
        for old in stale[:-KEEP_STORMS]:
            old.unlink(missing_ok=True)
    os.utime(path)
    return path


def read_lines(path: Path) -> List[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def workflow_of(line: str) -> str:
    m = _XWF.search(line)
    return m.group(1) if m else ""


def is_inv_end(line: str) -> bool:
    return f"event={INV_END} " in line


def inv_positions(lines: List[str]) -> List[Tuple[int, str, int]]:
    """``(line index, wf uuid, k)`` for each inv.end: the k-th of its workflow."""
    seen: Counter = Counter()
    out = []
    for i, line in enumerate(lines):
        if is_inv_end(line):
            uuid = workflow_of(line)
            seen[uuid] += 1
            out.append((i, uuid, seen[uuid]))
    return out


def inv_counts(lines: List[str]) -> Dict[str, int]:
    return dict(Counter(workflow_of(l) for l in lines if is_inv_end(l)))


class Reference:
    """The expected archive: the same lines loaded in-process, unshaped,
    into an in-memory archive — the ground truth for every oracle."""

    def __init__(self, lines: List[str]):
        from repro.archive.merge import canonical_dump
        from repro.core.live import LiveFeed
        from repro.loader.nl_load import load_events, make_loader
        from repro.netlogger.events import NLEvent

        loader = load_events(
            (NLEvent.from_bp(line) for line in lines),
            make_loader("sqlite:///:memory:"),
        )
        self.dump = canonical_dump(loader.archive)
        rows = LiveFeed(loader.archive).snapshot()["workflows"]
        self.events = sum(r["events"] for r in rows)
        self.invocations = inv_counts(lines)
        loader.archive.close()


def history(cache: Path) -> Path:
    """The cached history archive folder (``history.db`` + ``meta.pickle``),
    built on first use by the current sources; a history built by other
    sources is removed."""
    code = source_hash()
    final = cache / f"history-c{HISTORY_COPIES}-{code}"
    if (final / "meta.pickle").exists():
        return final
    for stale in cache.glob("history-c*"):
        if stale != final:
            shutil.rmtree(stale, ignore_errors=True)
    from repro.core.live import LiveFeed
    from repro.loader.nl_load import load_file, make_loader
    from repro.replay.soak import mixed_trace, storm_stream
    from system import history_floors

    start = time.monotonic()
    build = cache / f"history-build-{os.getpid()}"
    shutil.rmtree(build, ignore_errors=True)
    build.mkdir(parents=True)
    bp = build / "history.bp"
    base = mixed_trace(seed=HISTORY_SEED)
    with open(bp, "w", encoding="utf-8") as fh:
        for r in storm_stream(base, HISTORY_COPIES, salt="history"):
            fh.write(r.bp_line() + "\n")
    db = build / "history.db"
    loader = load_file(str(bp), make_loader(f"sqlite:///{db}"))
    archive = loader.archive
    rows = LiveFeed(archive).snapshot()["workflows"]
    meta = {
        "source_hash": code,
        "events": sum(r["events"] for r in rows),
        "invocations": sum(r["invocations"] for r in rows),
        "workflows": len(rows),
        # the read mix's historic target: the root with the most jobs
        "historic_wf_id": max(
            (r for r in rows), key=lambda r: (r["jobs_total"], -r["wf_id"])
        )["wf_id"],
        "floors": history_floors(archive),
    }
    archive.close()
    bp.unlink()
    meta["build_s"] = time.monotonic() - start
    with open(build / "meta.pickle", "wb") as fh:
        pickle.dump(meta, fh)
    try:
        os.replace(build, final)
    except OSError:  # another run finished first
        shutil.rmtree(build, ignore_errors=True)
    return final
