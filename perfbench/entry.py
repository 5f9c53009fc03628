"""Launch one of the system's processes the way the benchmark needs it.

    python3 perfbench/entry.py ROLE TRACE_OUT READY_FILE [CLI ARGS...]

ROLE is ``nl-load``, ``bus``, ``dashboard`` or ``dashboard-shards``.
The entry point calls the real command-line ``main`` of that program
with the given arguments.  Before it does, it installs two kinds of
bench-owned hooks, neither of which changes what the program does:

* a readiness hook, which writes READY_FILE once the process can take
  work (``-`` for none): the dashboard once it listens (the file holds
  its URL), a bus loader once it has subscribed.  ``stampede-bus serve``
  announces itself.
* with TRACE_OUT other than ``-``, the span wrappers of
  :mod:`tracing`; the spans are written to TRACE_OUT when ``main``
  returns.

``dashboard-shards`` serves a shard directory: ``stampede-dashboard``
opens single archives only, so this role builds the same
:class:`~repro.core.dashboard.Dashboard` over ``open_archive(DIR)``.
"""
import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _announce(path: str, text: str) -> None:
    if path == "-":
        return
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    os.replace(tmp, path)


def _once(owner, attr: str, after) -> None:
    """Call ``after(self)`` when ``owner.attr`` first returns."""
    original = getattr(owner, attr)
    fired = []

    def hooked(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        if not fired:
            fired.append(True)
            after(self)
        return result

    setattr(owner, attr, hooked)


def _serve_shards(argv) -> int:
    from repro.archive.shard import open_archive
    from repro.core.dashboard import Dashboard

    dashboard = Dashboard(open_archive(argv[0])).start()
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        dashboard.stop()
    return 0


def _report_exit() -> None:
    """Write this process's VmHWM (kB) and CPU seconds where the bench
    asked for them.  Read here, after exec, they exclude the launching
    process; the CPU time (user + system, every thread) excludes the
    time the hypervisor stole from the guest."""
    path = os.environ.get("PERFBENCH_EXIT_FILE")
    if not path:
        return
    usage = resource.getrusage(resource.RUSAGE_SELF)
    hwm = 0
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                hwm = int(line.split()[1])
    _announce(path, json.dumps({"hwm_kb": hwm,
                                "cpu_s": usage.ru_utime + usage.ru_stime}))


def main() -> int:
    role, trace_out, ready = sys.argv[1], sys.argv[2], sys.argv[3]
    argv = sys.argv[4:]
    # SIGTERM ends a process the same way ^C does, so traces still land
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if role == "nl-load":
        from repro.bus.net import RemoteConsumer
        from repro.loader import nl_load

        target = nl_load.main
        if "--bus" in argv:
            _once(RemoteConsumer, "_subscribe", lambda _: _announce(ready, "ready"))
    elif role == "bus":
        from repro.bus import cli

        target = cli.main
    elif role in ("dashboard", "dashboard-shards"):
        from repro.core import dashboard

        _once(dashboard.Dashboard, "start", lambda d: _announce(ready, d.url))
        target = dashboard.main if role == "dashboard" else _serve_shards
    else:
        print(f"entry: unknown role {role!r}", file=sys.stderr)
        return 2
    t_imported = time.monotonic()
    recorder = None
    if trace_out != "-":
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    t_main = time.monotonic()
    try:
        rc = target(argv)
    except KeyboardInterrupt:
        rc = 0
    t_end = time.monotonic()
    _report_exit()
    if recorder is not None:
        recorder.dump(trace_out, {
            "role": role, "start": T_START, "imported": t_imported,
            "main": t_main, "end": t_end, "base": T_START,
        })
    return int(rc or 0)


if __name__ == "__main__":
    sys.exit(main())
