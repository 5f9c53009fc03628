"""The ``live`` load generator, run as its own process.

    python3 perfbench/publish.py SPEC_JSON READY_FILE OUT_JSON

SPEC_JSON holds the bus url, the BP file to publish, each line's
schedule offset and the indexes of its inv.end lines.  The generator
parses every line first, then writes its schedule origin (on the
system-wide monotonic clock) to READY_FILE and publishes line ``i`` at
``origin + offset[i]`` through one ``RemotePublisher``.  OUT_JSON gets
how late it ran, the time spent in ``publish``/``flush``, how many
request/reply round trips the publisher made, and when each inv.end went
out.

A process of its own keeps the publisher from sharing an interpreter
lock with the dashboard reader, which would add its turns to every
measured request.
"""
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.bus import net  # noqa: E402
from repro.netlogger.events import NLEvent  # noqa: E402

from system import now, run_schedule  # noqa: E402

#: time between announcing the origin and the first send
LEAD_S = 0.3


def main() -> int:
    spec_path, ready, out_path = sys.argv[1:4]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(spec["bp"], encoding="utf-8") as fh:
        events = [NLEvent.from_bp(line) for line in fh if line.strip()]
    offsets = spec["offsets"]
    is_inv = [False] * len(events)
    for idx in spec["inv_index"]:
        is_inv[idx] = True
    round_trips = [0]
    request = net._ClientConn.request

    def counted_request(self, frame):  # the same count the consumer's tracing makes
        round_trips[0] += 1
        return request(self, frame)

    net._ClientConn.request = counted_request
    publisher = net.RemotePublisher(spec["url"])
    timeline = []
    sent = [0]
    busy = [0.0]

    def send(i: int, j: int) -> None:
        t0 = now()
        count = sent[0]
        for k in range(i, j):
            publisher.publish(events[k])
            count += is_inv[k]
        busy[0] += now() - t0
        if count != sent[0]:
            sent[0] = count
            timeline.append((now(), count))

    origin = now() + LEAD_S
    tmp = f"{ready}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(repr(origin))
    os.replace(tmp, ready)
    late = run_schedule(offsets, origin, send)
    t0 = now()
    publisher.flush()
    publisher.close()
    busy[0] += now() - t0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"late_max_s": late, "publish_s": busy[0], "timeline": timeline,
                   "published": publisher.events_published,
                   "round_trips": round_trips[0]}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
