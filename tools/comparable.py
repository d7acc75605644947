"""A RunReport JSON with every volatile field removed.

The Python twin of runner::comparable() (src/runner/runner.cpp): timings,
rss, metadata, worker_events, counters and the distribution options
(workers, shard_timeout, max_retries, fault) are dropped, so a report from
workers or agents compares bit-identically with the serial one. The CI
smokes import it from the build directory:

    import sys; sys.path.insert(0, "../tools")
    from comparable import comparable
    assert comparable(serial) == comparable(multi)
"""
import json

VOLATILE = ("total_wall_s", "total_cpu_s", "peak_rss_bytes", "queue_wait_s",
            "metadata", "worker_events", "counters")
DISTRIBUTION_OPTIONS = ("workers", "shard_timeout", "max_retries", "fault")


def comparable(report):
    """Canonical JSON text of `report` without its volatile fields."""
    r = json.loads(json.dumps(report))  # deep copy
    for k in VOLATILE:
        r.pop(k, None)
    for s in r["stages"]:
        s.pop("wall_s", None)
        s.pop("cpu_s", None)
    for a in r["analyses"]:
        a.pop("wall_s", None)
    for k in DISTRIBUTION_OPTIONS:
        r["plan"]["options"].pop(k, None)
    return json.dumps(r, sort_keys=True)
