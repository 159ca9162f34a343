"""One round of a workload in a fresh process: ``python3 child.py <spec.json>``.

The process did not do the set-up, so its peak resident set is its own
(Linux carries ``ru_maxrss`` across fork and exec).  It records when it was
ready to call the entry point, the wall and CPU time of that call (workers
included), its peak resident set and, when tracing, the spans, and writes
them as JSON to the path named in the spec.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                own = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own, children)


def cpu_seconds() -> float:
    """User plus system time of this process, its threads and its
    waited-for children (the workers of a process pool)."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import tiltedbh
    import tiltedbh.cli
    from workloads import WORKLOADS, cli_argv

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    kind = WORKLOADS[spec["workload"]]
    if kind != "cli":
        config = tiltedbh.SweepConfig.from_dict(
            json.loads(Path(spec["config"]).read_text()))
    ready = time.monotonic()
    result = {"ready": ready}
    if not spec["dry"]:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        if kind == "cli":
            rc = tiltedbh.cli.main(
                cli_argv(spec["workload"], spec["config"], spec["out"]))
        else:
            getattr(tiltedbh, kind)(config, spec["out"])
            rc = 0
        wall = time.perf_counter() - t0
        result.update({
            "rc": rc,
            "wall_s": wall,
            "cpu_s": cpu_seconds() - c0,
            "peak_rss_mb": peak_rss_mb(),
            "spans": tracer.spans if tracer else [],
        })
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
