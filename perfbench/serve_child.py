"""Launch ``repro.service.server.serve`` as the served workload's child.

Usage: ``python3 perfbench/serve_child.py CONFIG.json``, where the JSON
object holds ``cache_dir``, ``index_dir``, ``corpora`` (name -> [ontology
JSON, corpus JSONL]), ``ontologies`` (name -> ontology JSON),
``trace_out`` and ``probes_out``.  The server binds an ephemeral port
and prints its address.

The child runs on one CPU, so the host-speed meter (``hostspeed.py``)
that probes it from start-up on times the CPU its server threads run
on; the meter's samples are written to ``probes_out`` after the SIGTERM
shutdown.  When ``trace_out`` is set, the layer wrappers of
``tracer.py`` record from start-up on too, and the spans are written to
that path.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from hostspeed import HostMeter


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from repro.service.server import serve

    tracer = None
    if config["trace_out"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.recording = True
    meter = HostMeter()
    meter.start()
    try:
        return serve(
            cache_dir=config["cache_dir"],
            host="127.0.0.1",
            port=0,
            corpora={name: tuple(paths) for name, paths in config["corpora"].items()},
            index_dir=config["index_dir"],
            ontologies=config["ontologies"],
        )
    finally:
        meter.stop()
        meter.write(config["probes_out"])
        if tracer is not None:
            tracer.recording = False
            tracer.write(config["trace_out"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
