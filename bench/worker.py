"""Long-lived child that runs a workload's CLI flows at ``--jobs 1``.

It lets the peak RSS of a process that ran only the workload be read from
``getrusage`` when it exits. Protocol: one JSON object per line on stdin,
one reply per line on stdout.

- on start it replies ``{"svgforge": <path of the imported package>}``;
- ``{"flow": [argv, ...]}`` runs each argv through ``svgforge.cli.main`` in
  order and replies ``{"seconds": <wall time of the whole flow>, "codes": [...],
  "paces": [<yardstick seconds before>, <after>]}``;
- ``{"exit": true}`` replies ``{"maxrss_kb": ...}`` and exits.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src/``.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time

from yardstick import pace


def main() -> int:
    proto = sys.stdout
    import svgforge
    from svgforge.cli import main as cli_main

    def reply(obj: dict) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    reply({"svgforge": svgforge.__file__})
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("exit"):
            reply({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return 0
        codes = []
        # the CLI may print; keep the protocol stream clean
        with contextlib.redirect_stdout(sys.stderr):
            before = pace()
            start = time.perf_counter()
            for argv in msg["flow"]:
                codes.append(cli_main(argv))
            seconds = time.perf_counter() - start
            after = pace()
        reply({"seconds": seconds, "codes": codes, "paces": [before, after]})
    return 1


if __name__ == "__main__":
    sys.exit(main())
