"""Worker subprocess: ``python -m repro.serve.worker``.

The server spawns N of these and speaks length-prefixed pickle frames
over their stdin/stdout pipes (:mod:`repro.serve.protocol`).  Each
worker owns one :class:`~repro.serve.ops.OpRunner` — and therefore one
artifact-store connection — for its whole life, so the store's memo and
the persistent cache stay warm across requests.

The real stdout file descriptor is captured for framing before fd 1 is
pointed at stderr: any stray ``print`` inside simulator or selection
code lands in the server log instead of corrupting the frame stream.

A clean EOF on stdin is the recycle/drain signal: flush counters and
exit 0.  Anything else that escapes the per-item error handling kills
the process, which the server observes as a crash and handles with
respawn + bounded retries.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.serve import protocol
from repro.serve.ops import OpRunner


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.serve.worker")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument(
        "--debug-ops", action="store_true",
        help="enable the _crash/_sleep test hooks (never in production)",
    )
    args = parser.parse_args(argv)

    # Claim the pipe fds, then divert normal stdout traffic to stderr.
    frames_out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    frames_in = os.fdopen(os.dup(sys.stdin.fileno()), "rb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr

    runner = OpRunner(cache_dir=args.cache_dir)
    try:
        return _serve(args, runner, frames_in, frames_out)
    except BrokenPipeError:
        # The server vanished (e.g. SIGKILLed during a failover drill)
        # while we were mid-write.  There is nobody left to report to —
        # exit quietly instead of spraying a traceback into the log the
        # supervising terminal inherited.
        return 1


def _serve(args, runner, frames_in, frames_out) -> int:
    while True:
        job = protocol.read_frame(frames_in)
        if job is None:      # clean EOF: drain or recycle
            runner.pipeline.flush()
            return 0
        if args.debug_ops and job.get("op") == "_crash":
            os._exit(17)
        if args.debug_ops and job.get("op") == "_sleep":
            import time

            time.sleep(float(job["items"][0].get("seconds", 0.5)))
            protocol.write_frame(frames_out, {
                "results": [{"ok": True, "value": "slept"}],
                "telemetry": {},
            })
            continue
        protocol.write_frame(frames_out, runner.run_job(job))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
