"""Traced stand-in for `python -m twistedrs`: python perfbench/bench_cli_shim.py ARGS.

Times the package import, installs the layer wrappers, runs
`twistedrs.cli.cli_main(ARGS)` inside a `cli.command` span and, after the
command's own output, writes its spans to stderr as one tagged JSON line.
"""

import sys
import time

start = time.perf_counter_ns()
import twistedrs.cli  # noqa: E402

imported = time.perf_counter_ns()

from bench_trace import Recorder, Tracer  # noqa: E402
from bench_workloads import SPANS_TAG  # noqa: E402


def main() -> int:
    rec = Recorder()
    rec.spans.append(["cli.import", start, imported, -1, None, None])
    Tracer(rec).install()
    idx = rec.begin("cli.command")
    try:
        code = twistedrs.cli.cli_main(sys.argv[1:])
    finally:
        entered_enum = any(s[0].startswith("enumeration.") for s in rec.spans)
        rec.end(idx, {"numpy_unused": int("numpy" in sys.modules and not entered_enum)})
        sys.stdout.flush()
        import json

        sys.stderr.write(SPANS_TAG + json.dumps(rec.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
