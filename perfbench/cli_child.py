"""Traced CLI call: ``python3 perfbench/cli_child.py <exhausters args>``.

Runs ``exhausters.cli.main`` with the tracer installed, exactly as
``python -m exhausters.cli`` would, and prints the per-layer totals of the
call, with its import time, as the last line of stderr.
"""

import json
import sys
import time

start = time.perf_counter()
import exhausters.cli as cli  # noqa: E402

import_s = time.perf_counter() - start

from spans import Tracer, summarize  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    layers = summarize(tracer.take())
    layers["cli.import_s"] = import_s
    print(json.dumps(layers), file=sys.stderr)
    sys.exit(code)
