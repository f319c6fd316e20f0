"""Run one `conefaces` command with the layer tracer installed.

    python3 bench/cli_boot.py TRACE_JSON [conefaces arguments...]

Behaves like the `conefaces` console script (same stdout and exit code)
and writes the spans, the time `import conefaces.cli` took and whether
numpy is left loaded to TRACE_JSON.  Needs src/ on PYTHONPATH.
"""

import json
import sys
import time

from tracing import Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    from conefaces import cli

    tracer.import_s.append(time.perf_counter() - start)
    try:
        code = tracer.run(0, lambda: cli.main(argv))
    except SystemExit as exc:
        code = exc.code
    tracer.numpy_loaded.append("numpy" in sys.modules)
    with open(out_path, "w") as fh:
        json.dump(tracer.payload(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
