"""One traced CLI call: time `import snapgrip.cli`, wrap the layers, run main.

Usage: python cli_child.py TRACE_JSON [snapgrip arguments...]

The aggregated spans go to TRACE_JSON once ``cli.main`` returns; the exit
code is main's, as for ``python -m snapgrip.cli``.
"""

import json
import sys
import time


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import snapgrip.cli as cli
    import_s = time.perf_counter() - start

    from tracing import Tracer
    tracer = Tracer()
    tracer.import_s.append(import_s)
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
