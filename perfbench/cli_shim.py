"""Run one ``freelip`` command under the tracer and write its spans out.

Usage: ``python perfbench/cli_shim.py SPANS_OUT <freelip arguments>``.  The
command's stdout, stderr and exit status are those of ``freelip`` itself.
"""

import importlib
import json
import sys

from spans import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        cli = tracer.call("cli.import", importlib.import_module, "freelip.cli")
        with tracer.patched():
            return tracer.call("cli.main", cli.main, argv)
    finally:
        with open(spans_out, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
