"""Traced ``rentdyn`` command line, run as one fresh interpreter per operation.

    python perfbench/cli_child.py SPANS_FILE CLI_ARGS...

Imports ``rentdyn.cli`` inside a ``cli.import`` span, installs the tracer,
runs the command line with CLI_ARGS, saves the spans to SPANS_FILE and exits
with the command's status. ``rentdyn`` must be importable (``PYTHONPATH=src``).
"""

import sys

from tracer import Tracer, install

tracer = Tracer()
with tracer.span("cli.import"):
    import rentdyn.cli
install(tracer)
status = rentdyn.cli.main(sys.argv[2:])
tracer.save(sys.argv[1])
sys.exit(status)
