"""Traced `vidcost` command: the CLI with vidcost's public calls wrapped in spans.

    python3 clishim.py SPANS.json estimate --format json ...

Imports the CLI, routes vidcost's public functions through a tracer, runs
``vidcost.cli.main`` on the remaining arguments inside a ``cli.<subcommand>``
span, and writes the spans to SPANS.json when it ends. Stdout, stderr and the
exit code are the CLI's own.
"""

import sys

from tracing import Tracer, instrument


def main() -> int:
    span_path, argv = sys.argv[1], sys.argv[2:]
    import vidcost.cli

    tracer = Tracer()
    instrument(tracer)
    tracer.active = True
    tracer.op_id = 0
    idx = tracer.open(f"cli.{argv[0] if argv else 'none'}")
    try:
        return vidcost.cli.main(argv)
    finally:
        tracer.close(idx)
        tracer.active = False
        tracer.write(span_path)


if __name__ == "__main__":
    sys.exit(main())
