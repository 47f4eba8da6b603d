"""Run one traced ``qhal`` CLI request in a fresh process.

    python benchmarks/cli_child.py TRACE_OUT <cli arguments...>

Times the cold import of ``qhal.cli``, wraps the package's public functions
(see ``tracing.py``), runs ``qhal.cli.main`` on the arguments as one
``request.<subcommand>`` span and writes the spans, the lattice cache
statistics and the bytes read and written by ``qhal.io`` to TRACE_OUT as
JSON.  Standard output and the exit code are the CLI's own.  The thread
settings come from the environment ``run.py`` passes down.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import qhal.cli

    import_s = perf_counter() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = tracer.span(f"request.{argv[0]}", qhal.cli.main, argv)
    finally:
        tracer.uninstall()
        from qhal.phase_space import adjoint_lattice, quotient_reps

        doc = {
            "import_s": import_s,
            "spans": tracer.spans,
            "cache": {
                "adjoint_lattice": adjoint_lattice.cache_info()[:2],
                "quotient_reps": quotient_reps.cache_info()[:2],
            },
            "bytes_written": tracer.bytes_written,
            "bytes_read": tracer.bytes_read,
        }
        with open(trace_out, "w", encoding="ascii") as handle:
            json.dump(doc, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
