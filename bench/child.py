"""Child processes of the benchmark; each runs in a fresh interpreter.

    python3 bench/child.py setup INPUT...
        Import ``nefsphere.cli``, run ``cli.load_input`` on each input and
        construct a ``Pipeline`` (no stage computed); print the CPU seconds
        taken since the interpreter reached this file.

    python3 bench/child.py trace OUT.json ARG...
        Run ``cli.main(ARG...)`` with every stage and layer function traced.
        Stdout and the exit code are the CLI's own; spans and per-layer
        metrics go to OUT.json.

``nefsphere`` must be importable (the benchmark sets ``PYTHONPATH``).
"""

import time

START = time.perf_counter()
START_CPU = time.process_time()

import json  # noqa: E402
import sys  # noqa: E402


def setup(paths):
    import nefsphere.cli as cli
    for path in paths:
        nef, omega, nu = cli.load_input(path)
        cli.Pipeline(nef, omega_spec=omega, nu_spec=nu)
    print(repr(time.process_time() - START_CPU))
    return 0


def trace(out_path, argv):
    import nefsphere.cli as cli
    import_s = time.perf_counter() - START
    from tracer import Tracer
    tracer = Tracer().install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    metrics = tracer.metrics()
    metrics["cli.import_s"] = import_s
    with open(out_path, "w") as fh:
        json.dump({"metrics": metrics, "spans": tracer.span_records(),
                   "rebound": tracer.rebound}, fh)
    return code


def main(argv):
    if len(argv) >= 2 and argv[0] == "setup":
        return setup(argv[1:])
    if len(argv) >= 3 and argv[0] == "trace":
        return trace(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
