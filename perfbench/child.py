"""One benchmark operation in a fresh interpreter: `wedgehull` commands in turn.

Usage: python3 child.py SPEC_JSON

The spec lists the CLI argv of each command, the suite budgets to apply,
the mode ("op" runs the commands, "probe" stops at the first call into the
program's work so only set-up is timed) and whether to trace.  The result
JSON (timestamps on the system-wide monotonic clock; when traced, the spans
and the time outside every span; library provenance) is written to the
spec's `result` path.

The import of `wedgehull.cli` below is part of the set-up being measured:
the parent takes its clock reading just before it starts this interpreter.
"""

import json
import os
import sys
import time

import wedgehull.cli as cli
import wedgehull.suites as suites

from spans import Tracer, span_cost

THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def provenance() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def with_budget(func, budget: dict):
    """The suite function with some of its keyword budgets replaced."""

    def call(*args, **kwargs):
        return func(*args, **{**kwargs, **budget})

    return call


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"t_first": None, "t_work_end": None}

    def write_result():
        with open(spec["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)

    for name, budget in spec["suite_budgets"].items():
        attr = f"suite_{name}"
        setattr(suites, attr, with_budget(getattr(suites, attr), budget))

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    def entry_hook(func):
        # Outermost wrapper on the two calls that start the program's work.
        def call(*args, **kwargs):
            if result["t_first"] is None:
                result["t_first"] = time.monotonic()
                if spec["mode"] == "probe":
                    write_result()
                    sys.stdout.flush()
                    os._exit(0)
                if tracer is not None:
                    tracer.start_idle_clock()
            try:
                return func(*args, **kwargs)
            finally:
                result["t_work_end"] = time.monotonic()

        return call

    cli.run_experiment = entry_hook(cli.run_experiment)
    cli.run_suites = entry_hook(cli.run_suites)

    codes = [cli.main(argv) for argv in spec["argvs"]]
    code = next((c for c in codes if c), 0)
    sys.stdout.flush()
    result["t_end"] = time.monotonic()
    if tracer is not None:
        tracer.stop_idle_clock()
        result["spans"] = tracer.spans
        result["idle_s"] = tracer.idle_s
        result["span_cost_s"] = span_cost()
    if spec["provenance"]:
        result["provenance"] = provenance()
    write_result()
    return code


if __name__ == "__main__":
    sys.exit(main())
