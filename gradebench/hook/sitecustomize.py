"""Install the benchmark's layer tracing in every traced interpreter.

Python imports ``sitecustomize`` at start-up from ``sys.path``; the
benchmark puts this directory on ``PYTHONPATH`` for its traced runs,
and the grading service and worker pool pass ``PYTHONPATH`` on to shard
workers and pool children unchanged.  Without ``GRADEBENCH_TRACE_DIR``
set, this does nothing.
"""

import os

if os.environ.get("GRADEBENCH_TRACE_DIR"):
    import gradebench_trace

    gradebench_trace.install(os.environ["GRADEBENCH_TRACE_DIR"])
