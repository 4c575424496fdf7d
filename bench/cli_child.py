"""Run the roughmetric CLI with span tracing, for the traced run of the
``cli`` workload: ``python bench/cli_child.py <cli arguments>``.

The spans are saved to the file named by ``BENCH_SPANS`` when the command
ends, however it ends; an uncaught exception still escapes as it would from
``python -m roughmetric.cli``.
"""

import os
import sys

import roughmetric.cli

import spans

tracer = spans.Tracer()
tracer.op_id = 0
spans.install(tracer)
sys.argv[0] = "roughmetric"
try:
    roughmetric.cli.main()
finally:
    tracer.save(os.environ["BENCH_SPANS"])
