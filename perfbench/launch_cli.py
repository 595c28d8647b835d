"""Run one sigcurve command with the benchmark's spans installed.

    python3 perfbench/launch_cli.py SPANS_JSON [sigcurve arguments ...]

Imports the package, wraps its public functions, calls ``sigcurve.cli.main``
with the remaining arguments and writes the spans and the theta cache
statistics to SPANS_JSON before exiting with the command's exit code.
"""

import json
import sys

import sigcurve
import sigcurve.cli
import sigcurve.jets
import tracing

if __name__ == "__main__":
    theta = sigcurve.jets.theta
    recorder = tracing.Recorder()
    recorder.install()
    code = 1
    try:
        code = sigcurve.cli.main(sys.argv[2:])
    finally:
        info = theta.cache_info()
        with open(sys.argv[1], "w") as f:
            hits = {"theta_hits": info.hits, "theta_misses": info.misses}
            json.dump({**recorder.snapshot(), **hits}, f)
    sys.exit(code)
