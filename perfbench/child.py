"""Run one levyfilter CLI command in this process under a probe; write a JSON record.

Usage: python3 perfbench/child.py MODE RECORD_JSON CLI_ARG...

MODE is ``run`` (untraced; only the set-up end and particle-epochs are
read), ``setup`` (stop at the first entry call, a set-up-only probe) or
``trace`` (every layer wrapped).  The record holds the exit code, the set-up
end on the system-wide monotonic clock, the peak RSS, the probe's counts and
the library versions this process loaded.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402


def _library_facts():
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def main(argv):
    mode, record_path, *cli_args = argv
    import levyfilter.cli

    if mode == "trace":
        probe = tracer.Tracer()
    else:
        probe = tracer.Counter(stop_at_entry=mode == "setup")
    try:
        code = levyfilter.cli.main(cli_args)
    except tracer.SetupDone:
        code = 0
    finally:
        probe.remove()
    record = {
        "mode": mode,
        "exit_code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **probe.summary(),
        **_library_facts(),
    }
    Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
