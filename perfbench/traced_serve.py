"""``python -m repro serve`` with the benchmark's spans around its layers.

    python perfbench/traced_serve.py --spans OUT.json serve --unix PATH

Installs :func:`tracing.install_service_layers` and the collector hook,
runs the ordinary ``repro`` command line with the remaining arguments,
and after the daemon has drained writes every span and pause to
``OUT.json``.  The ready and drained lines are the daemon's own.
"""

from __future__ import annotations

import sys

import tracing


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_serve.py --spans OUT.json <repro arguments>", file=sys.stderr)
        return 2
    out, rest = argv[1], argv[2:]
    recorder = tracing.Recorder()
    tracing.install_service_layers(recorder)
    recorder.hook_gc()
    from repro.__main__ import main as repro_main

    code = repro_main(rest)
    recorder.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
