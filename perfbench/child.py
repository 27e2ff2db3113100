"""One benchmark pass: a fresh interpreter that calls ``crashsev.cli.main``.

    python3 perfbench/child.py --peak-rss OUT.txt [--spans OUT.json] <crashsev arguments...>

The process writes its own peak resident memory in KiB (``VmHWM`` of
``/proc/self/status``) to ``--peak-rss`` when ``main`` ends. ``VmHWM``
belongs to the memory image made by ``exec``, so unlike the ``ru_maxrss``
a parent reads from ``wait4`` it does not include the parent's own peak.

With ``--spans`` the pass is traced: the program's public functions are
wrapped (see ``tracer.py``) and the spans, including the time spent importing
``crashsev.cli``, are written to OUT.json when ``main`` returns.
"""

import os
import sys
import time

_START = time.perf_counter()
_HERE = os.path.dirname(os.path.abspath(__file__))


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
    import crashsev.cli as cli

    if spans_path is None:
        return cli.main(argv)

    imported = time.perf_counter()
    import tracer  # beside this script, so already on sys.path

    recorder = tracer.Tracer()
    recorder.record("cli.import", _START, imported)
    tracer.install(recorder)
    code = recorder.wrap("cli.main", cli.main)(argv)
    recorder.dump(spans_path)
    return code


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] != ["--peak-rss"]:
        sys.exit("usage: child.py --peak-rss OUT.txt [--spans OUT.json] <crashsev arguments...>")
    rss_path, argv = argv[1], argv[2:]
    try:
        return run(argv)
    finally:
        with open(rss_path, "w", encoding="ascii") as fh:
            fh.write(f"{peak_rss_kib()}\n")


if __name__ == "__main__":
    sys.exit(main())
