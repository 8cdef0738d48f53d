"""One benchmark child: runs the eigenrl CLI in this fresh process.

Usage: python3 child.py SRC MODE REPORT -- <eigenrl arguments>

SRC is the directory holding the ``eigenrl`` package.  MODE is ``setup``
(stop as soon as the config is loaded), ``run`` (untraced) or ``trace``
(every public function of the layers wrapped by ``tracer.Tracer``).  The
child writes REPORT as JSON: ``time.monotonic()`` stamps for the end of
set-up and for the written results, the agent iterations run, the exit code
of ``cli.main`` and, when traced, the path of the tracer dump.  Its exit
code is that of ``cli.main``.
"""
from __future__ import annotations

import json
import os
import sys
import time


class _SetupDone(BaseException):
    """Unwinds out of ``cli.main`` once the config has been loaded."""


def main(argv: list[str]) -> int:
    src, mode, report_path = argv[:3]
    cli_args = argv[4:] if argv[3:4] == ["--"] else argv[3:]
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    report: dict = {"mode": mode, "setup_done": None, "results_written": None,
                    "iterations": 0, "exit": None}

    import eigenrl.cli as cli
    from eigenrl import harness, protocol
    from tracer import Tracer, rebind

    report["eigenrl_file"] = os.path.abspath(cli.__file__)
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()

    def after_load(fn):
        def load_config(*args, **kwargs):
            config = fn(*args, **kwargs)
            report["setup_done"] = time.monotonic()
            if mode == "setup":
                raise _SetupDone
            return config
        return load_config

    def after_write(fn):
        def write_results(*args, **kwargs):
            fn(*args, **kwargs)
            report["results_written"] = time.monotonic()
        return write_results

    def counting(fn):
        # one call per repetition, so counting adds no per-iteration cost
        def run_stages(*args, **kwargs):
            agent = fn(*args, **kwargs)
            report["iterations"] += agent.k - 1
            return agent
        return run_stages

    report["unhooked"] = []
    for module, name, make in ((harness, "load_config", after_load),
                               (harness, "write_results", after_write),
                               (protocol, "run_stages", counting)):
        current = getattr(module, name, None)
        if current is None:
            report["unhooked"].append(f"{module.__name__}.{name}")
        else:
            rebind("eigenrl", current, make(current))
    try:
        report["exit"] = cli.main(cli_args)
    except _SetupDone:
        report["exit"] = 0
    finally:
        if tracer is not None:
            dump = report_path + ".trace.json"
            tracer.dump(dump)
            report["trace"] = dump
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
