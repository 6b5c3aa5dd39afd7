"""One fresh interpreter of the benchmark: a set-up, or one CLI command.

    python3 perfbench/child.py setup WORKLOAD SEED DIR [--tiny]
    python3 perfbench/child.py run --timing FILE [--spans FILE --run-id ID] -- COMMAND ARGS...

fieldcover is imported from ``src/`` of the checkout this file sits in,
never from an installed copy. ``run`` times ``fieldcover.cli.main``
alone, import excluded, and writes the exit code and seconds to the
timing file; with ``--spans`` it also traces the command and writes the
spans there. The command's own ``--out`` never receives either file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))


def _import_cli():
    from fieldcover import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"fieldcover was imported from {cli.__file__}, outside {SRC}")
    return cli


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("workload")
    setup.add_argument("seed", type=int)
    setup.add_argument("dir", type=Path)
    setup.add_argument("--tiny", action="store_true")
    run = sub.add_parser("run")
    run.add_argument("--timing", required=True, type=Path)
    run.add_argument("--spans", type=Path)
    run.add_argument("--run-id", default="")
    run.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    cli = _import_cli()
    if args.mode == "setup":
        import workloads

        workloads.write_inputs(args.workload, args.seed, args.dir, args.tiny)
        return 0

    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    tracer = None
    if args.spans is not None:
        import tracing

        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer)
        root = tracer.open(f"cli.{command[0]}")
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        code = cli.main(command)
    finally:
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu_start
        if tracer is not None:
            tracer.close(root)
    args.timing.write_text(json.dumps({"code": code, "seconds": seconds, "cpu_seconds": cpu_seconds}), encoding="utf-8")
    if tracer is not None:
        args.spans.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
