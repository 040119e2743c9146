"""Warm worker: serves pooldesign requests through the click entry point.

Run as ``python perfbench/warm.py [--trace]`` with pooldesign importable.
It imports the CLI once, prints ``ready``, then reads one JSON line per
request, ``{"argv": [...]}``, from stdin until EOF.  For each it writes a
JSON header line ``{"code", "seconds", "out", "err"[, "trace"]}`` and then
the request's stdout and stderr bytes, ``out`` and ``err`` bytes long.
``seconds`` is the wall time of the click call alone.

With --trace, the program's layers are wrapped by tracing.install() and
each header carries the request's spans and counts.
"""

from __future__ import annotations

import io
import json
import sys
from time import perf_counter

import click

from pooldesign.cli import main

import tracing


def invoke(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Run one request in this interpreter; returns (exit code, stdout, stderr)."""
    out, err = io.BytesIO(), io.BytesIO()
    out_text = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    err_text = io.TextIOWrapper(err, encoding="utf-8", write_through=True)
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out_text, err_text
    try:
        result = main.main(args=argv, prog_name="pooldesign", standalone_mode=False)
        code = result if isinstance(result, int) else 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    finally:
        out_text.flush()
        err_text.flush()
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def serve(trace: bool) -> None:
    tracer = tracing.Tracer() if trace else None
    absent = tracing.install(tracer) if trace else []
    reply = sys.stdout.buffer
    reply.write((json.dumps({"ready": True, "absent": absent}) + "\n").encode())
    reply.flush()
    for line in sys.stdin:
        argv = json.loads(line)["argv"]
        start = perf_counter()
        if tracer is None:
            code, out, err = invoke(argv)
        else:
            code, out, err = tracer.run(tracing.ROOT, invoke, argv)
        seconds = perf_counter() - start
        header = {"code": code, "seconds": seconds, "out": len(out), "err": len(err)}
        if tracer is not None:
            tracer.counts["cli.out_bytes"] += len(out)
            header["trace"] = tracer.take()
        reply.write((json.dumps(header) + "\n").encode())
        reply.write(out)
        reply.write(err)
        reply.flush()


if __name__ == "__main__":
    serve("--trace" in sys.argv[1:])
