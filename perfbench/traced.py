"""Run one sensordiag CLI command in this interpreter with its layers timed.

    python3 perfbench/traced.py SPANS_OUT OP_ID -- [sensordiag arguments...]

The public functions of ``dataset``, ``pca``, ``detection``, ``isolation``,
``ebf``, ``harness`` and ``cli`` (plus ``EvalReport.to_csv``/``to_json``) are
wrapped from outside, in every ``sensordiag`` namespace that holds them, so a
call made through a name imported elsewhere (``cli.ebf_step``,
``harness.filter_stream``) is timed too. Spans are kept in memory and written
to SPANS_OUT as JSON when the command returns. No file of the package changes.

A span is ``{name, start, end, parent, op_id}``: ``start``/``end`` are
``time.perf_counter`` readings in seconds and ``parent`` is the index of the
enclosing span in the same file (``null`` for a root). Counters record work
sizes where the work happens (rows read, bytes written, samples filtered).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYER_MODULES = ("dataset", "pca", "detection", "isolation", "ebf", "harness", "cli")
REPORT_METHODS = ("to_csv", "to_json")


def _variant(model, x, tag):
    return f"{tag.method.value}-{tag.index.value}"


def _rows_read(result, *args, **kwargs):
    return result.m


def _bytes_written(result, data, path):
    return Path(path).stat().st_size


def _samples_filtered(result, winners, *args, **kwargs):
    return len(winners)


# Span-name suffixes and work counters for the functions that need them.
LABELS = {"isolation.contribution_matrix": _variant}
COUNTERS = {
    "dataset.read_raw_csv": ("dataset.read_raw_csv.rows", _rows_read),
    "dataset.write_raw_csv": ("dataset.write_raw_csv.bytes", _bytes_written),
    "ebf.filter_stream": ("ebf.filter_stream.samples", _samples_filtered),
}


class Tracer:
    """In-memory span and counter recorder for one traced command."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        label = LABELS.get(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(*args, **kwargs)}"
            record = [span_name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                key, amount = counter
                counters[key] = counters.get(key, 0) + amount(result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function wherever a sensordiag module holds it."""
        wrapped = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"sensordiag.{short}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        harness = sys.modules["sensordiag.harness"]
        for method in REPORT_METHODS:
            original = getattr(harness.EvalReport, method)
            setattr(
                harness.EvalReport, method, self.wrap(f"harness.EvalReport.{method}", original)
            )
        for name, module in list(sys.modules.items()):
            if name != "sensordiag" and not name.startswith("sensordiag."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def dump(self, path: Path) -> None:
        payload = {
            "op_id": self.op_id,
            "counters": self.counters,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op_id": self.op_id}
                for n, s, e, p in self.spans
            ],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, op_id, cli_args = Path(argv[0]), int(argv[1]), argv[3:]
    tracer = Tracer(op_id)
    tracer.install()
    cli = sys.modules["sensordiag.cli"]
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
