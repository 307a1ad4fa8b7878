"""Traced daemon entry point of the ``service-evaluate`` workload.

    PYTHONPATH=src python3 perfbench/serve_traced.py SPANS.json serve --db ... --cache-dir ...

Installs the layer wrappers of :mod:`spans`, runs
``repro.service.cli.main(["serve", ...])`` and, however the daemon exits,
writes every recorded span to ``SPANS.json``.
"""

from __future__ import annotations

import sys

from spans import Tracer, write_spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from repro.service import cli

    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        write_spans(spans_path, tracer.take())


if __name__ == "__main__":
    raise SystemExit(main())
