"""Start ``repro``'s HTTP server with the layer wrappers installed.

Usage: ``python3 perfbench/serve_traced.py STORE_URL PORT OUT_JSON [SPANS_GZ]``
with ``PYTHONPATH=src``.  Serves exactly as ``python -m repro serve`` does;
after graceful shutdown (``POST /shutdown``) it writes the per-layer summary
to OUT_JSON and, if SPANS_GZ is given, every span to SPANS_GZ.
"""

from __future__ import annotations

import json
import sys

import tracing


def main() -> int:
    store_url, port, out_path = sys.argv[1:4]
    spans_path = sys.argv[4] if len(sys.argv) > 4 else ""
    tracer = tracing.install(tracing.Tracer())
    from repro.api.server import serve

    serve(store_url, port=int(port))
    document = {
        "spans": tracer.summary(),
        "counts": dict(tracer.counts),
        "wrapped": tracer.wrapped,
        "missing": tracer.missing,
        "spans_written": tracer.write(spans_path) if spans_path else 0,
    }
    with open(out_path, "w", encoding="utf-8") as out:
        json.dump(document, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
