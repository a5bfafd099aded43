"""Run ``serve_as_super_server`` as a daemon of its own.

Usage: ``PYTHONPATH=src python3 perfbench/super_server.py --bind HOST:PORT --children H:P,H:P``

Mirrors ``hfstabu worker``: prints one JSON ready line with the bound
address on stdout, logs one line per request on stderr, and shuts down
on SIGTERM or SIGINT.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys

from hfstabu import serve_as_super_server


def _endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host, int(port)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bind", type=_endpoint, required=True)
    parser.add_argument("--children", required=True, help="comma-separated HOST:PORT list")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    children = [_endpoint(part) for part in args.children.split(",") if part]
    server = serve_as_super_server(*args.bind, children)
    server.start()
    print(json.dumps({"event": "ready", "host": server.address[0], "port": server.address[1],
                      "lanes": server.lanes}), flush=True)

    def stop(signum, frame):
        server.shutdown(reason=f"signal {signum}")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
