"""Latency-injecting extraction stub, run by the benchmark in its own process.

It subclasses the program's ``FixtureStubServer`` and answers every
document after the extraction time its sidecar records
(``__meta__.elapsed_ms``, which ``gen-corpus`` takes from the paper's
per-typology cost table), divided by ``TIME_SCALE``. The delays are thus
fixed by the corpus seed and the document's path. The stub never
throttles and never injects errors.

Run as a script it prints ``{"url": ...}`` on its first stdout line and
then serves until stdin closes. Lines on stdin are commands: ``reset``
zeroes the counters, ``stats`` prints them as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

from claimcheck.stubserver import FixtureStubServer

# The cost table's per-document times are seconds (3.3 to 14.5 s, median
# 5.9 s); scaled down 200 times they wait 16 to 72 ms, median 29 ms.
TIME_SCALE = 200.0


class LatencyStubServer(FixtureStubServer):
    """Fixture stub that sleeps before answering and counts what it serves."""

    def __init__(self, corpus_root: Path):
        super().__init__(corpus_root)
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._requests = 0
            self._non_200 = 0
            self._inflight = 0
            self._peak = 0
            self._area = 0.0  # integral of in-flight count over time
            self._first = None
            self._last = None

    def _move(self, step: int) -> None:
        now = time.perf_counter()
        with self._lock:
            if self._first is None:
                self._first = now
            else:
                self._area += self._inflight * (now - self._last)
            self._last = now
            self._inflight += step
            if step > 0:
                self._requests += 1
                self._peak = max(self._peak, self._inflight)

    def stats(self) -> dict:
        with self._lock:
            span = (self._last - self._first) if self._first is not None else 0.0
            return {
                "requests": self._requests,
                "non_200": self._non_200,
                "inflight_peak": self._peak,
                "inflight_mean": self._area / span if span > 0 else 0.0,
            }

    def _answer(self, request: dict) -> dict:
        self._move(+1)
        try:
            response = super()._answer(request)
            time.sleep(response["elapsed_ms"] / 1000.0 / TIME_SCALE)
            return response
        except Exception:
            with self._lock:
                self._non_200 += 1
            raise
        finally:
            self._move(-1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", type=Path, required=True)
    args = parser.parse_args()
    with LatencyStubServer(args.corpus) as server:
        print(json.dumps({"url": server.url}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "reset":
                server.reset()
                print(json.dumps({"ok": True}), flush=True)
            elif command == "stats":
                print(json.dumps(server.stats()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
