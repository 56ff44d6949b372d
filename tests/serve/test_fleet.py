"""The pre-fork serving fleet, end to end through the real CLI.

Two contracts: **identity** — N workers SO_REUSEPORT-sharing a port are
observationally one server (bit-identical answers on every connection,
wherever the kernel lands it); and **supervision** — a SIGKILLed worker
is replaced (counted in ``repro_serve_worker_restarts_total``) while
the port keeps answering, SIGTERM drains the whole fleet to a clean
exit with the per-worker metrics merged into one snapshot (restarted
workers' counters included), and a SIGTERM during start-up stops the
fleet at once.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

from repro.core.index import CorpusIndex
from repro.core.segments import SegmentedCorpusReader
from repro.serve import READY_PREFIX, RemoteHitlistClient

from .conftest import query_addresses, write_serve_store

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
CLI = [sys.executable, "-m", "repro.cli"]
CLI_ENV = {**os.environ, "PYTHONPATH": "src"}

#: Generous: single-core CI runners fork + rebuild slowly.
STARTUP_TIMEOUT = 120

_WORKER_LINE = re.compile(r"serve worker (\d+) listening pid=(\d+)")

#: The batch ops a client answers; used for identity comparison.
BATCH_METHODS = [
    "record_batch",
    "lifetime_batch",
    "entropy_batch",
    "features_batch",
    "contains_batch",
    "in_slash48_batch",
    "in_slash64_batch",
]


class _Fleet:
    """A ``repro serve`` subprocess with captured, parseable stderr."""

    def __init__(self, directory, *extra_args):
        self.process = subprocess.Popen(
            CLI + ["serve", str(directory), *extra_args],
            env=CLI_ENV,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr_lines = []
        self._stderr_thread = threading.Thread(
            target=self._pump_stderr, daemon=True
        )
        self._stderr_thread.start()
        ready = self.process.stdout.readline().strip()
        assert ready.startswith(READY_PREFIX), (
            ready,
            "".join(self.stderr_lines),
        )
        _, _, host, port = ready.split()
        self.host, self.port = host, int(port)

    def _pump_stderr(self):
        for line in self.process.stderr:
            self.stderr_lines.append(line)

    def worker_pids(self):
        """(worker_id, pid) pairs seen so far, in stderr order."""
        pairs = []
        for line in list(self.stderr_lines):
            match = _WORKER_LINE.search(line)
            if match:
                pairs.append(
                    (int(match.group(1)), int(match.group(2)))
                )
        return pairs

    def stop(self, expect_code=0):
        self.process.send_signal(signal.SIGTERM)
        code = self.process.wait(timeout=STARTUP_TIMEOUT)
        self._stderr_thread.join(timeout=10)
        assert code == expect_code, "".join(self.stderr_lines)

    def kill(self):
        if self.process.poll() is None:  # pragma: no cover - cleanup
            self.process.kill()
            self.process.wait(timeout=30)


def _ask_everything(host, port, queries, connections=3):
    """Per-connection answer dicts (separate connections land on
    separate workers under SO_REUSEPORT)."""

    async def scenario():
        answers = []
        for _ in range(connections):
            client = await RemoteHitlistClient.connect(host, port)
            async with client:
                answers.append(
                    {
                        method: await getattr(client, method)(queries)
                        for method in BATCH_METHODS
                    }
                )
        return answers

    return asyncio.run(scenario())


class TestMultiWorkerIdentity:
    def test_two_workers_bit_identical_to_one(self, tmp_path):
        write_serve_store(tmp_path, per_segment=60, segments=2)
        ground_truth = CorpusIndex.build(
            SegmentedCorpusReader.open(tmp_path).load()
        )
        queries = query_addresses(ground_truth.addresses)

        single = _Fleet(tmp_path, "--reload-interval", "0")
        try:
            baseline = _ask_everything(
                single.host, single.port, queries, connections=1
            )[0]
            single.stop()
        finally:
            single.kill()

        fleet = _Fleet(
            tmp_path,
            "--serve-workers",
            "2",
            "--reload-interval",
            "0",
        )
        try:
            # Wait until both workers announced themselves.
            deadline = time.monotonic() + STARTUP_TIMEOUT
            while len(fleet.worker_pids()) < 2:
                assert time.monotonic() < deadline, (
                    "".join(fleet.stderr_lines)
                )
                time.sleep(0.05)
            for answers in _ask_everything(
                fleet.host, fleet.port, queries, connections=4
            ):
                assert answers == baseline
            fleet.stop()
        finally:
            fleet.kill()


class TestSupervision:
    def test_killed_worker_is_replaced_and_counted(self, tmp_path):
        write_serve_store(tmp_path, per_segment=40, segments=2)
        ground_truth = CorpusIndex.build(
            SegmentedCorpusReader.open(tmp_path).load()
        )
        present = ground_truth.addresses[0]
        metrics_path = tmp_path / "fleet-metrics.json"

        fleet = _Fleet(
            tmp_path,
            "--serve-workers",
            "2",
            "--reload-interval",
            "0",
            "--metrics-out",
            str(metrics_path),
        )
        try:
            deadline = time.monotonic() + STARTUP_TIMEOUT
            while len(fleet.worker_pids()) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            victim = fleet.worker_pids()[0][1]
            os.kill(victim, signal.SIGKILL)
            # The supervisor notices the death and forks a replacement
            # (a third "listening" announcement).
            while len(fleet.worker_pids()) < 3:
                assert time.monotonic() < deadline, (
                    "".join(fleet.stderr_lines)
                )
                time.sleep(0.05)
            # The fleet still answers on the same port.
            async def probe():
                client = await RemoteHitlistClient.connect(
                    fleet.host, fleet.port
                )
                async with client:
                    return await client.contains(present)

            assert asyncio.run(probe()) is True
            fleet.stop()
        finally:
            fleet.kill()

        snapshot = json.loads(metrics_path.read_text())
        counters = snapshot["counters"]
        assert counters["repro_serve_worker_restarts_total"] >= 1
        # Worker-side serving telemetry was merged into the snapshot.
        assert counters.get("repro_serve_requests_total", 0) >= 1
        # ...and the per-worker partials were cleaned up.
        assert not list(tmp_path.glob("fleet-metrics.json.w*"))

    def test_restarted_workers_counters_reach_metrics_out(self, tmp_path):
        write_serve_store(tmp_path, per_segment=40, segments=2)
        ground_truth = CorpusIndex.build(
            SegmentedCorpusReader.open(tmp_path).load()
        )
        present = ground_truth.addresses[0]
        metrics_path = tmp_path / "fleet-metrics.json"
        connections, lookups = 8, 5

        fleet = _Fleet(
            tmp_path,
            "--serve-workers",
            "2",
            "--reload-interval",
            "0",
            "--metrics-out",
            str(metrics_path),
        )
        try:
            deadline = time.monotonic() + STARTUP_TIMEOUT
            while len(fleet.worker_pids()) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.05)

            async def lookup():
                for _ in range(connections):
                    client = await RemoteHitlistClient.connect(
                        fleet.host, fleet.port
                    )
                    async with client:
                        for _ in range(lookups):
                            assert await client.contains(present) is True

            asyncio.run(lookup())
            # Both original workers drain and exit; each is replaced.
            for _, pid in fleet.worker_pids():
                os.kill(pid, signal.SIGTERM)
            while len(fleet.worker_pids()) < 4:
                assert time.monotonic() < deadline, (
                    "".join(fleet.stderr_lines)
                )
                time.sleep(0.05)
            fleet.stop()
        finally:
            fleet.kill()

        counters = json.loads(metrics_path.read_text())["counters"]
        assert counters["repro_serve_worker_restarts_total"] == 2
        # Every lookup, plus the hello each connection opens with.
        assert counters["repro_serve_requests_total"] == (
            connections * (lookups + 1)
        )

    def test_sigterm_during_start_up_stops_the_fleet_promptly(
        self, tmp_path
    ):
        write_serve_store(tmp_path, per_segment=40, segments=2)
        drain_timeout = 5.0
        process = subprocess.Popen(
            CLI
            + [
                "serve",
                str(tmp_path),
                "--serve-workers",
                "2",
                "--reload-interval",
                "0",
                "--drain-timeout",
                str(drain_timeout),
            ],
            env=CLI_ENV,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            lines = []
            for line in process.stderr:
                lines.append(line)
                if "forking 2 workers" in line:
                    break
            sent = time.monotonic()
            process.send_signal(signal.SIGTERM)
            _, rest = process.communicate(timeout=STARTUP_TIMEOUT)
            elapsed = time.monotonic() - sent
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.wait(timeout=30)
        log = "".join(lines) + rest
        assert "forking 2 workers" in log, log
        assert elapsed < drain_timeout, log
        assert "killing unresponsive serve worker" not in log, log
        assert process.returncode == 0, log
