"""``repro-submit``: the run-store service client and CLI.

:class:`ServiceClient` speaks the daemon's strict request/response
protocol over one persistent :class:`repro.parallel.wire.Connection`,
with a version handshake on connect.  It imports the wire endpoint and
the event kinds only: a ``repro-submit`` call
loads neither the solver nor, except for ``result``, numpy.
The CLI wraps it into subcommands — ``submit`` a spec file, ``status``
/ ``events`` / ``result`` / ``wait`` on a run, ``runs`` to list the
store, ``shutdown`` to stop the daemon — each printing JSON so shell
pipelines (and the CI smoke job) can assert on the output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.parallel.wire import SERVICE_PROTOCOL_VERSION, Connection
from repro.store.events import TERMINAL_KINDS

__all__ = ["ServiceClient", "ServiceError", "client_main"]


class ServiceError(RuntimeError):
    """The daemon answered a request with ``ok: False``.

    ``error_type`` names the exception the daemon raised (for instance
    ``UnknownRunError`` for a malformed or unknown run id).
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


class ServiceClient:
    """One client connection to a ``repro-serve`` daemon.

    Parameters
    ----------
    address:
        The daemon's ``(host, port)``.
    client:
        Label recorded in ``submitted``/``attached`` events.
    connect_timeout:
        Socket timeout for connect and the handshake; requests
        afterwards block until answered, except ``wait``, whose reply
        is due within its hold plus this (see :meth:`wait`).
    """

    def __init__(
        self,
        address: tuple[str, int],
        client: str = "repro-submit",
        connect_timeout: float = 10.0,
    ) -> None:
        self._conn = Connection(address, SERVICE_PROTOCOL_VERSION, connect_timeout)
        self.client = str(client)

    # -- plumbing ------------------------------------------------------
    def _request(self, request: dict, timeout: float | None = None) -> dict:
        reply = self._conn.request(request, timeout)
        if not reply.get("ok"):
            raise ServiceError(
                reply.get("error_type", "ServiceError"),
                reply.get("error", "request failed"),
            )
        return reply

    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._conn.close()

    def __enter__(self) -> "ServiceClient":
        self._conn.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- operations ----------------------------------------------------
    def ping(self) -> dict:
        """Daemon liveness probe; returns its pid."""
        return self._request({"op": "ping"})

    def submit(self, spec: dict) -> dict:
        """Submit a problem spec; dedup happens server-side.

        Returns
        -------
        dict
            ``run_id``, ``signature``, ``attached`` (True when this
            submission joined an existing run) and the run's current
            ``status``.
        """
        return self._request(
            {"op": "submit", "spec": dict(spec), "client": self.client}
        )

    def status(self, run_id: str) -> dict:
        """The run's head snapshot (O(1) server-side, no payload reads)."""
        return self._request({"op": "status", "run_id": str(run_id)})["head"]

    def events(self, run_id: str, since_seq: int = 0) -> list[dict]:
        """The run's events (JSON form) with ``seq >= since_seq``."""
        return self._request(
            {"op": "events", "run_id": str(run_id), "since_seq": int(since_seq)}
        )["events"]

    def result(self, run_id: str) -> dict | None:
        """The finished run's arrays + scalars, or None while running."""
        return self._request({"op": "result", "run_id": str(run_id)})["result"]

    def runs(self) -> dict:
        """All runs in the store: ``{run_id: status}``."""
        return self._request({"op": "runs"})["runs"]

    def stats(self) -> dict:
        """Daemon scheduling counters."""
        return self._request({"op": "stats"})

    def wait(self, run_id: str, timeout: float = 300.0, poll: float = 0.1) -> dict:
        """Block until the run is terminal; returns the head.

        Each ``wait`` request is held by the daemon for at most ``poll``
        seconds and answered the moment one of its job slots finishes
        the run; a run another daemon finishes over the same root is
        seen within ``poll``.  A reply that is not back within the hold
        plus ``connect_timeout`` (a stopped, wedged or unreachable
        daemon) closes the connection.

        Raises
        ------
        TimeoutError
            The run did not reach a terminal state in time, or the
            daemon stopped answering.
        """
        deadline = time.monotonic() + float(timeout)
        while True:
            hold = min(float(poll), max(0.0, deadline - time.monotonic()))
            request = {"op": "wait", "run_id": str(run_id), "poll": hold}
            head = self._request(request, timeout=hold + self._conn.connect_timeout)["head"]
            if head["status"] in TERMINAL_KINDS:
                return head
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"run {run_id} still {head['status']!r} after "
                    f"{timeout:.1f}s"
                )

    def shutdown(self) -> dict:
        """Ask the daemon to stop (in-flight solves resume on restart)."""
        try:
            return self._request({"op": "shutdown"})
        finally:
            self.close()


def _print_json(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def client_main(argv: Sequence[str] | None = None) -> int:
    """``repro-submit`` entry point.

    ``repro-submit --host H --port P submit problem.json [--wait]`` and
    friends; every subcommand prints a JSON document on stdout.
    ``result`` prints scalar metadata and (optionally) saves the arrays
    with ``--save out.npz`` — arrays never land on stdout.
    """
    parser = argparse.ArgumentParser(
        prog="repro-submit",
        description="Client for the repro-serve SCF daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="daemon host")
    parser.add_argument("--port", type=int, required=True, help="daemon port")
    parser.add_argument(
        "--client", default="repro-submit", help="client label recorded in events"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_submit = sub.add_parser("submit", help="submit a problem spec file")
    p_submit.add_argument("spec", help="path to a spec JSON file ('-' = stdin)")
    p_submit.add_argument(
        "--wait", action="store_true", help="block until the run is terminal"
    )
    p_submit.add_argument(
        "--timeout", type=float, default=300.0, help="--wait timeout (s)"
    )

    p_status = sub.add_parser("status", help="print a run's head snapshot")
    p_status.add_argument("run_id")

    p_events = sub.add_parser("events", help="print a run's event log")
    p_events.add_argument("run_id")
    p_events.add_argument("--since", type=int, default=0, help="first seq")

    p_result = sub.add_parser("result", help="print a finished run's scalars")
    p_result.add_argument("run_id")
    p_result.add_argument("--save", help="write result arrays to this .npz")

    p_wait = sub.add_parser("wait", help="block until a run is terminal")
    p_wait.add_argument("run_id")
    p_wait.add_argument("--timeout", type=float, default=300.0)

    sub.add_parser("runs", help="list every run and its status")
    sub.add_parser("ping", help="daemon liveness probe")
    sub.add_parser("shutdown", help="stop the daemon")

    args = parser.parse_args(argv)
    with ServiceClient((args.host, args.port), client=args.client) as client:
        if args.command == "submit":
            if args.spec == "-":
                spec = json.load(sys.stdin)
            else:
                spec = json.loads(Path(args.spec).read_text())
            reply = client.submit(spec)
            if args.wait:
                reply = dict(reply)
                reply["head"] = client.wait(
                    reply["run_id"], timeout=args.timeout
                )
            _print_json(reply)
        elif args.command == "status":
            _print_json(client.status(args.run_id))
        elif args.command == "events":
            _print_json(client.events(args.run_id, since_seq=args.since))
        elif args.command == "result":
            # Imported here: the other subcommands start without numpy.
            import numpy as np

            result = client.result(args.run_id)
            if result is None:
                _print_json(None)
            else:
                if args.save:
                    np.savez(
                        args.save,
                        density=result["density"],
                        potential=result["potential"],
                    )
                _print_json(
                    {
                        "energy": result["energy"],
                        "converged": result["converged"],
                        "iterations": result["iterations"],
                        "density_sum": float(np.sum(result["density"])),
                        "saved": args.save or None,
                    }
                )
        elif args.command == "wait":
            _print_json(client.wait(args.run_id, timeout=args.timeout))
        elif args.command == "runs":
            _print_json(client.runs())
        elif args.command == "ping":
            _print_json(client.ping())
        elif args.command == "shutdown":
            _print_json(client.shutdown())
    return 0
