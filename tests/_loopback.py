"""Loopback worker clusters: the multi-worker executor of the tier-1 tests.

Every worker is a :func:`repro.parallel.remote.start_worker_thread` server
inside the test process, so each task and result crosses real loopback
TCP while the workers share this process's caches and cost no process
start.
"""

import contextlib

from repro.parallel.remote import (
    RemoteExecutor,
    RemoteExecutorConfig,
    start_worker_thread,
)


def config(**overrides) -> RemoteExecutorConfig:
    """Test defaults: fast connects and retries."""
    base = dict(
        connect_timeout=2.0,
        request_timeout=60.0,
        max_retries=1,
        backoff=0.01,
    )
    return RemoteExecutorConfig(**{**base, **overrides})


@contextlib.contextmanager
def cluster(n=2, plans=None, fallback=None, **overrides):
    """``(executor, servers)``: a RemoteExecutor over ``n`` fresh workers.

    ``plans`` maps worker index -> :class:`repro.parallel.faults.FaultPlan`
    for that worker; ``fallback`` and ``overrides`` (of :func:`config`)
    go to the executor.
    """
    plans = plans or {}
    servers = [start_worker_thread(fault_plan=plans.get(i)) for i in range(n)]
    executor = RemoteExecutor(
        [s.address for s in servers], config=config(**overrides), fallback=fallback
    )
    try:
        yield executor, servers
    finally:
        executor.close()
        for server in servers:
            server.stop()
        # A worker may still be inside a kernel the closed executor gave
        # up on, holding a static problem's lock: a process pool forked
        # then would inherit that lock held.  Wait until every worker is
        # idle.
        for server in servers:
            for thread in server._threads:
                thread.join(timeout=60.0)


@contextlib.contextmanager
def remote_executor(n=2, **kwargs):
    """The executor of :func:`cluster` alone, for tests that never touch a server."""
    with cluster(n, **kwargs) as (executor, _):
        yield executor
