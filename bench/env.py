"""Environment pins, fingerprint and process-tree accounting (Linux /proc)."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

#: The thread pins every workload subprocess (and everything it spawns) runs
#: under.  Two workers with two BLAS threads each on two cores measure the
#: scheduler, not the program (see README "Environment rule").
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"


def child_environment(pinned: bool = True) -> dict[str, str]:
    """Environment of a workload subprocess: ``src`` importable, BLAS pinned."""
    env = dict(os.environ)
    paths = [str(REPO_ROOT), str(REPO_ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for name, value in THREAD_PINS.items():
        if pinned:
            env[name] = value
        else:
            env.pop(name, None)
    return env


def _proc_stat(pid: int) -> tuple[int, float] | None:
    """``(ppid, cpu seconds incl. reaped children)`` of one process."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may contain spaces and parentheses; fields resume
    # after the last ')'.
    fields = raw[raw.rindex(")") + 2:].split()
    ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))  # utime stime cutime cstime
    return int(fields[1]), ticks / os.sysconf("SC_CLK_TCK")


def _process_tree() -> dict[int, float]:
    """pid -> CPU seconds of this process and every live descendant."""
    stats = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None:
                stats[int(entry)] = stat
    me = os.getpid()
    tree = {}
    for pid, (_, cpu) in stats.items():
        ancestor = pid
        while ancestor != me and ancestor in stats:
            ancestor = stats[ancestor][0]
        if ancestor == me:
            tree[pid] = cpu
    return tree


def tree_cpu_seconds() -> float:
    """User+system CPU of this process and every live or reaped descendant."""
    return sum(_process_tree().values())


def tree_peak_rss_mb() -> float:
    """Largest resident-set high-water mark (``VmHWM``) of any live process of the tree."""
    peak_kb = 0
    for pid in _process_tree():
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak_kb = max(peak_kb, int(line.split()[1]))
    return peak_kb / 1024.0


def filesystem_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (``unknown`` off Linux)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target = str(path.resolve())
    best, fstype = "", "unknown"
    for line in mounts:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
            best, fstype = mount, parts[2]
    return fstype


def _git_head() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(seed: int, argv: list[str]) -> dict:
    """What the numbers were measured on; attached to every output."""
    import numpy

    blas: object = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", "unknown")
    except (TypeError, AttributeError):  # numpy < 1.25
        pass
    try:
        import threadpoolctl

        pools: object = threadpoolctl.threadpool_info()
    except ImportError:
        pools = "threadpoolctl not importable"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "threadpools": pools,
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "store_filesystem": filesystem_type(OUT_DIR if OUT_DIR.exists() else OUT_DIR.parent),
        "git_head": _git_head(),
        "seed": seed,
        "argv": list(argv),
    }
