"""repro — reproduction of the LS3DF linearly scaling 3D fragment method.

Public API highlights
---------------------
* :class:`repro.core.LS3DF` — the LS3DF solver (divide-and-conquer DFT).
* :class:`repro.pw.DirectSCF` — the conventional O(N^3) plane-wave solver.
* :mod:`repro.atoms` — zinc-blende / alloy builders and the Keating VFF.
* :mod:`repro.parallel` — machine models reproducing the paper's
  performance evaluation (Table I, Figures 3-5).
* :mod:`repro.analysis` — band-edge state analysis (Figure 7).

Every package exports its names lazily: ``import repro`` loads no
submodule, and ``repro.core.LS3DF`` imports :mod:`repro.core.driver` the
first time it is read, so each process imports only what it runs.
"""

import importlib
import sys
from functools import partial

__version__ = "1.0.0"


def __getattr__(name: str, package: str = __name__):
    """Import the submodule that defines ``package.name`` (PEP 562).

    The hook of every ``repro`` package (bound by :func:`exports`).  The
    value is cached on the package, so the hook runs once per name.
    """
    module = sys.modules[package]
    source = module._EXPORTS.get(name)
    if source is None:
        raise AttributeError(f"module {package!r} has no attribute {name!r}")
    value = importlib.import_module(f"{package}.{source}")
    if source != name:
        value = getattr(value, name)
    setattr(module, name, value)
    return value


def exports(package: str, table: dict[str, str]):
    """``(__all__, __getattr__)`` of ``package``.

    ``table`` maps each submodule to the names it defines that the
    package exports, space-separated; a submodule that lists its own
    name is exported as a module.
    """
    names = {name: source for source, listed in table.items() for name in listed.split()}
    sys.modules[package]._EXPORTS = names
    return list(names), partial(__getattr__, package=package)


__all__ = exports(__name__, {
    "analysis": "analysis", "atoms": "atoms", "io": "io", "parallel": "parallel",
    "core": "core LS3DF compare_ls3df_to_direct", "pw": "pw DirectSCF",
})[0] + ["__version__"]
