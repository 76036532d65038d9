"""numpy, loaded on first use.

Importing numpy costs about as much CPU as a whole learner run at any t and
starts its BLAS threads, yet learn, bench, gen and bounds never call it. So
the modules that do call it take `np` from here: a module that runs numpy's
import on its first attribute access (the importlib.util.LazyLoader recipe
of the Python docs). After that load `np` is the plain numpy module, so an
attribute read costs what it does on numpy itself. A numpy that is already
imported is used as is, and a missing numpy still raises ImportError when
this module is imported.

On Python 3.11 the first attribute access is not thread-safe: two threads
that make it at once can both run numpy's import. hhl itself starts no
threads.
"""

from __future__ import annotations

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
