"""Paths shared by the benchmark's modules, and the import of the program under test.

The benchmark always measures the source tree next to it (``<root>/src``),
never an installed copy, so that a checkout measures exactly its own code.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS_PATH = BENCH / "refs.json"
TABLES_PATH = BENCH / "synthetic_tables.csv"
BUTTERFLY_CSV = SRC / "klchernoff" / "datasets" / "corbet_butterflies.csv"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``src/klchernoff``."""


def import_program():
    """Import ``klchernoff`` from ``<root>/src`` and return the package module."""
    if not (SRC / "klchernoff" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {SRC / 'klchernoff'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import klchernoff

    if Path(klchernoff.__file__).resolve().parent != SRC / "klchernoff":
        raise ProgramMissing(f"klchernoff was imported from {klchernoff.__file__}, not from {SRC}")
    return klchernoff


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's source first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env
