"""Output files: their locations are checked before any work and made when written.

Every CSV the package writes goes through ``write_csv``. A command checks its
output location with ``check_writable`` first, so an unwritable one stops it
with a ``ConfigurationError`` before anything is loaded or trained.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

import numpy as np

from .errors import ConfigurationError


def check_writable(path: str | Path, directory: bool = False) -> None:
    """Refuse a file (or ``directory``) location that cannot be made or written.

    The location, if it exists, must be a writable file (or directory);
    otherwise its nearest existing ancestor must be a directory that this
    process can write into. Nothing is created.
    """
    target = Path(os.path.abspath(path))
    nearest = next(p for p in (target, *target.parents) if p.exists())
    want_dir = directory or nearest != target
    access = os.W_OK | os.X_OK if want_dir else os.W_OK  # entering a directory needs X
    if nearest.is_dir() != want_dir or not os.access(nearest, access):
        raise ConfigurationError(f"cannot write {path}: {nearest} is not a writable "
                                 f"{'directory' if want_dir else 'file'}")


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` to ``path`` as CSV, making missing directories.

    A float cell, numpy's included, is written as ``repr(float(x))``, the
    shortest text that reads back to the same float64, so no caller formats a
    number. An ``OSError`` on the way is a ``ConfigurationError`` naming the path.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([repr(float(cell)) if isinstance(cell, (float, np.floating)) else cell
                              for cell in row] for row in rows)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc
