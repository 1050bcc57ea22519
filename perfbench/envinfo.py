"""What a result was measured on: machine, interpreter, kernel backend, code.

Results are comparable only when `refine_backend` agrees: with Cython
installed the engine silently switches to its compiled kernel, which moves
the kernel-bound workload with no change to the code.
"""

from __future__ import annotations

import hashlib
import os
import platform
from importlib import metadata
from pathlib import Path


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(pkg: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(pkg.glob("*.py")) + sorted(pkg.glob("*.pyx")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path) -> dict:
    import tempowl

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": _version("numpy"),  # not imported: importing it would move peak_rss_mb
        "refine_backend": tempowl.REFINE_BACKEND,
        "commit": _commit(root),
        "src_sha256": source_digest(root / "src" / "tempowl"),
        "platform": platform.platform(),
    }
