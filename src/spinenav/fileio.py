"""Report output shared by the CLI, the simulation harness and the
workflow session store: atomic writes, the JSON report layout, provenance
records and the CSV provenance header."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path

from . import __version__
from .errors import IOFailure

# mkstemp creates files readable by the owner only; finished outputs get the
# permissions a plain open() would give them
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write(path, data: str | bytes, parents: bool = False) -> None:
    """Write text (as UTF-8) or bytes to path so that readers see the old
    file or the new one, never a partial one.

    The data goes to a uniquely named temporary file in the target directory,
    which then replaces path. parents=True first creates that directory and
    its missing parents; otherwise a missing directory is an error. On any
    failure the temporary file is removed and path is left as it was; OS
    errors surface as IOFailure.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        if parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                                   dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.chmod(tmp, 0o666 & ~_UMASK)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as err:
        raise IOFailure(str(err)) from err


def write_json(path, doc: dict, parents: bool = False) -> None:
    """Atomic JSON report: keys sorted, one-space indent, trailing newline."""
    atomic_write(path, json.dumps(doc, sort_keys=True, indent=1) + "\n", parents)


def provenance(seed: int, config: dict | None = None) -> dict:
    """Provenance record of a report: tool, version, seed, and the first 16
    hex digits of the SHA-256 of the config as key-sorted JSON."""
    blob = json.dumps(config or {}, sort_keys=True).encode("utf-8")
    return {"tool": "spinenav", "version": __version__, "seed": seed,
            "config_hash": hashlib.sha256(blob).hexdigest()[:16]}


def csv_with_provenance(prov: dict, body: str) -> str:
    """CSV body under one '# key=value' comment line per provenance key, in
    key order."""
    return "".join(f"# {k}={prov[k]}\n" for k in sorted(prov)) + body
