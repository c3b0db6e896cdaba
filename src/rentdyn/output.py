"""Deterministic file output: atomic writes, digests, and run manifests.

Every artifact is written to a temporary file in the destination directory
and renamed into place, so a crash or rejected run never leaves a partial
file behind. Each output directory gets a ``manifest.json`` recording what
produced the files (tool version, command, clock, parameter digest) and a
SHA-256 per artifact so a consumer can verify integrity byte-for-byte.

Reruns with the same inputs produce byte-identical artifacts; the manifest
timestamp honors the ``SOURCE_DATE_EPOCH`` convention so archival builds
can pin it too.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from rentdyn import __version__
from rentdyn.engine import START_MONTH, START_YEAR, SimClock
from rentdyn.params import FIELDS, ModelParams, get_value

__all__ = [
    "atomic_write_text",
    "csv_lines",
    "write_csv",
    "write_json",
    "file_sha256",
    "params_digest",
    "manifest_timestamp",
    "write_manifest",
]


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` via a same-directory rename (all or nothing)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.chmod(tmp_name, 0o644)  # mkstemp defaults to owner-only
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def csv_lines(rows: Iterable[Sequence]) -> list[str]:
    """Each row as one comma-separated line, without its newline.

    Cells are written with ``str``, which for a float is its ``repr``: the
    shortest text that round-trips exactly, never depending on locale. None
    of the emitted values contain commas or quotes, so no quoting layer is
    needed.
    """
    return [",".join(map(str, row)) for row in rows]


def write_csv(path: str | Path, header: list[str], lines: list[str]) -> Path:
    """Write a simple comma-separated table atomically: the header, then
    ``lines``, the rows as :func:`csv_lines` renders them."""
    return atomic_write_text(path, "\n".join([",".join(header), *lines]) + "\n")


def write_json(path: str | Path, payload) -> Path:
    """Write JSON atomically with sorted keys and a stable layout."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    return atomic_write_text(path, text + "\n")


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def params_digest(params: ModelParams) -> str:
    """SHA-256 over a canonical rendering of every registered parameter."""
    lines = []
    for field in FIELDS:
        value = get_value(params, field.path)
        rendered = repr(float(value)) if isinstance(value, float) else repr(value)
        lines.append(f"{field.path}={rendered}")
    blob = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def manifest_timestamp() -> str:
    """UTC ISO-8601 creation time; pinned by SOURCE_DATE_EPOCH when set."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        try:
            moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
        except (ValueError, OverflowError, OSError):
            raise ValueError(f"SOURCE_DATE_EPOCH must be whole seconds since 1970 "
                             f"that a date can hold, not {epoch!r}") from None
    else:
        moment = datetime.now(tz=timezone.utc)
    return moment.replace(microsecond=0).isoformat()


def write_manifest(
    directory: str | Path,
    command: str,
    params: ModelParams,
    clock: SimClock,
    artifacts: list[Path],
    scenario_names: list[str],
    params_file: str | None = None,
    seed: int | None = None,
) -> Path:
    """Write ``manifest.json`` describing every artifact in ``directory``."""
    directory = Path(directory)
    payload = {
        "tool": "rentdyn",
        "version": __version__,
        "created_at": manifest_timestamp(),
        "command": command,
        "scenarios": sorted(scenario_names),
        "clock": {
            "dt": clock.dt,
            "horizon": clock.horizon,
            "burn_in": clock.burn_in,
            "start_year": START_YEAR,
            "start_month": START_MONTH,
        },
        "params_sha256": params_digest(params),
        "params_file": params_file,
        "seed": seed,
        "artifacts": {
            path.name: file_sha256(path) for path in sorted(artifacts)
        },
    }
    return write_json(directory / "manifest.json", payload)
