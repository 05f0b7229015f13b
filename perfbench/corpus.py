"""Benchmark inputs: generated corpora, cached by workload and seed.

Corpora come from the program's own ``gen-corpus`` command, run untimed.
The archive variant moves each application's invoice, receipt and photo
files, with their sidecars, into one ``anexos.zip``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import zipfile
from pathlib import Path

ARCHIVE_NAME = "anexos.zip"
# generated file names of the documents an applicant would bundle
ARCHIVED_PREFIXES = ("fatura.", "recibo.", "foto_")


def source_digest(src: Path) -> str:
    """Digest of the program's sources, so a cache never outlives a code change."""
    digest = hashlib.sha256()
    for path in sorted((src / "claimcheck").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def build_archive_corpus(loose: Path, target: Path) -> None:
    """Copy ``loose`` to ``target`` with the bundled documents zipped per app."""
    target.mkdir(parents=True)
    for path in sorted(loose.iterdir()):
        if path.is_file():
            shutil.copyfile(path, target / path.name)
            continue
        app_dir = target / path.name
        app_dir.mkdir()
        members = []
        for item in sorted(path.iterdir()):
            if item.name.startswith(ARCHIVED_PREFIXES):
                members.append(item)
            else:
                shutil.copyfile(item, app_dir / item.name)
        with zipfile.ZipFile(app_dir / ARCHIVE_NAME, "w", zipfile.ZIP_DEFLATED) as archive:
            for item in members:
                archive.write(item, arcname=item.name)


def _generate(cli: list[str], env: dict, out: Path, apps: int, seed: int,
              unsupported_rate: float) -> None:
    command = [*cli, "gen-corpus", "--out", str(out), "--n", str(apps), "--seed", str(seed)]
    if unsupported_rate:
        command += ["--unsupported-rate", str(unsupported_rate)]
    done = subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"gen-corpus failed ({done.returncode}): {done.stderr[-2000:]}")


def corpus_for(cache: Path, name: str, key: str, cli: list[str], env: dict, *,
               apps: int, seed: int, unsupported_rate: float, archive: bool) -> Path:
    """Directory holding ``loose/`` (and ``archive/``) for corpus ``name`` and seed.

    Built under a temporary name and renamed when complete, so a run cut
    short never leaves a half-written corpus behind.
    """
    final = cache / f"{name}-s{seed}-{key}"
    if not final.is_dir():
        for leftover in cache.glob(".building-*"):
            shutil.rmtree(leftover)
        building = cache / f".building-{name}-s{seed}"
        building.mkdir(parents=True)
        _generate(cli, env, building / "loose", apps, seed, unsupported_rate)
        if archive:
            build_archive_corpus(building / "loose", building / "archive")
        os.rename(building, final)
    return final
