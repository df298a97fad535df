"""The one way files are written and JSON Lines files are read.

JSON Lines files (logits, scores) are a header object on line 1, then
one object per non-blank line.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import stat
from typing import Iterable, Iterator, Union

from .errors import FormatError

NUMBER_TYPES = frozenset({int, float})  # what JSON numbers parse to


def write_artifact(path: str, chunks: Union[Iterable[str], Iterable[bytes]]) -> None:
    """Stream str chunks (UTF-8) or bytes chunks into a temporary file beside
    ``path``, then ``os.replace`` ``path`` with it: an exception or a crash
    leaves the previous file or none, never a half-written one (no fsync, so
    not across a power loss).  A rewrite keeps the target's permission bits;
    a new file gets a plain ``open``'s mode.  A writer killed mid-write
    leaves ``<path>.<12 hex digits>.tmp`` beside ``path``.  A process lists
    such files (12 lowercase hex digits exactly) once per directory, at its
    first write there, and its first write of ``path`` deletes the ones of
    ``path`` so listed and no other file; later ones stay for the next
    process.  Two processes must still not write one ``path`` at once."""
    for stale in _listed_temps(path):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(stale)
    chunks = iter(chunks)
    first = next(chunks, "")
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"  # beside path, and named after it in errors
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the kernel applies the umask
    try:
        with open(fd, "wb") if isinstance(first, bytes) else open(fd, "w", encoding="utf-8") as fh:
            fh.writelines(itertools.chain([first], chunks))
        with contextlib.suppress(FileNotFoundError):  # no target yet: keep the umask's mode
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_TEMP_NAME = re.compile(r"(.+)\.[0-9a-f]{12}\.tmp")  # group 1 is the target's name
_TEMPS: dict[str, dict[str, list[str]]] = {}  # directory -> target name -> its temporaries as first listed


def _listed_temps(path: str) -> list[str]:
    """``path``'s temporaries in this process's one listing of its directory, each returned once."""
    directory, name = os.path.split(os.path.abspath(path))
    if directory not in _TEMPS:
        _TEMPS[directory] = {}
        with contextlib.suppress(FileNotFoundError):  # no directory: write_artifact's open names path
            for entry in os.listdir(directory):
                match = _TEMP_NAME.fullmatch(entry)
                if match:
                    _TEMPS[directory].setdefault(match[1], []).append(entry)
    return [os.path.join(directory, entry) for entry in _TEMPS[directory].pop(name, [])]


def write_jsonl(path: str, header: dict, rows: Iterable[dict]) -> None:
    """A header line, then one JSON line per row, streamed as ``rows`` yields."""
    write_artifact(path, (json.dumps(obj) + "\n" for obj in itertools.chain([header], rows)))


def read_jsonl(path: str) -> tuple[dict, Iterator[tuple[int, dict]]]:
    """The header object, and an iterator of ``(lineno, object)`` that parses
    each later non-blank line as it reaches it.  A line that is not a JSON
    object raises :class:`FormatError` naming ``file:line``."""
    objects = _objects(path)
    return next(objects)[1], objects


def _objects(path: str) -> Iterator[tuple[int, dict]]:
    lineno = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno > 1 and not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: malformed JSON: {exc}") from None
            if type(obj) is not dict:
                raise FormatError(f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
            yield lineno, obj
    if lineno == 0:
        raise FormatError(f"{path}: empty file, expected a header line")
