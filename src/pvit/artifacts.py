"""The one way files are written and JSON Lines files are read.

JSON Lines files (logits, scores) are a header object on line 1, then
one object per non-blank line.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import stat
from typing import Iterable, Iterator, Union

from .errors import FormatError

NUMBER_TYPES = frozenset({int, float})  # what JSON numbers parse to


def write_artifact(path: str, chunks: Union[Iterable[str], Iterable[bytes]]) -> None:
    """Stream str chunks (UTF-8) or bytes chunks into ``<path>.tmp``, then
    ``os.replace`` ``path`` with it: an exception or a crash leaves the
    previous file or none, never a half-written one (no fsync, so not across
    a power loss).  A rewrite keeps the target's permission bits; a new file
    gets a plain ``open``'s mode.  A writer killed mid-write leaves
    ``<path>.tmp``, which the next write of ``path`` unlinks before it
    creates its own, so a planted file or symlink there is never written
    through.  Two processes must not write one ``path`` at once."""
    chunks = iter(chunks)
    first = next(chunks, "")
    tmp = path + ".tmp"  # beside path, and named after it in errors
    with contextlib.suppress(FileNotFoundError):
        os.unlink(tmp)
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


def write_jsonl(path: str, header: dict, rows: Iterable[dict]) -> None:
    """A header line, then one JSON line per row, streamed as ``rows`` yields."""
    write_artifact(path, (json.dumps(obj) + "\n" for obj in itertools.chain([header], rows)))


def read_jsonl(path: str) -> tuple[dict, Iterator[tuple[int, dict]]]:
    """The header object, and an iterator of ``(lineno, object)`` that parses
    each later non-blank line as it reaches it.  A line that is not UTF-8
    text or not a JSON object raises :class:`FormatError` naming ``file:line``.

    Each line goes through one call of json's C scanner; ``json.loads``
    runs only for a line the scanner cannot take whole (leading or trailing
    whitespace other than one final newline, a BOM, extra data, bad JSON),
    so every line yields what ``json.loads`` yields or raises with its message."""
    objects = _objects(path)
    return next(objects)[1], objects


_scan_once = json.JSONDecoder().scan_once  # (value, end) at an index, as json.loads' own scanner


def _objects(path: str) -> Iterator[tuple[int, dict]]:
    lineno = 0
    with open(path, "rb") as fh:  # decoded line by line, so a bad byte names its line
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: not UTF-8 text: {exc}") from None
            try:
                obj, end = _scan_once(line, 0)
                whole = end == len(line) or line[end:] == "\n"
            except (StopIteration, ValueError, RecursionError):
                whole = False
            if not whole:
                if lineno > 1 and not line.strip():  # a blank line: the scanner never takes one
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int past the digit limit
                    raise FormatError(f"{path}:{lineno}: malformed JSON: {exc}") from None
            if type(obj) is not dict:
                raise FormatError(f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
            yield lineno, obj
    if lineno == 0:
        raise FormatError(f"{path}: empty file, expected a header line")
