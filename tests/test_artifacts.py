"""The artifact writer and JSON Lines reader: atomic replacement, file
permissions, lazy parsing, and that no other module writes files."""

import ast
import json
import os
import pathlib
import re
import stat

import pytest

import pvit
from pvit.artifacts import read_jsonl, write_artifact, write_jsonl
from pvit.errors import FormatError


class Interrupted(Exception):
    pass


def rows_then_fail(count):
    for i in range(count):
        yield {"id": f"row-{i}", "value": i}
    raise Interrupted("stopped partway")


class TestWriteArtifact:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_jsonl(str(path), {"k": 1}, ({"id": f"old-{i}"} for i in range(3)))
        before = path.read_bytes()
        with pytest.raises(Interrupted):
            write_jsonl(str(path), {"k": 2}, rows_then_fail(1000))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["scores.jsonl"]

    def test_failed_write_of_new_file_leaves_nothing(self, tmp_path):
        with pytest.raises(Interrupted):
            write_jsonl(str(tmp_path / "new.jsonl"), {"k": 2}, rows_then_fail(10))
        assert os.listdir(tmp_path) == []

    def test_missing_directory_error_names_the_target(self, tmp_path):
        target = tmp_path / "missing" / "prior.ckpt"
        with pytest.raises(FileNotFoundError, match=re.escape(str(target))):
            write_artifact(str(target), [b"PVIT"])

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_artifact_mode_matches_plain_open(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("x")
            write_artifact(str(tmp_path / "artifact.txt"), ["x"])
        finally:
            os.umask(previous)
        assert (tmp_path / "artifact.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o444])
    def test_rewrite_keeps_the_target_mode(self, tmp_path, mode):
        path = tmp_path / "scores.jsonl"
        write_artifact(str(path), ["old\n"])
        path.chmod(mode)
        previous = os.umask(0o022)
        try:
            write_artifact(str(path), ["new\n"])
        finally:
            os.umask(previous)
        assert path.read_text() == "new\n"
        assert stat.S_IMODE(path.stat().st_mode) == mode

    @pytest.mark.parametrize("chunks", [["café,", "", "x\n"], [b"\x00\x01", b"", b"\xff\n"], []])
    def test_str_or_bytes_chunks_replace_the_target(self, tmp_path, chunks):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous contents, longer than the new ones")
        write_artifact(str(path), iter(chunks))
        assert path.read_bytes() == b"".join(c if isinstance(c, bytes) else c.encode("utf-8") for c in chunks)

    def test_write_deletes_its_own_stale_temps_and_no_other_file(self, tmp_path):
        """A killed writer's ``<target>.<12 hex>.tmp`` goes at the target's
        next write; another target's temp and look-alikes stay."""
        stale = ["scores.jsonl.0123456789ab.tmp", "scores.jsonl.ffffffffffff.tmp"]
        kept = ["hist.csv.0123456789ab.tmp", "scores.jsonl.0123456789a.tmp", "scores.jsonl.0123456789AB.tmp",
                "scores.jsonl.0123456789abc.tmp", "scores.jsonl.0123456789ab.tmp.bak", "xscores.jsonl.0123456789ab.tmp"]
        for name in stale + kept:
            (tmp_path / name).write_text("partial")
        write_artifact(str(tmp_path / "scores.jsonl"), ["new\n"])
        assert sorted(os.listdir(tmp_path)) == sorted(kept + ["scores.jsonl"])
        assert (tmp_path / "scores.jsonl").read_text() == "new\n"

    def test_a_directory_is_listed_once_and_later_temps_stay(self, tmp_path, monkeypatch):
        """200 writes into one directory list it once; a stale temp found
        by that listing goes at its target's write, one made after it stays."""
        listed = []
        listdir = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path=".": listed.append(path) or listdir(path))
        (tmp_path / "sample-7.csv.0123456789ab.tmp").write_text("partial")
        for i in range(200):
            write_artifact(str(tmp_path / f"sample-{i}.csv"), [f"{i}\n"])
            if i == 0:
                (tmp_path / "sample-9.csv.0123456789ab.tmp").write_text("another writer's")
        assert listed == [str(tmp_path)]
        assert sorted(listdir(tmp_path)) == sorted([f"sample-{i}.csv" for i in range(200)]
                                                   + ["sample-9.csv.0123456789ab.tmp"])

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        rows = [{"id": "a", "x": 0.1 + 0.2}, {"id": "b", "x": [1, 2]}]
        write_jsonl(path, {"k": 2}, iter(rows))
        header, parsed = read_jsonl(path)
        assert header == {"k": 2}
        assert list(parsed) == [(2, rows[0]), (3, rows[1])]


class TestReadJsonl:
    def write(self, tmp_path, *lines):
        path = tmp_path / "data.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    def test_rows_parse_lazily_skipping_blank_lines(self, tmp_path):
        path = self.write(tmp_path, json.dumps({"k": 1}), "", json.dumps({"id": "a"}), "  ", "[1, 2]")
        header, rows = read_jsonl(path)
        assert header == {"k": 1}
        assert next(rows) == (3, {"id": "a"})  # the bad line 5 is not parsed yet
        with pytest.raises(FormatError, match=r"data\.jsonl:5: expected a JSON object"):
            next(rows)

    @pytest.mark.parametrize("first", ["", "{bad", "[1]"])
    def test_bad_or_missing_header(self, tmp_path, first):
        path = tmp_path / "data.jsonl"
        path.write_text(first + "\n" if first else "")
        with pytest.raises(FormatError, match=r"data\.jsonl(:1:|: empty file)"):
            read_jsonl(str(path))


def write_calls(tree):
    """(line, description) of every call that writes a file: ``open`` with a
    mode holding w, a, x or + (or one not spelled out), ``np.savetxt``,
    ``ndarray.tofile`` and ``Path.write_text``/``write_bytes``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
        if name in ("savetxt", "tofile", "write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif name in ("open", "fdopen"):
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")):
                found.append((node.lineno, f"{name} with mode {ast.unparse(mode)}"))
    return found


def test_only_the_artifact_module_writes_files():
    """Every file the package writes goes through pvit.artifacts, so each
    one is replaced atomically; a new write path has to go through it too."""
    package = pathlib.Path(pvit.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        calls = write_calls(ast.parse(path.read_text(), filename=str(path)))
        if path.name == "artifacts.py":
            assert calls, "the guard no longer recognises the artifact module's own write"
        else:
            offenders += [f"{path.name}:{line}: {what}" for line, what in calls]
    assert offenders == []
