"""The artifact writer and JSON Lines reader: atomic replacement, file
permissions, lazy parsing, agreement with ``json.loads`` line by line, and
that no other module writes files."""

import ast
import json
import os
import pathlib
import re
import signal
import stat
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_write_deletes_its_own_stale_temp_and_no_other_file(self, tmp_path):
        """A killed writer's ``<target>.tmp`` goes at the target's next
        write; another target's temp, look-alikes and old-style temps stay."""
        kept = ["hist.csv.tmp", "scores.jsonl.tmp.bak", "xscores.jsonl.tmp", "scores.jsonl.0123456789ab.tmp"]
        for name in kept + ["scores.jsonl.tmp"]:
            (tmp_path / name).write_text("partial")
        write_artifact(str(tmp_path / "scores.jsonl"), ["new\n"])
        assert sorted(os.listdir(tmp_path)) == sorted(kept + ["scores.jsonl"])
        assert (tmp_path / "scores.jsonl").read_text() == "new\n"

    def test_a_planted_temp_symlink_is_removed_not_written_through(self, tmp_path):
        victim = tmp_path / "victim.txt"
        victim.write_text("untouched")
        (tmp_path / "scores.jsonl.tmp").symlink_to(victim)
        write_artifact(str(tmp_path / "scores.jsonl"), ["new\n"])
        assert victim.read_text() == "untouched"
        assert sorted(os.listdir(tmp_path)) == ["scores.jsonl", "victim.txt"]

    def test_no_write_lists_a_directory_and_a_later_temp_goes_at_its_next_write(self, tmp_path, monkeypatch):
        """200 writes into one directory list it never; a stale temp made
        after the first write goes at its target's write all the same."""
        listed = []
        listdir = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path=".": listed.append(path) or listdir(path))
        (tmp_path / "sample-7.csv.tmp").write_text("partial")
        (tmp_path / "other.csv.tmp").write_text("another writer's")
        for i in range(200):
            write_artifact(str(tmp_path / f"sample-{i}.csv"), [f"{i}\n"])
            if i == 0:
                (tmp_path / "sample-9.csv.tmp").write_text("partial")
        assert listed == []
        assert sorted(listdir(tmp_path)) == sorted([f"sample-{i}.csv" for i in range(200)] + ["other.csv.tmp"])

    def test_a_killed_writers_temp_goes_at_the_targets_next_write(self, tmp_path):
        """This process writes into the directory first; a writer killed
        there later leaves ``<target>.tmp``, which the next write removes."""
        write_artifact(str(tmp_path / "first.csv"), ["1\n"])
        target = tmp_path / "scores.jsonl"
        script = ("import sys, time\n"
                  "from pvit.artifacts import write_artifact\n"
                  "def chunks():\n"
                  "    yield 'partial\\n'\n"
                  "    print('writing', flush=True)\n"
                  "    time.sleep(60)\n"
                  "    yield 'never\\n'\n"
                  "write_artifact(sys.argv[1], chunks())\n")
        src = str(pathlib.Path(pvit.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        writer = subprocess.Popen([sys.executable, "-c", script, str(target)], stdout=subprocess.PIPE, env=env,
                                  text=True)
        try:
            assert writer.stdout.readline() == "writing\n"
        finally:
            writer.kill()
            writer.wait()
            writer.stdout.close()
        assert writer.returncode == -signal.SIGKILL
        left = sorted(os.listdir(tmp_path))
        assert left[0] == "first.csv" and len(left) == 2 and left[1].startswith("scores.jsonl.")
        write_artifact(str(target), ["new\n"])
        assert sorted(os.listdir(tmp_path)) == ["first.csv", "scores.jsonl"]
        assert target.read_text() == "new\n"

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

    def test_crlf_file_reads_as_in_text_mode(self, tmp_path):
        """Lines ending in CRLF, blank ones among them, give the objects and
        line numbers a text-mode read with ``json.loads`` per line gives."""
        path = tmp_path / "data.jsonl"
        path.write_bytes(b'{"k": 1}\r\n{"id": "a", "x": [1, 2.5]}\r\n\r\n  {"id": "b"} \r\n{"id": "c"}\r\n')
        header, rows = read_jsonl(str(path))
        with open(path, encoding="utf-8") as fh:
            text_mode = [(n, json.loads(line)) for n, line in enumerate(fh, start=1) if line.strip()]
        assert [(1, header), *rows] == text_mode
        assert [n for n, _ in text_mode] == [1, 2, 4, 5]

    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_bytes(b'{"k": 1}\n{"id": "a"}\n{"id": "b\xff"}\n{"id": "c"}\n')
        header, rows = read_jsonl(str(path))
        assert next(rows) == (2, {"id": "a"})
        with pytest.raises(FormatError, match=r"data\.jsonl:3: not UTF-8 text: .*0xff"):
            next(rows)

    @pytest.mark.parametrize("value", ["1" * 5000, "[" * 100_000 + "]" * 100_000],
                             ids=["int-past-the-digit-limit", "nested-past-the-recursion-limit"])
    def test_value_json_loads_cannot_build_is_malformed(self, tmp_path, value):
        """``json.loads`` raises ValueError or RecursionError here, not
        JSONDecodeError; either is a FormatError naming the line."""
        path = tmp_path / "data.jsonl"
        path.write_text('{"k": 1}\n{"x": %s}\n' % value)
        _, rows = read_jsonl(str(path))
        with pytest.raises(FormatError, match=r"data\.jsonl:2: malformed JSON: "):
            next(rows)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400) | st.floats()
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def json_lines(draw):
    """One line's text, without its newline: ``json.dumps`` of an object (or,
    now and then, a bare value), sometimes with whitespace or a BOM before
    it, whitespace or junk after it, or cut short."""
    value = draw(st.dictionaries(st.text(max_size=6), json_values, max_size=5) | json_values)
    text = json.dumps(value, ensure_ascii=draw(st.booleans()),
                      separators=draw(st.sampled_from([None, (",", ":"), (" ,", " : ")])))
    text = draw(st.sampled_from(["", "", "", " ", "\t", "\r", "\ufeff"])) + text
    text += draw(st.sampled_from(["", "", "", " ", "\t", "\r", " \r", "x", "}", "{}", ",1"]))
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=200, deadline=None)
@given(text=json_lines(), last=st.booleans())
def test_each_line_reads_as_json_loads_reads_it(tmp_path_factory, text, last):
    """The scanner's fast path changes nothing: each line yields what
    ``json.loads`` yields, or the FormatError built from its exception, or
    is skipped as blank; ``last`` leaves the line without its newline."""
    path = tmp_path_factory.mktemp("jsonl") / "data.jsonl"
    line = text if last else text + "\n"
    path.write_bytes(('{"k": 1}\n' + line).encode("utf-8"))
    _, rows = read_jsonl(str(path))
    if not line.strip():
        assert list(rows) == []
        return
    try:
        expected = json.loads(line)
    except ValueError as exc:
        with pytest.raises(FormatError) as caught:
            next(rows)
        assert str(caught.value) == f"{path}:2: malformed JSON: {exc}"
        return
    if type(expected) is not dict:
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: expected a JSON object")):
            next(rows)
        return
    lineno, got = next(rows)
    assert lineno == 2 and type(got) is dict
    assert json.dumps(got) == json.dumps(expected)  # NaN-safe, and tells 1 from 1.0 from True
    assert list(rows) == []


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
