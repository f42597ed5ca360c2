"""Every input file is bounded by ``MAX_INPUT_BYTES``, read or not, and
what a table memoises by ``_MEMO_FLOATS``, whatever ``dim`` it admits."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import eye2vec
from eye2vec import errors
from eye2vec.cli import main
from eye2vec.compressor import read_eye_vector
from eye2vec.embeddings import _MEMO_FLOATS, MAX_DIM, load_table
from eye2vec.errors import MAX_INPUT_BYTES, FormatError
from eye2vec.gaze import read_fixations, read_labels

READERS = {
    "fixations": lambda path: read_fixations(path, mode="grid"),
    "labels": read_labels,
    "table": load_table,
    "eye vector": read_eye_vector,
    "source": lambda path: main(["paths", str(path)]),
}

needs_dev_zero = pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero")


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS)
def test_a_file_one_byte_over_the_limit_is_refused(tmp_path, reader, capsys):
    path = tmp_path / "big"
    path.touch()
    os.truncate(path, MAX_INPUT_BYTES + 1)  # sparse: no byte of it is ever written
    message = f"row 1: {str(path)!r} holds more than {MAX_INPUT_BYTES} bytes"
    try:
        status = reader(path)
    except FormatError as exc:
        assert str(exc) == message
    else:
        assert status == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS)
def test_a_file_at_the_limit_is_read(tmp_path, reader, monkeypatch):
    path = tmp_path / "sized"
    path.write_bytes(b"\n" * 64)
    monkeypatch.setattr(errors, "MAX_INPUT_BYTES", 64)
    try:
        reader(path)
    except FormatError as exc:
        assert "holds more than" not in str(exc)  # rejected for its content only


@needs_dev_zero
def test_a_stream_is_read_no_further_than_the_limit(monkeypatch):
    monkeypatch.setattr(errors, "MAX_INPUT_BYTES", 4096)
    for reader in READERS.values():
        try:
            status = reader("/dev/zero")
        except FormatError as exc:
            assert str(exc) == "row 1: '/dev/zero' holds more than 4096 bytes"
        else:
            assert status == 1


@needs_dev_zero
def test_compare_of_endless_files_ends_in_one_line(monkeypatch, capsys):
    monkeypatch.setattr(errors, "MAX_INPUT_BYTES", 4096)
    assert main(["compare", "/dev/zero", "/dev/zero"]) == 1
    assert capsys.readouterr().err == "error: row 1: '/dev/zero' holds more than 4096 bytes\n"


def test_text_is_decoded_as_open_does(tmp_path):
    path = tmp_path / "breaks"
    raw = "a\r\nb\rc\nd e\x0bf\r".encode("utf-8")
    path.write_bytes(raw)
    for newline in (None, ""):
        with open(path, encoding="utf-8", newline=newline) as handle:
            assert errors._read_input(path, newline) == handle.read()


MANY_FALLBACKS = textwrap.dedent(
    """
    from eye2vec import EmbeddingTable, PathContext, TransitionProfile, compress

    table = EmbeddingTable(dim=65536)
    # 1,002 distinct absent keys: 512 KB each if every fallback were kept
    counts = {PathContext(f"s{i}", f"P{i}", f"t{i}"): 1 for i in range(334)}
    compress(TransitionProfile("r", counts), table)
    print(len(table._memo))
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
    """
)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc/self/status")
def test_fallbacks_at_the_largest_dim_stay_within_the_memo_budget():
    # About 500 MB of fallback vectors would be kept without the budget;
    # with it the memo holds at most 16 MiB, the entries that fit whole. The
    # child reads its own peak RSS: a spawned child's ru_maxrss can include
    # the spawning process's.
    src = str(Path(eye2vec.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{MANY_FALLBACKS}"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    held, peak = map(int, result.stdout.split())
    assert held == _MEMO_FLOATS // (3 * MAX_DIM)
    assert peak < 100 * 1024  # KiB
