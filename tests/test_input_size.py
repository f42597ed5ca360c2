"""Every input file is bounded by ``MAX_INPUT_BYTES``, read or not."""

import os
from pathlib import Path

import pytest

from eye2vec import errors
from eye2vec.cli import main
from eye2vec.compressor import read_eye_vector
from eye2vec.embeddings import load_table
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
