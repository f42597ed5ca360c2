"""The CLI's exit-code contract under drawn argv and hostile files.

Every subcommand is run through ``cli.main`` with arguments drawn from good
files, hostile files (binary bytes, empty files, directories, missing paths,
mistyped JSON, wrong TSV widths, oversized numbers) and flag values of every
kind. Whatever the input, the exit code is 0, 1 or 2, stderr holds no
traceback, and exit 1 prints exactly one line.

No drawn size allocates: size flags take small values or values above their
limits, which are refused before anything is allocated, and every drawn
program is small enough for ``paths`` without caps.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from eye2vec.cli import main
from eye2vec.compressor import compress
from eye2vec.data import sample_source
from eye2vec.embeddings import HEADER_PREFIX, MAX_DIM, EmbeddingTable
from eye2vec.gaze import GRID_HEADER, PIXEL_HEADER
from eye2vec.linker import build_profile
from eye2vec.minilang import parse
from eye2vec.simulator import MAX_FIXATIONS, MAX_RECORDINGS, Strategy, simulate
from progen import generate_program

HUGE = [10**15, 10**30, 2**63, 2**64 + 1, 10**400]


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """Well-formed inputs, so that drawn argv also reach the deeper code."""
    base = tmp_path_factory.mktemp("good")
    files = {}
    source = sample_source("accumulator")
    files["prog"] = base / "prog.mj"
    files["prog"].write_text(source, encoding="utf-8")
    root = parse(source)
    recording = simulate(root, Strategy("linear", jitter_cols=1, seed=3), 30, "g")
    rows = [GRID_HEADER] + [
        [f.timestamp_ms, f.position.line, f.position.col, f.duration_ms]
        for f in recording.fixations
    ]
    files["grid"] = base / "grid.csv"
    files["grid"].write_text("".join(",".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")
    files["pixel"] = base / "pixel.csv"
    files["pixel"].write_text(
        ",".join(PIXEL_HEADER) + "\n0,30.5,20,200\n250,90,52.5,200\n", encoding="utf-8"
    )
    files["table"] = base / "table.tsv"
    files["table"].write_text(f"{HEADER_PREFIX}4\ntok:x\t1 0 0 0\n", encoding="utf-8")
    train = base / "train"
    train.mkdir()
    labels = []
    for i, strategy in enumerate(["linear", "defuse", "linear", "defuse"]):
        rec = simulate(root, Strategy(strategy, seed=i), 20, f"v{i}")
        vector = compress(build_profile(rec, root), EmbeddingTable(dim=4))
        (train / f"v{i}.json").write_text(vector.to_json(), encoding="utf-8")
        labels.append(f"v{i}\t{strategy}\n")
    (train / "labels.tsv").write_text("".join(labels), encoding="utf-8")
    files["train"] = train
    files["vector"] = train / "v0.json"
    files["vector2"] = train / "v1.json"
    return files


def _vector_doc():
    fields = {
        "recording_id": st.one_of(st.just("r"), st.just(""), st.integers(), st.none()),
        "dim": st.one_of(st.integers(-2, 4), st.sampled_from(HUGE), st.text(max_size=3),
                         st.booleans()),
        "values": st.one_of(
            st.lists(st.one_of(st.floats(), st.integers(), st.sampled_from(HUGE)), max_size=5),
            st.lists(st.one_of(st.text(max_size=3), st.booleans(), st.none()), max_size=3),
            st.text(max_size=4), st.integers(), st.dictionaries(st.text(max_size=2), st.integers(),
                                                                max_size=2),
        ),
        "normalized": st.one_of(st.booleans(), st.integers(0, 1), st.none()),
        "meta": st.one_of(st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
                          st.lists(st.integers(), max_size=2), st.none()),
    }
    doc = st.fixed_dictionaries({}, optional=fields)
    return st.one_of(doc, st.lists(st.integers(), max_size=3), st.none(), st.text(max_size=5))


def _number_text():
    return st.one_of(
        st.integers(-5, 60).map(str),
        st.sampled_from(HUGE).map(str),
        st.sampled_from(["1e400", "-1e400", "inf", "nan", "1.5", "-0", "1" * 5000, "", "x"]),
        st.floats(allow_nan=True).map(repr),
    )


def _csv_text(header):
    row = st.lists(_number_text(), min_size=3, max_size=5).map(",".join)
    head = st.one_of(st.just(",".join(header)), st.sampled_from([",".join(GRID_HEADER),
                                                                 ",".join(PIXEL_HEADER), "a,b"]))
    return st.tuples(head, st.lists(row, max_size=6)).map(
        lambda t: "\n".join([t[0], *t[1]]) + "\n"
    )


def _table_text():
    header = st.one_of(
        st.integers(-1, 4).map(lambda d: f"{HEADER_PREFIX}{d}"),
        st.sampled_from([MAX_DIM + 1, *HUGE]).map(lambda d: f"{HEADER_PREFIX}{d}"),
        st.sampled_from([HEADER_PREFIX, f"{HEADER_PREFIX}x", "#dim=4", ""]),
    )
    key = st.sampled_from(["tok:x", "path:y", "tok:x", "bad", ""])
    width = st.lists(_number_text(), max_size=6).map(" ".join)
    row = st.one_of(
        st.tuples(key, width).map("\t".join),
        st.tuples(key, width, width).map("\t".join),
        key,
    )
    return st.tuples(header, st.lists(row, max_size=4)).map(lambda t: "\n".join([t[0], *t[1]]))


def _labels_text():
    row = st.lists(st.sampled_from(["v0", "v1", "v2", "v3", "r", "linear", "defuse", ""]),
                   max_size=4).map("\t".join)
    return st.lists(row, max_size=5).map(lambda rows: "".join(r + "\n" for r in rows))


def _source_text():
    return st.one_of(
        st.integers(0, 10**6).map(generate_program),
        st.text(max_size=60),
        st.sampled_from(["class A { int x = 99999999999999999999; }", 'class A { "a\x85b" }',
                         'class A { "a\u2028b" }', "class A { void f() { x = \x0b; } }"]),
    )


# what a hostile input holds: bytes written to a file, or "dir" / "missing"
_HOSTILE = st.one_of(
    st.binary(max_size=80),
    st.just(b""),
    st.sampled_from(["dir", "missing"]),
    _vector_doc().map(lambda doc: json.dumps(doc).encode()),
    _csv_text(GRID_HEADER).map(str.encode),
    _csv_text(PIXEL_HEADER).map(str.encode),
    _table_text().map(str.encode),
    _labels_text().map(str.encode),
    _source_text().map(str.encode),
)


class _Workspace:
    def __init__(self, data, good, work: Path):
        self.data, self.good, self.work, self.count = data, good, work, 0

    def _new(self) -> Path:
        self.count += 1
        return self.work / f"f{self.count}"

    def hostile(self) -> str:
        content = self.data.draw(_HOSTILE, label="hostile")
        path = self._new()
        if content == "dir":
            path.mkdir()
        elif content != "missing":
            path.write_bytes(content)
        return str(path)

    def file(self, *kinds: str) -> str:
        """A good file of one of ``kinds``, or a hostile one."""
        choice = self.data.draw(st.sampled_from([*kinds, "hostile"]), label="file")
        return self.hostile() if choice == "hostile" else str(self.good[choice])

    def train_dir(self) -> str:
        """The good training set, or a copy with a hostile file or two in it."""
        if self.data.draw(st.booleans(), label="good train"):
            return str(self.good["train"])
        train = self._new()
        train.mkdir()
        for path in sorted(self.good["train"].iterdir()):
            if self.data.draw(st.booleans(), label=f"keep {path.name}"):
                (train / path.name).write_bytes(path.read_bytes())
        for name in self.data.draw(st.lists(st.sampled_from(["labels.tsv", "v0.json", "x.json"]),
                                            max_size=2, unique=True), label="replaced"):
            hostile = Path(self.hostile())
            (train / name).unlink(missing_ok=True)
            if hostile.is_file():
                (train / name).write_bytes(hostile.read_bytes())
            elif hostile.is_dir():
                (train / name).mkdir()
        return str(train)

    def out(self) -> str:
        """Where output goes: a new path, a directory, a file, or under a file."""
        choice = self.data.draw(st.sampled_from(["new", "new", "dir", "file", "under-file"]),
                                label="out")
        path = self._new()
        if choice == "dir":
            path.mkdir()
        elif choice == "file":
            path.write_bytes(b"old")
        elif choice == "under-file":
            path.write_bytes(b"")
            path = path / "x"
        return str(path)

    def value(self) -> str:
        """A flag value: any integer, a float form or garbage."""
        ints = st.integers(-3, 40).map(str)
        return self.data.draw(st.one_of(
            ints, ints, ints,
            st.sampled_from(HUGE).map(str),
            st.sampled_from(["-1e3", "1e-320", "inf", "-inf", "nan", "0.5", "x", "", "1" * 5000]),
        ), label="value")

    def size(self, small: int, limit: int) -> str:
        """A size flag: small, or above its limit (refused before it allocates)."""
        fits = st.integers(2, small).map(str)
        return self.data.draw(st.one_of(
            fits, fits, fits,
            st.sampled_from([limit + 1, *HUGE]).map(str),
            st.sampled_from(["-1", "0", "1", "x", "1.5", ""]),
        ), label="size")

    def real(self) -> str:
        """A calibration value: mostly a plausible one, else any ``value``."""
        if self.data.draw(st.integers(0, 2), label="plausible"):
            return repr(self.data.draw(st.floats(0.5, 40), label="real"))
        return self.value()


def _flags(ws: _Workspace, table: dict, required: tuple[str, ...] = ()) -> list[str]:
    """Each optional flag of ``table`` or not, and each required one, with a
    drawn value (``None`` for a switch)."""
    argv = []
    for flag, value in table.items():
        if flag in required or ws.data.draw(st.booleans(), label=flag):
            argv += [flag] if value is None else [flag, value()]
    return argv


def _argv(ws: _Workspace, subcommand: str) -> list[str]:
    link_flags = {"--snap-tol": ws.value, "--keep-self": None, "--strict-chain": None,
                  "--out": ws.out}
    if subcommand == "paths":
        return [ws.file("prog"), *_flags(ws, {"--max-length": ws.value, "--max-width": ws.value,
                                              "--out": ws.out})]
    if subcommand == "convert":
        floats = {f: ws.real for f in ("--origin-x", "--origin-y", "--char-width",
                                        "--line-height")}
        return [ws.file("pixel", "grid"), *_flags(ws, floats | {"--out": ws.out}, tuple(floats))]
    if subcommand == "link":
        return [ws.file("prog"), ws.file("grid", "pixel"), *_flags(ws, link_flags)]
    if subcommand == "vectorize":
        return [ws.file("prog"), ws.file("grid", "pixel"), *_flags(ws, link_flags | {
            "--emb": lambda: ws.file("table"), "--dim": lambda: ws.size(16, MAX_DIM),
            "--seed": ws.value, "--no-normalize": None,
        })]
    if subcommand == "compare":
        return [ws.file("vector", "vector2"), ws.file("vector", "vector2")]
    if subcommand == "cluster":
        vectors = ws.data.draw(st.integers(0, 4), label="vectors")
        return [*(ws.file("vector", "vector2") for _ in range(vectors)),
                *_flags(ws, {"--k": ws.value, "--seed": ws.value}, ("--k",))]
    if subcommand == "predict":
        tests = ws.data.draw(st.integers(0, 2), label="tests")
        return [*_flags(ws, {"--train": ws.train_dir, "--loo": None}, ("--train",)),
                *(["--test"] if tests else []), *(ws.file("vector") for _ in range(tests))]
    assert subcommand == "simulate"
    return [ws.file("prog"), *_flags(ws, {
        "--strategy": lambda: ws.data.draw(st.sampled_from(["linear", "defuse"])),
        "--n": lambda: ws.size(30, MAX_FIXATIONS),
        "--count": lambda: ws.size(3, MAX_RECORDINGS),
        "--seed": ws.value, "--jitter": ws.value, "--out": ws.out,
    }, ("--strategy", "--n", "--count", "--seed", "--out"))]


SUBCOMMANDS = ["paths", "convert", "link", "vectorize", "compare", "cluster", "predict",
               "simulate"]


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exit_code_contract(good, tmp_path_factory, subcommand, data):
    ws = _Workspace(data, good, tmp_path_factory.mktemp("fuzz"))
    argv = [subcommand, *_argv(ws, subcommand)]
    # now and then a flag the parser does not know, or the subcommand alone
    argv = data.draw(st.sampled_from([argv] * 6 + [argv + ["--bogus"], [subcommand]]),
                     label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    event(f"exit {code}")
    assert code in (0, 1, 2), (code, stderr)
    assert "Traceback" not in stderr
    if code == 1:
        assert len(stderr.splitlines()) == 1 and stderr.endswith("\n"), stderr
