"""The README's documented library use runs as written."""

import re
from pathlib import Path

from eye2vec.data import sample_source
from eye2vec.gaze import write_fixations
from eye2vec.minilang import parse
from eye2vec.simulator import Strategy, simulate

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs_on_a_sample_program(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
    source_text = sample_source("accumulator")
    write_fixations(simulate(parse(source_text), Strategy("defuse"), 60), tmp_path / "grid.csv")
    monkeypatch.chdir(tmp_path)
    names = {"source_text": source_text}
    exec(compile(block, str(README), "exec"), names)
    vector = names["vector"]
    assert (vector.recording_id, vector.dim) == ("grid", 3 * names["table"].dim)
    assert len(capsys.readouterr().out.splitlines()) == 3
