"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any violated tolerance fails the corresponding test.
"""

import itertools
import time

import numpy as np
import pytest

from eye2vec.analysis import LabeledSet, kmeans, leave_one_out
from eye2vec.cli import main
from eye2vec.compressor import EyeVector, compress
from eye2vec.data import sample_path, sample_source
from eye2vec.embeddings import EmbeddingTable, load_table
from eye2vec.errors import FormatError
from eye2vec.gaze import (
    Fixation,
    FontGrid,
    GridPos,
    PixelPos,
    Recording,
    read_fixations,
    to_grid,
    write_fixations,
)
from eye2vec.hashing import SplitMix64, fnv1a64
from eye2vec.linker import LinkOptions, TransitionProfile, build_profile
from eye2vec.minilang import leaves, parse
from eye2vec.pathctx import path_between
from eye2vec.simulator import Strategy, simulate
from oracles import oracle_context_string, oracle_parents, oracle_transition_counts
from progen import generate_program


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


@pytest.fixture(scope="module")
def sample_recordings():
    """Fixed set of simulated recordings over the bundled programs."""
    recordings = []
    for name in ("point", "accumulator", "lookup"):
        root = parse(sample_source(name))
        for strategy_name, seed in (("linear", 1), ("defuse", 2)):
            strategy = Strategy(strategy_name, jitter_cols=1, seed=seed)
            rec = simulate(root, strategy, 40, recording_id=f"{name}_{strategy_name}")
            recordings.append((rec, root))
    return recordings


def test_criterion_1_path_oracle_equivalence():
    started = time.time()
    programs = 0
    pairs = 0
    seed = 0
    while programs < 200:
        source = generate_program(seed)
        seed += 1
        root = parse(source)
        leaf_list = leaves(root)
        if len(leaf_list) < 2:
            continue
        assert len(leaf_list) <= 30
        programs += 1
        parents = oracle_parents(root)
        for a, b in itertools.combinations(leaf_list, 2):
            assert path_between(root, a, b).context_string == oracle_context_string(parents, a, b)
            assert path_between(root, b, a).context_string == oracle_context_string(parents, b, a)
            pairs += 2
    elapsed = time.time() - started
    assert elapsed < 10.0
    report(1, f"{programs} programs, {pairs} ordered pairs match the oracle in {elapsed:.2f}s")


def test_criterion_2_ratio_normalization_and_count_conservation():
    roots = [parse(sample_source(name)) for name in ("point", "accumulator", "lookup")]
    checked = 0
    for i in range(1000):
        root = roots[i % len(roots)]
        strategy = Strategy("linear" if i % 2 else "defuse", jitter_cols=i % 3, seed=i)
        recording = simulate(root, strategy, 12 + i % 20)
        options = LinkOptions(
            snap_tol_cols=i % 4,
            self_transitions="drop" if i % 3 else "keep",
            chain="skip" if i % 5 else "strict",
        )
        profile = build_profile(recording, root, options)
        if profile.total_transitions > 0:
            ratio_sum = sum(e["ratio"] for e in profile.to_json_dict()["entries"])
            assert abs(ratio_sum - 1.0) <= 1e-9
        counts, total = oracle_transition_counts(recording, root, options)
        assert profile.total_transitions == total
        assert {c.context_string: n for c, n in profile.entries.items()} == counts
        checked += 1
    report(2, f"{checked} randomized recordings: ratios sum to 1 +/- 1e-9, counts conserved")


def test_criterion_3_count_scale_invariance(sample_recordings):
    table = EmbeddingTable(dim=32, fallback_seed=42)
    for recording, root in sample_recordings:
        doubled = Recording(
            recording.recording_id, [f for f in recording.fixations for _ in range(2)]
        )
        options = LinkOptions(self_transitions="drop")
        base = compress(build_profile(recording, root, options), table)
        dup = compress(build_profile(doubled, root, options), table)
        assert np.max(np.abs(base.values - dup.values)) <= 1e-12
    report(3, f"{len(sample_recordings)} sample recordings unchanged by duplication (1e-12)")


def test_criterion_4_compressor_linearity(sample_recordings):
    table = EmbeddingTable(dim=32, fallback_seed=42)
    rng = SplitMix64(2024)
    splits_checked = 0
    profiles = [
        build_profile(recording, root) for recording, root in sample_recordings
    ]
    profiles = [p for p in profiles if p.total_transitions >= 2]
    while splits_checked < 100:
        profile = profiles[rng.randint(len(profiles))]
        counts_a: dict = {}
        counts_b: dict = {}
        for ctx, count in profile.entries.items():
            take = rng.randint(count + 1)
            if take:
                counts_a[ctx] = take
            if count - take:
                counts_b[ctx] = count - take
        if not counts_a or not counts_b:
            continue
        part_a = TransitionProfile("a", counts_a)
        part_b = TransitionProfile("b", counts_b)
        va = compress(part_a, table, normalize=False).values
        vb = compress(part_b, table, normalize=False).values
        vm = compress(profile, table, normalize=False).values
        na, nb = part_a.total_transitions, part_b.total_transitions
        merged = (na * va + nb * vb) / (na + nb)
        assert np.max(np.abs(vm - merged)) <= 1e-9
        splits_checked += 1
    report(4, "100 random profile splits satisfy linearity within 1e-9 per component")


def test_criterion_5_pipeline_determinism(tmp_path, capsys):
    src = sample_path("accumulator")

    def run(base):
        work = tmp_path / base
        sims = work / "sims"
        for strategy, seed in (("linear", 0), ("defuse", 20)):
            assert main([
                "simulate", str(src), "--strategy", strategy, "--n", "30",
                "--count", "3", "--seed", str(seed), "--jitter", "1", "--out", str(sims),
            ]) == 0
        artifacts: dict[str, bytes] = {}
        vectors = []
        vec_dir = work / "vectors"
        vec_dir.mkdir()
        for csv_path in sorted(sims.glob("*.csv")):
            profile_path = work / (csv_path.stem + ".profile")
            assert main(["link", str(src), str(csv_path), "--out", str(profile_path)]) == 0
            artifacts["profile:" + csv_path.stem] = profile_path.read_bytes()
            vec_path = vec_dir / (csv_path.stem + ".json")
            assert main([
                "vectorize", str(src), str(csv_path), "--dim", "24", "--out", str(vec_path),
            ]) == 0
            artifacts["vector:" + csv_path.stem] = vec_path.read_bytes()
            vectors.append(vec_path)
        assert main(["cluster"] + [str(v) for v in vectors] + ["--k", "2", "--seed", "7"]) == 0
        artifacts["cluster"] = capsys.readouterr().out.encode()
        labels = "\n".join(
            f"{v.stem}\t{'defuse' if 'defuse' in v.stem else 'linear'}" for v in vectors
        )
        (vec_dir / "labels.tsv").write_text(labels + "\n", encoding="utf-8")
        assert main([
            "predict", "--train", str(vec_dir),
            "--test", str(vectors[0]), str(vectors[-1]), "--loo",
        ]) == 0
        artifacts["predict"] = capsys.readouterr().out.encode()
        return artifacts

    first = run("first")
    second = run("second")
    assert first == second
    report(5, f"two runs produced byte-identical artifacts ({len(first)} outputs compared)")


def test_criterion_6_strategy_discrimination():
    started = time.time()
    root = parse(sample_source("accumulator"))
    table = EmbeddingTable(dim=128, fallback_seed=42)
    vectors, labels = [], []
    for seed in range(40):
        strategy_name = "linear" if seed < 20 else "defuse"
        strategy = Strategy(strategy_name, jitter_cols=seed % 3, seed=seed)
        recording = simulate(root, strategy, 60, recording_id=f"{strategy_name}_{seed}")
        vectors.append(compress(build_profile(recording, root), table))
        labels.append(strategy_name)

    accuracy = leave_one_out(LabeledSet(list(zip(vectors, labels))))
    assert accuracy >= 0.90

    assignments = kmeans(vectors, 2, seed=7)
    truth = [0 if label == "linear" else 1 for label in labels]
    agreement = max(
        sum(a == t for a, t in zip(assignments, truth)) / len(truth),
        sum(a != t for a, t in zip(assignments, truth)) / len(truth),
    )
    assert agreement >= 0.85
    elapsed = time.time() - started
    assert elapsed < 60.0
    report(6, f"LOO accuracy {accuracy:.2f}, k-means agreement {agreement:.2f}, {elapsed:.1f}s")


def test_criterion_7_converter_round_trip():
    rng = SplitMix64(7)
    for _ in range(10_000):
        grid = FontGrid(
            origin_x_px=rng.next_float01() * 2000,
            origin_y_px=rng.next_float01() * 2000,
            char_width_px=0.5 + rng.next_float01() * 39.5,
            line_height_px=0.5 + rng.next_float01() * 59.5,
        )
        line = 1 + rng.randint(2000)
        col = 1 + rng.randint(2000)
        center = PixelPos(
            grid.origin_x_px + (col - 0.5) * grid.char_width_px,
            grid.origin_y_px + (line - 0.5) * grid.line_height_px,
        )
        converted = to_grid(Fixation(0, 1, center), grid)
        assert converted.position == GridPos(line, col)
    report(7, "10000 random grids and cells: center pixel converts back exactly")


def test_criterion_8_format_round_trips(tmp_path):
    # fixation CSV -> Recording -> CSV (canonical form is a fixpoint)
    grid_rec = Recording("g", [Fixation(i * 10, 100, GridPos(i + 1, 2 * i + 1)) for i in range(5)])
    pixel_rec = Recording(
        "p", [Fixation(i * 10, 100, PixelPos(0.1 * i + 1 / 3, 7.25 * i)) for i in range(5)]
    )
    for recording, mode in ((grid_rec, "grid"), (pixel_rec, "pixel")):
        first = tmp_path / f"{recording.recording_id}1.csv"
        second = tmp_path / f"{recording.recording_id}2.csv"
        write_fixations(recording, first)
        reread = read_fixations(first, mode=mode)
        assert reread.fixations == recording.fixations
        write_fixations(reread, second)
        assert first.read_bytes() == second.read_bytes()

    # EyeVector -> JSON -> EyeVector, bitwise
    values = np.array([1 / 3, 0.1 + 0.2, -7.5e-12, 2.0**-40])
    vector = EyeVector("v", 4, values / np.linalg.norm(values), True,
                       {"total_transitions": 3, "distinct_contexts": 2,
                        "embedding_seed": 42, "created_from": "123"})
    back = EyeVector.from_json(vector.to_json())
    assert np.array_equal(back.values, vector.values)
    assert back.to_json() == vector.to_json()

    # embedding TSV rejects each documented malformation class
    cases = {
        "bad header": ("wrong-header dim=2\ntok:a\t1 0\n", 1),
        "wrong component count": ("eye2vec-embeddings v1 dim=2\ntok:a\t1 0 0\n", 2),
        "non-finite value": ("eye2vec-embeddings v1 dim=2\ntok:a\t1 inf\n", 2),
        "duplicate key": ("eye2vec-embeddings v1 dim=2\ntok:a\t1 0\ntok:a\t0 1\n", 3),
    }
    for name, (text, row) in cases.items():
        path = tmp_path / "emb.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_table(path)
        assert exc.value.row == row, name
    report(8, "CSV and JSON round-trips lossless; embedding TSV rejects all 4 malformations")


def test_criterion_9_fnv1a_conformance():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    report(9, 'hash("") and hash("a") match the reference values exactly')
