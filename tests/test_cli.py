import argparse
import json
import re

import numpy as np
import pytest

from eye2vec.cli import main
from eye2vec.compressor import EyeVector, compress
from eye2vec.data import sample_path, sample_source
from eye2vec.embeddings import MAX_DIM, EmbeddingTable
from eye2vec.gaze import read_fixations
from eye2vec.linker import LinkOptions, build_profile
from eye2vec.minilang import parse
from eye2vec.simulator import MAX_FIXATIONS, MAX_RECORDINGS


@pytest.fixture()
def src_file(tmp_path):
    path = tmp_path / "prog.mj"
    path.write_text(sample_source("accumulator"), encoding="utf-8")
    return path


@pytest.fixture()
def sim_dir(tmp_path, src_file):
    out = tmp_path / "sims"
    assert main([
        "simulate", str(src_file), "--strategy", "linear",
        "--n", "20", "--count", "2", "--seed", "0", "--out", str(out),
    ]) == 0
    assert main([
        "simulate", str(src_file), "--strategy", "defuse",
        "--n", "20", "--count", "2", "--seed", "50", "--out", str(out),
    ]) == 0
    return out


class TestPaths:
    def test_emits_one_context_per_line(self, src_file, capsys):
        assert main(["paths", str(src_file), "--max-length", "6", "--max-width", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        assert all(line.count(",") >= 2 for line in lines)

    def test_matches_library(self, src_file, capsys):
        from eye2vec.pathctx import all_path_contexts

        assert main(["paths", str(src_file), "--max-length", "0", "--max-width", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        root = parse(src_file.read_text(encoding="utf-8"))
        expected = [c.context_string for c in all_path_contexts(root, 0, 2)]
        assert lines == expected

    def test_long_sum(self, tmp_path):
        terms = " + ".join(f"t{i}" for i in range(20_000))
        src = tmp_path / "sum.mj"
        src.write_text(f"class A {{ int f() {{ return {terms}; }} }}\n", encoding="utf-8")
        out = tmp_path / "paths.txt"
        assert main(["paths", str(src), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[-1] == "t19998,Name↑BinExpr:+↑BinExpr:+↓Name,t19999"

    def test_parse_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.mj"
        bad.write_text("class {", encoding="utf-8")
        assert main(["paths", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestHostileInput:
    @pytest.fixture()
    def deep_file(self, tmp_path):
        path = tmp_path / "deep.mj"
        body = "{" * 1000 + "x = " + "(" * 500 + "1" + ")" * 500 + ";" + "}" * 1000
        path.write_text("class A { void f() { " + body + " } }\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("subcommand", ["paths", "vectorize"])
    def test_deep_nesting_exits_1_with_one_line(self, deep_file, tmp_path, capsys, subcommand):
        fixations = tmp_path / "fix.csv"
        fixations.write_text("timestamp_ms,line,col,duration_ms\n0,1,1,100\n", encoding="utf-8")
        argv = [subcommand, str(deep_file)] + ([str(fixations)] if subcommand == "vectorize" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "nested" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("subcommand", ["compare", "cluster"])
    def test_deeply_nested_vector_json_exits_1_with_one_line(self, tmp_path, capsys, subcommand):
        deep = tmp_path / "deep.json"
        deep.write_text('{"values": ' + "[" * 200_000 + "}", encoding="utf-8")
        argv = {
            "compare": ["compare", str(deep), str(deep)],
            "cluster": ["cluster", str(deep), "--k", "1"],
        }[subcommand]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: row 1: ") and "nested" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("subcommand", ["link", "vectorize", "convert"])
    def test_oversized_csv_field_exits_1_with_one_line(self, src_file, tmp_path, capsys, subcommand):
        fixations = tmp_path / "fix.csv"
        header = "timestamp_ms,x_px,y_px" if subcommand == "convert" else "timestamp_ms,line,col"
        fixations.write_text(
            f"{header},duration_ms\n0,1,1,100\n250,1,{'1' * 200_000},100\n", encoding="utf-8"
        )
        argv = {
            "link": ["link", str(src_file), str(fixations)],
            "vectorize": ["vectorize", str(src_file), str(fixations)],
            "convert": [
                "convert", str(fixations),
                "--origin-x", "0", "--origin-y", "0", "--char-width", "8", "--line-height", "16",
            ],
        }[subcommand]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: row 3: ") and "field limit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("x_px,calibration,message", [
        ("25", ["--char-width", "inf"], "finite"),
        ("25", ["--char-width", "nan"], "finite"),
        ("25", ["--origin-y", "inf"], "finite"),
        ("25", ["--line-height", "nan"], "finite"),
        ("1.7e308", ["--char-width", "0.5"], "too far"),
        ("25", ["--char-width", "1e-310"], "too far"),
    ])
    def test_hostile_calibration_exits_1_with_one_line(self, tmp_path, capsys, x_px,
                                                       calibration, message):
        fixations = tmp_path / "pix.csv"
        fixations.write_text(f"timestamp_ms,x_px,y_px,duration_ms\n0,{x_px},45,100\n",
                             encoding="utf-8")
        flags = {"--origin-x": "0", "--origin-y": "0", "--char-width": "10", "--line-height": "20"}
        flags.update(zip(calibration[::2], calibration[1::2]))
        argv = ["convert", str(fixations)] + [item for pair in flags.items() for item in pair]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err


class TestConvert:
    def test_pixel_to_grid(self, tmp_path, capsys):
        csv_in = tmp_path / "pix.csv"
        csv_in.write_text(
            "timestamp_ms,x_px,y_px,duration_ms\n0,25,45,100\n250,148,98,100\n",
            encoding="utf-8",
        )
        assert main([
            "convert", str(csv_in),
            "--origin-x", "0", "--origin-y", "0", "--char-width", "10", "--line-height", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "timestamp_ms,line,col,duration_ms",
            "0,3,3,100",
            "250,5,15,100",
        ]

    def test_missing_flag_is_usage_error(self, tmp_path):
        csv_in = tmp_path / "pix.csv"
        csv_in.write_text("timestamp_ms,x_px,y_px,duration_ms\n", encoding="utf-8")
        assert main(["convert", str(csv_in), "--origin-x", "0"]) == 2

    def test_out_of_viewport_exits_1(self, tmp_path, capsys):
        csv_in = tmp_path / "pix.csv"
        csv_in.write_text("timestamp_ms,x_px,y_px,duration_ms\n0,5,5,100\n", encoding="utf-8")
        assert main([
            "convert", str(csv_in),
            "--origin-x", "100", "--origin-y", "100", "--char-width", "8", "--line-height", "16",
        ]) == 1

    def test_negative_float_with_exponent_is_a_value(self, tmp_path, capsys):
        csv_in = tmp_path / "pix.csv"
        csv_in.write_text("timestamp_ms,x_px,y_px,duration_ms\n0,25,45,100\n", encoding="utf-8")
        flags = ["--origin-y", "0", "--char-width", "10", "--line-height", "20"]
        assert main(["convert", str(csv_in), "--origin-x=-1e3", *flags]) == 0
        expected = capsys.readouterr().out
        assert expected.splitlines()[1] == "0,3,103,100"
        for value in ("-1e3", "-1E+3", "-.1e4", "-1000.0"):
            assert main(["convert", str(csv_in), "--origin-x", value, *flags]) == 0
            assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan"])
    def test_negative_non_finite_exits_1_with_one_line(self, tmp_path, capsys, value):
        csv_in = tmp_path / "pix.csv"
        csv_in.write_text("timestamp_ms,x_px,y_px,duration_ms\n0,25,45,100\n", encoding="utf-8")
        assert main([
            "convert", str(csv_in),
            "--origin-x", value, "--origin-y", "0", "--char-width", "10", "--line-height", "20",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "finite" in captured.err

    def test_argparse_still_has_the_negative_number_pattern(self):
        # convert widens this private attribute; a rename would silently undo that
        assert isinstance(argparse.ArgumentParser()._negative_number_matcher, re.Pattern)


class TestLink:
    def test_profile_json_schema(self, src_file, sim_dir, capsys):
        fixations = sim_dir / "prog_linear_0.csv"
        assert main(["link", str(src_file), str(fixations)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["recording_id"] == "prog_linear_0"
        assert data["total_transitions"] == 19
        assert data["entries"]

    def test_empty_profile_exits_1(self, src_file, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp_ms,line,col,duration_ms\n", encoding="utf-8")
        assert main(["link", str(src_file), str(empty)]) == 1
        assert "EmptyProfile" in capsys.readouterr().err

    def test_out_flag_writes_file(self, src_file, sim_dir, tmp_path, capsys):
        out = tmp_path / "profile.json"
        fixations = sim_dir / "prog_linear_0.csv"
        assert main(["link", str(src_file), str(fixations), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text(encoding="utf-8"))["total_transitions"] == 19


class TestVectorize:
    def test_matches_internal_pipeline(self, src_file, sim_dir, capsys):
        fixations = sim_dir / "prog_defuse_0.csv"
        assert main([
            "vectorize", str(src_file), str(fixations), "--dim", "16", "--seed", "7",
        ]) == 0
        cli_json = capsys.readouterr().out.strip()

        root = parse(src_file.read_text(encoding="utf-8"))
        recording = read_fixations(fixations, mode="grid")
        profile = build_profile(recording, root, LinkOptions())
        table = EmbeddingTable(dim=16, fallback_seed=7)
        expected = compress(profile, table, normalize=True)
        assert cli_json == expected.to_json()

    def test_no_normalize_flag(self, src_file, sim_dir, capsys):
        fixations = sim_dir / "prog_linear_1.csv"
        assert main([
            "vectorize", str(src_file), str(fixations), "--dim", "8", "--no-normalize",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["normalized"] is False

    def test_embedding_table_flag(self, src_file, sim_dir, tmp_path, capsys):
        emb = tmp_path / "emb.tsv"
        emb.write_text("eye2vec-embeddings v1 dim=4\ntok:total\t1 0 0 0\n", encoding="utf-8")
        fixations = sim_dir / "prog_linear_0.csv"
        assert main(["vectorize", str(src_file), str(fixations), "--emb", str(emb)]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 12

    def test_dim_conflict_is_usage_error(self, src_file, sim_dir, tmp_path):
        emb = tmp_path / "emb.tsv"
        emb.write_text("eye2vec-embeddings v1 dim=4\n", encoding="utf-8")
        fixations = sim_dir / "prog_linear_0.csv"
        assert main([
            "vectorize", str(src_file), str(fixations), "--emb", str(emb), "--dim", "8",
        ]) == 2

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**15])
    def test_dim_above_the_limit_is_usage_error(self, src_file, sim_dir, capsys, dim):
        fixations = sim_dir / "prog_linear_0.csv"
        assert main(["vectorize", str(src_file), str(fixations), "--dim", str(dim)]) == 2
        err = capsys.readouterr().err
        assert f"expected an integer <= {MAX_DIM}, got {dim}" in err
        assert "Traceback" not in err

    def test_table_dim_above_the_limit_exits_1_with_one_line(self, src_file, sim_dir, tmp_path,
                                                             capsys):
        emb = tmp_path / "emb.tsv"
        emb.write_text(f"eye2vec-embeddings v1 dim={10**15}\n", encoding="utf-8")
        fixations = sim_dir / "prog_linear_0.csv"
        assert main(["vectorize", str(src_file), str(fixations), "--emb", str(emb)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: row 1: dimension must be at most {MAX_DIM}\n"


class TestCompareClusterPredict:
    @pytest.fixture()
    def vector_files(self, src_file, sim_dir, tmp_path):
        paths = []
        for csv_path in sorted(sim_dir.glob("*.csv")):
            out = tmp_path / (csv_path.stem + ".json")
            code = main([
                "vectorize", str(src_file), str(csv_path), "--dim", "16",
                "--out", str(out),
            ])
            assert code == 0
            paths.append(out)
        return paths

    def test_compare_self_prints_one(self, vector_files, capsys):
        assert main(["compare", str(vector_files[0]), str(vector_files[0])]) == 0
        assert capsys.readouterr().out.strip() == "1.0"

    def test_compare_two_recordings(self, vector_files, capsys):
        assert main(["compare", str(vector_files[0]), str(vector_files[1])]) == 0
        value = float(capsys.readouterr().out)
        assert -1.0 <= value <= 1.0

    def test_cluster_output_format(self, vector_files, capsys):
        args = ["cluster"] + [str(p) for p in vector_files] + ["--k", "2", "--seed", "7"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(vector_files)
        by_strategy = {"defuse": set(), "linear": set()}
        for line in lines:
            rec_id, cluster = line.split("\t")
            strategy = "defuse" if "defuse" in rec_id else "linear"
            by_strategy[strategy].add(cluster)
        assert by_strategy["defuse"].isdisjoint(by_strategy["linear"])

    def test_predict_and_loo(self, vector_files, tmp_path, capsys):
        train_dir = tmp_path / "train"
        train_dir.mkdir()
        rows = []
        for path in vector_files:
            (train_dir / path.name).write_bytes(path.read_bytes())
            vector = EyeVector.from_json(path.read_text(encoding="utf-8"))
            label = "defuse" if "defuse" in vector.recording_id else "linear"
            rows.append(f"{vector.recording_id}\t{label}")
        (train_dir / "labels.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")

        assert main([
            "predict", "--train", str(train_dir), "--test", str(vector_files[0]), "--loo",
        ]) == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[0] == "prog_defuse_0\tdefuse"
        assert out_lines[1] == "accuracy=1.0"

    def test_predict_without_test_or_loo_is_usage_error(self, vector_files, tmp_path):
        train_dir = tmp_path / "train2"
        train_dir.mkdir()
        (train_dir / "labels.tsv").write_text("x\ty\n", encoding="utf-8")
        assert main(["predict", "--train", str(train_dir)]) == 2

    def test_predict_missing_vector_exits_1(self, tmp_path):
        train_dir = tmp_path / "train3"
        train_dir.mkdir()
        (train_dir / "labels.tsv").write_text("ghost\tx\nspook\ty\n", encoding="utf-8")
        assert main(["predict", "--train", str(train_dir), "--loo"]) == 1

    def test_compare_mistyped_recording_id_exits_1_with_one_line(self, vector_files, tmp_path,
                                                                   capsys):
        data = json.loads(vector_files[0].read_text(encoding="utf-8"))
        data["recording_id"] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        assert main(["compare", str(vector_files[0]), str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "recording_id" in captured.err

    def test_predict_duplicate_recording_id_exits_1_with_one_line(self, tmp_path, capsys):
        train_dir = tmp_path / "train4"
        train_dir.mkdir()
        for name, values in (("a.json", [1.0, 0.0]), ("b.json", [0.0, 1.0])):
            vector = EyeVector("r1", 2, np.array(values), True, {})
            (train_dir / name).write_text(vector.to_json(), encoding="utf-8")
        (train_dir / "labels.tsv").write_text("r1\tx\n", encoding="utf-8")
        assert main(["predict", "--train", str(train_dir), "--loo"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: row 1: ")
        assert "a.json" in captured.err and "b.json" in captured.err and "'r1'" in captured.err


class TestSimulate:
    def test_creates_exactly_count_files(self, src_file, tmp_path):
        out = tmp_path / "generated"
        assert main([
            "simulate", str(src_file), "--strategy", "linear",
            "--n", "10", "--count", "3", "--seed", "5", "--out", str(out),
        ]) == 0
        files = sorted(p.name for p in out.glob("*.csv"))
        assert files == ["prog_linear_0.csv", "prog_linear_1.csv", "prog_linear_2.csv"]

    def test_generated_files_are_valid_grid_csv(self, src_file, tmp_path):
        out = tmp_path / "generated"
        main([
            "simulate", str(src_file), "--strategy", "defuse",
            "--n", "12", "--count", "1", "--seed", "3", "--jitter", "2", "--out", str(out),
        ])
        recording = read_fixations(out / "prog_defuse_0.csv", mode="grid")
        assert len(recording.fixations) == 12

    def test_missing_required_flag_exits_2(self, src_file, tmp_path):
        assert main(["simulate", str(src_file), "--strategy", "linear"]) == 2

    @pytest.mark.parametrize("flag,value,limit", [
        ("--n", MAX_FIXATIONS + 1, MAX_FIXATIONS),
        ("--n", 10**15, MAX_FIXATIONS),
        ("--count", MAX_RECORDINGS + 1, MAX_RECORDINGS),
        ("--count", 10**15, MAX_RECORDINGS),
    ])
    def test_size_above_the_limit_is_usage_error(self, src_file, tmp_path, capsys, flag, value,
                                                 limit):
        sizes = {"--n": "10", "--count": "1", flag: str(value)}
        out = tmp_path / "generated"
        assert main([
            "simulate", str(src_file), "--strategy", "linear", "--seed", "0", "--out", str(out),
            *(arg for pair in sizes.items() for arg in pair),
        ]) == 2
        err = capsys.readouterr().err
        assert f"expected an integer <= {limit}, got {value}" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestDeterminism:
    def test_pipeline_outputs_are_byte_identical(self, tmp_path, capsys):
        src = sample_path("accumulator")

        def run_pipeline(base: str) -> dict[str, bytes]:
            work = tmp_path / base
            work.mkdir()
            sims = work / "sims"
            for strategy, seed in (("linear", 0), ("defuse", 40)):
                assert main([
                    "simulate", str(src), "--strategy", strategy, "--n", "24",
                    "--count", "2", "--seed", str(seed), "--jitter", "1",
                    "--out", str(sims),
                ]) == 0
            profiles = work / "profiles"
            profiles.mkdir()
            outputs: dict[str, bytes] = {}
            vec_paths = []
            for csv_path in sorted(sims.glob("*.csv")):
                outputs["fix:" + csv_path.name] = csv_path.read_bytes()
                profile_out = profiles / (csv_path.stem + ".profile.json")
                assert main([
                    "link", str(src), str(csv_path), "--out", str(profile_out),
                ]) == 0
                outputs["profile:" + csv_path.name] = profile_out.read_bytes()
                vec_out = work / (csv_path.stem + ".json")
                assert main([
                    "vectorize", str(src), str(csv_path), "--dim", "16",
                    "--out", str(vec_out),
                ]) == 0
                outputs["vector:" + csv_path.name] = vec_out.read_bytes()
                vec_paths.append(vec_out)
            assert main(
                ["cluster"] + [str(p) for p in vec_paths] + ["--k", "2", "--seed", "7"]
            ) == 0
            outputs["cluster"] = capsys.readouterr().out.encode()
            labels = "\n".join(
                f"{p.stem}\t{'defuse' if 'defuse' in p.stem else 'linear'}" for p in vec_paths
            )
            (work / "labels.tsv").write_text(labels + "\n", encoding="utf-8")
            for p in vec_paths:
                (work / p.name).write_bytes(p.read_bytes())
            assert main([
                "predict", "--train", str(work), "--test", str(vec_paths[0]), "--loo",
            ]) == 0
            outputs["predict"] = capsys.readouterr().out.encode()
            return outputs

        first = run_pipeline("run1")
        second = run_pipeline("run2")
        assert first == second
