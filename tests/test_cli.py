"""Command-line interface."""

import pytest

from repro.cli import main


class TestInfo:
    def test_dataset_info(self, capsys):
        assert main(["info", "--dataset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "TemporalGraph" in out
        assert "degree" in out


class TestGenerate:
    def test_generate_text(self, tmp_path, capsys):
        out_file = tmp_path / "edges.txt"
        assert main(["generate", "--dataset", "tiny", str(out_file)]) == 0
        assert out_file.exists()
        assert "wrote" in capsys.readouterr().out

    def test_generate_binary_roundtrip(self, tmp_path):
        out_file = tmp_path / "edges.tegb"
        main(["generate", "--dataset", "tiny", str(out_file)])
        assert main(["info", "--input", str(out_file)]) == 0


class TestWalk:
    def test_walk_summary(self, capsys):
        rc = main([
            "walk", "--dataset", "tiny", "--app", "exponential",
            "--engine", "tea", "--length", "10", "--max-walks", "20",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "steps:" in out
        assert "edges_per_step:" in out

    def test_walk_show_paths(self, capsys):
        main([
            "walk", "--dataset", "tiny", "--app", "unbiased",
            "--length", "5", "--max-walks", "5", "--show-paths", "3",
        ])
        out = capsys.readouterr().out
        assert "->" in out or "steps: 0" in out

    def test_walk_from_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1.0\n1 2 2.0\n")
        rc = main([
            "walk", "--input", str(path), "--app", "unbiased",
            "--engine", "tea", "--length", "5",
        ])
        assert rc == 0


class TestCompare:
    def test_compare_table(self, capsys):
        rc = main([
            "compare", "--dataset", "tiny", "--app", "linear",
            "--engines", "tea", "ctdne", "--max-walks", "10", "--length", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tea" in out and "ctdne" in out

    def test_bad_engine_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "--engines", "warpdrive"])


class TestStats:
    def test_stats_output(self, capsys):
        assert main(["stats", "--dataset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "mean_degree" in out
        assert "dead_end_fraction" in out

    def test_stats_with_cost_prediction(self, capsys):
        assert main(["stats", "--dataset", "tiny", "--predict-costs"]) == 0
        out = capsys.readouterr().out
        assert "tea_hybrid" in out
        assert "rejection" in out


class TestCorpus:
    def test_generate_and_validate(self, tmp_path, capsys):
        corpus = tmp_path / "c.twalks"
        rc = main(["corpus", "--dataset", "tiny", str(corpus),
                   "--app", "unbiased", "--length", "5", "--max-walks", "20"])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        rc = main(["validate-corpus", "--dataset", "tiny", str(corpus)])
        assert rc == 0
        assert "0 problems" in capsys.readouterr().out

    def test_validate_rejects_foreign_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "bad.txt"
        corpus.write_text("0 1@9999.0\n")
        rc = main(["validate-corpus", "--dataset", "tiny", str(corpus)])
        assert rc == 1
        assert "1 problems" in capsys.readouterr().out

    def test_validate_reports_a_bad_start_token(self, tmp_path, capsys):
        """A malformed corpus is an error message and exit 2, not a
        traceback."""
        corpus = tmp_path / "bad.txt"
        corpus.write_text("x 1@2.0\n")
        rc = main(["validate-corpus", "--dataset", "tiny", str(corpus)])
        assert rc == 2
        assert "bad.txt:1: bad token 'x'" in capsys.readouterr().err


class TestBenchWrapper:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "figure-of-doom"])
        # Paper figures run under pytest, not as `bench` verbs.
        with pytest.raises(SystemExit):
            main(["bench", "fig2"])
