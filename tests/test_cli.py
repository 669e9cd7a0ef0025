"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestGenerate:
    def test_generate_writes_graph(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main(
            [
                "generate",
                "--family",
                "dblp",
                "--size",
                "80",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "dblp" in capsys.readouterr().out

    def test_default_family(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["generate", "--size", "60", "--out", str(out)]) == 0


class TestStats:
    def test_stats_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        main(["generate", "--size", "60", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "n=" in printed


class TestSolve:
    @pytest.fixture
    def graph_file(self, tmp_path):
        out = tmp_path / "g.json"
        main(
            [
                "generate",
                "--family",
                "random",
                "--size",
                "40",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        return out

    def test_solve_prints_members(self, graph_file, capsys):
        code = main(
            [
                "solve",
                str(graph_file),
                "--k",
                "4",
                "--solver",
                "dgreedy",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "k=4" in printed
        assert "W=" in printed

    def test_sampling_flags_rejected_by_solvers_without_them(
        self, graph_file
    ):
        for solver in ("dgreedy", "exact-bnb", "ip", "paper-ip"):
            for flag in ("--budget", "--m"):
                with pytest.raises(SystemExit) as excinfo:
                    main(
                        [
                            "solve",
                            str(graph_file),
                            "--k",
                            "4",
                            "--solver",
                            solver,
                            flag,
                            "10",
                        ]
                    )
                message = str(excinfo.value)
                assert flag in message and repr(solver) in message
                assert "\n" not in message

    def test_solve_k_range(self, graph_file, capsys):
        code = main(
            [
                "solve",
                str(graph_file),
                "--k",
                "3",
                "--k-max",
                "5",
                "--solver",
                "cbas-nd",
                "--budget",
                "30",
                "--m",
                "4",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "k=3" in printed and "k=5" in printed

    def test_solve_disconnected(self, graph_file, capsys):
        code = main(
            [
                "solve",
                str(graph_file),
                "--k",
                "3",
                "--solver",
                "dgreedy",
                "--disconnected",
            ]
        )
        assert code == 0

    def test_require_flag(self, graph_file, capsys):
        code = main(
            [
                "solve",
                str(graph_file),
                "--k",
                "3",
                "--solver",
                "dgreedy",
                "--require",
                "0",
            ]
        )
        assert code == 0
        assert "0" in capsys.readouterr().out


    def test_runtime_flags(self, graph_file, capsys):
        code = main(
            [
                "solve",
                str(graph_file),
                "--k",
                "4",
                "--solver",
                "cbas-nd",
                "--budget",
                "40",
                "--m",
                "4",
                "--seed",
                "3",
                "--workers",
                "2",
                "--mode",
                "serial",
            ]
        )
        assert code == 0
        assert "k=4" in capsys.readouterr().out

    def test_workers_and_mode_do_not_change_seeded_members(
        self, graph_file, capsys
    ):
        """--mode solve multiplexes batches; a single solve has nothing
        to multiplex and runs serially, so the seeded output line is
        unchanged."""
        base = [
            "solve", str(graph_file), "--k", "4", "--solver", "cbas-nd",
            "--budget", "40", "--m", "4", "--seed", "3",
        ]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        assert "k=4" in serial_out
        assert main(base + ["--workers", "2", "--mode", "solve"]) == 0
        untimed = lambda out: re.sub(r"\(\S+ ms\) ", "", out)  # noqa: E731
        assert untimed(capsys.readouterr().out) == untimed(serial_out)


class TestSolveMany:
    @pytest.fixture
    def graph_file(self, tmp_path):
        out = tmp_path / "g.json"
        main(
            [
                "generate",
                "--family",
                "random",
                "--size",
                "40",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        return out

    def _write_requests(self, tmp_path, lines):
        import json

        path = tmp_path / "requests.jsonl"
        path.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n",
            encoding="utf-8",
        )
        return path

    def test_batch_smoke(self, graph_file, tmp_path, capsys):
        path = self._write_requests(
            tmp_path,
            [
                {"k": 4, "solver": "cbas-nd", "budget": 40, "m": 4,
                 "stages": 2, "seed": 7},
                {"k": 3, "solver": "dgreedy"},
                {"k": 5, "budget": 30, "m": 3, "stages": 2, "seed": 9,
                 "required": [0]},
            ],
        )
        code = main(
            [
                "solve-many",
                str(graph_file),
                str(path),
                "--workers",
                "2",
                "--mode",
                "solve",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("W=") == 3
        assert "#0 cbas-nd k=4" in printed
        assert "#1 dgreedy k=3" in printed
        assert "#2 cbas-nd k=5" in printed

    def test_batch_matches_single_solves(self, graph_file, tmp_path, capsys):
        path = self._write_requests(
            tmp_path,
            [{"k": 4, "budget": 40, "m": 4, "seed": 7}],
        )
        assert main(["solve-many", str(graph_file), str(path)]) == 0
        batch_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert main(
            [
                "solve", str(graph_file), "--k", "4", "--budget", "40",
                "--m", "4", "--seed", "7",
            ]
        ) == 0
        single_line = capsys.readouterr().out.strip().splitlines()[-1]
        # Same members, same willingness — the batch front door is
        # bit-identical to the one-by-one path.
        assert batch_line.split("members=")[1] == (
            single_line.split("members=")[1]
        )
        assert batch_line.split("W=")[1].split()[0] == (
            single_line.split("W=")[1].split()[0]
        )

    def test_empty_batch(self, graph_file, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert main(["solve-many", str(graph_file), str(path)]) == 0
        assert "no requests" in capsys.readouterr().out

    def test_invalid_json_line_reported(self, graph_file, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"k": 4}\nnot json\n', encoding="utf-8")
        with pytest.raises(SystemExit, match="invalid JSON"):
            main(["solve-many", str(graph_file), str(path)])

    def test_semantic_errors_reported_with_line_numbers(
        self, graph_file, tmp_path
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"solver": "cbas-nd"}\n', encoding="utf-8")
        with pytest.raises(SystemExit, match="bad.jsonl:1.*'k'"):
            main(["solve-many", str(graph_file), str(path)])
        path.write_text('{"k": 4}\n{"k": 4, "solver": "nope"}\n')
        with pytest.raises(SystemExit, match="bad.jsonl:2.*unknown solver"):
            main(["solve-many", str(graph_file), str(path)])
        path.write_text('{"k": 4}\n{"k": 4.5}\n')
        with pytest.raises(SystemExit, match="bad.jsonl:2.*'k'.*integer"):
            main(["solve-many", str(graph_file), str(path)])


class TestParser:
    def test_unknown_solver_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["solve", "g.json", "--k", "3", "--solver", "x"])

    def test_unknown_mode_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["solve", "g.json", "--k", "3", "--mode", "openmp"]
            )

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
