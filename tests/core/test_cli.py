"""Tests for the command-line interface."""

import pytest

from repro.cli import main

JANE = """
<h1>Jane Doe</h1>
<h2>Students</h2><p><b>PhD students</b></p>
<ul><li>Robert Smith</li><li>Mary Anderson</li></ul>
"""
JOHN = """
<h1>John Doe</h1>
<h2>Current Students</h2>
<ul><li>Sarah Brown</li><li>Wei Zhang</li></ul>
"""
ANN = """
<h1>Ann Lee</h1>
<h2>Advisees</h2><p>Mark Young, Laura Hill</p>
"""


@pytest.fixture()
def pages(tmp_path):
    (tmp_path / "jane.html").write_text(JANE)
    (tmp_path / "john.html").write_text(JOHN)
    unlabeled = tmp_path / "unlabeled"
    unlabeled.mkdir()
    (unlabeled / "ann.html").write_text(ANN)
    return tmp_path


class TestCli:
    def test_fit_extract_show_roundtrip(self, pages, capsys):
        program_path = str(pages / "program.json")
        exit_code = main([
            "fit",
            "--question", "Who are the current PhD students?",
            "--keyword", "Current Students", "--keyword", "PhD",
            "--keyword", "Advisees",
            "--label", str(pages / "jane.html"), "Robert Smith;Mary Anderson",
            "--label", str(pages / "john.html"), "Sarah Brown;Wei Zhang",
            "--unlabeled-dir", str(pages / "unlabeled"),
            "--ensemble", "50",
            "--out", program_path,
        ])
        assert exit_code == 0
        fit_output = capsys.readouterr().out
        assert "training F1: 1.000" in fit_output
        assert "saved:" in fit_output

        exit_code = main([
            "extract",
            "--program", program_path,
            "--question", "Who are the current PhD students?",
            "--keyword", "Current Students", "--keyword", "PhD",
            "--keyword", "Advisees",
            str(pages / "unlabeled" / "ann.html"),
        ])
        assert exit_code == 0
        extract_output = capsys.readouterr().out
        assert "Mark Young" in extract_output
        assert "Laura Hill" in extract_output

        exit_code = main(["show", "--program", program_path])
        assert exit_code == 0
        assert "λQ,K,W." in capsys.readouterr().out

    def test_fit_session_refit_roundtrip(self, pages, capsys):
        program_path = str(pages / "program.json")
        session_path = str(pages / "session.pkl")
        exit_code = main([
            "fit",
            "--question", "Who are the current PhD students?",
            "--keyword", "Current Students", "--keyword", "PhD",
            "--label", str(pages / "jane.html"), "Robert Smith;Mary Anderson",
            "--ensemble", "20",
            "--jobs", "2",
            "--out", program_path,
            "--session", session_path,
        ])
        assert exit_code == 0
        assert "session saved:" in capsys.readouterr().out

        exit_code = main([
            "refit",
            "--session", session_path,
            "--label", str(pages / "john.html"), "Sarah Brown;Wei Zhang",
            "--unlabeled-dir", str(pages / "unlabeled"),
            "--ensemble", "20",
            "--out", program_path,
        ])
        assert exit_code == 0
        refit_output = capsys.readouterr().out
        assert "reused from session" in refit_output
        assert "training F1: 1.000" in refit_output

        exit_code = main([
            "extract",
            "--program", program_path,
            "--question", "Who are the current PhD students?",
            "--keyword", "Current Students", "--keyword", "PhD",
            "--jobs", "2",
            str(pages / "unlabeled" / "ann.html"),
        ])
        assert exit_code == 0

    def test_artifact_export_inspect_serve_bench(self, pages, capsys):
        program_path = str(pages / "program.json")
        session_path = str(pages / "session.pkl")
        artifact_path = str(pages / "students.artifact.json")
        exit_code = main([
            "fit",
            "--question", "Who are the current PhD students?",
            "--keyword", "Current Students", "--keyword", "PhD",
            "--keyword", "Advisees",
            "--label", str(pages / "jane.html"), "Robert Smith;Mary Anderson",
            "--label", str(pages / "john.html"), "Sarah Brown;Wei Zhang",
            "--unlabeled-dir", str(pages / "unlabeled"),
            "--ensemble", "50",
            "--out", program_path,
            "--session", session_path,
            "--artifact", artifact_path,
        ])
        assert exit_code == 0
        assert "artifact saved:" in capsys.readouterr().out

        exit_code = main(["inspect", "--artifact", artifact_path])
        assert exit_code == 0
        inspect_output = capsys.readouterr().out
        assert "schema version: 1" in inspect_output
        assert "model fingerprint:" in inspect_output
        assert "λQ,K,W." in inspect_output

        # export from the saved session must produce the same artifact
        # payload modulo selection re-run (same program, same models).
        artifact2_path = str(pages / "again.artifact.json")
        exit_code = main([
            "export", "--session", session_path,
            "--unlabeled-dir", str(pages / "unlabeled"),
            "--ensemble", "50", "--out", artifact2_path,
        ])
        assert exit_code == 0
        assert "model fingerprint:" in capsys.readouterr().out

        exit_code = main([
            "serve-bench", "--artifact", artifact_path,
            "--rounds", "2", "--jobs", "2",
            str(pages / "unlabeled" / "ann.html"),
            str(pages / "jane.html"),
        ])
        assert exit_code == 0
        bench_output = capsys.readouterr().out
        assert "serve cold:" in bench_output
        assert "serve warm:" in bench_output
        assert "direct predict_batch:" in bench_output
        assert "page_cache.cache_hits" in bench_output

    def test_serve_stat_prints_one_service_row_and_one_row_per_lane(
        self, capsys
    ):
        exit_code = main([
            "serve-stat", "--shards", "3", "--requests", "24",
            "--pages", "4", "--ensemble", "10",
        ])
        assert exit_code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "lanes: 3  closed: False" in lines
        assert any(line.startswith("submitted: 24  shed: 0") for line in lines)
        (service,) = [line for line in lines if line.startswith("service:")]
        assert "inflight 0" in service
        assert "pools broken 0" in service
        assert "breakers [conference=closed faculty=closed]" in service
        assert "versions [" in service
        header = next(
            index for index, line in enumerate(lines)
            if line.split()[:3] == ["lane", "queue", "dispatcher"]
        )
        assert [line.split() for line in lines[header + 1:]] == [
            [str(lane), "0", "alive"] for lane in range(3)
        ]

    def test_fit_requires_labels(self, pages):
        with pytest.raises(SystemExit):
            main([
                "fit",
                "--question", "q?",
                "--out", str(pages / "p.json"),
            ])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["teleport"])
