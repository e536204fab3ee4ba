from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kextend.cli as cli
import kextend.verifier as verifier
from kextend import (
    Matching,
    Report,
    complete_bipartite,
    cycle_graph,
    extendibility_number,
    extends_to_perfect,
    matching_number,
    path_graph,
    to_edge_list,
    to_graph6,
    vertex_connectivity,
)
from kextend.graphs import EDGE_LIST_MAX_N

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "schema"
ANALYSIS_SCHEMA = json.loads((SCHEMA_DIR / "analysis.json").read_text())
REPORT_SCHEMA = json.loads((SCHEMA_DIR / "report.json").read_text())


def run_cli(capsys, monkeypatch, argv, stdin: str | bytes = ""):
    """cli.main with ``stdin`` on a real temporary file, since "-" is read
    through the standard-input file descriptor."""
    with tempfile.TemporaryFile() as handle:
        handle.write(stdin.encode() if isinstance(stdin, str) else stdin)
        handle.seek(0)
        monkeypatch.setattr("sys.stdin", handle)
        code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env(**extra: str) -> dict[str, str]:
    """The environment with this checkout's package first on the path."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


class TestAnalyze:
    def test_c4_record_matches_library(self, capsys, monkeypatch, c4):
        code, out, _ = run_cli(capsys, monkeypatch, ["analyze"],
                               stdin=to_graph6(c4) + "\n")
        assert code == 0
        record = json.loads(out)
        jsonschema.validate(record, ANALYSIS_SCHEMA)
        assert record["graph6"] == to_graph6(c4)
        assert record["vertex_connectivity"] == vertex_connectivity(c4)[0] == 2
        assert record["matching_number"] == matching_number(c4) == 2
        assert record["extendibility_number"] == extendibility_number(c4) == 1
        assert record["bipartition"] == {"x": [0, 2], "y": [1, 3]}

    def test_p4_blocked_witness_at_level_one(self, capsys, monkeypatch, p4):
        code, out, _ = run_cli(capsys, monkeypatch, ["analyze"],
                               stdin=to_graph6(p4) + "\n")
        assert code == 0
        record = json.loads(out)
        jsonschema.validate(record, ANALYSIS_SCHEMA)
        assert record["extendibility_number"] == 0
        level_one = record["certificates"][1]
        assert level_one["verdict"] == "no"
        assert level_one["reason"] == "BlockedMatching"
        assert level_one["witness"] == [[1, 2]]

    def test_empty_input(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["analyze"], stdin="")
        assert code == 0 and out == ""

    def test_parse_failure_exits_2_with_line(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, ["analyze"],
                                 stdin="A_\n~oops\n")
        assert code == 2
        assert err == ("kextend analyze: -:2: long-form graph6 header "
                       "(n > 62) is not supported\n")

    def test_edge_list_format(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["analyze", "--format", "edges"],
                               stdin="4\n0 1\n1 2\n2 3\n3 0\n")
        assert code == 0
        record = json.loads(out)
        assert record["graph6"] == to_graph6(cycle_graph(4))

    def test_missing_file_exits_2_with_path(self, capsys, monkeypatch,
                                            tmp_path):
        path = str(tmp_path / "absent.g6")
        code, out, err = run_cli(capsys, monkeypatch, ["analyze", path])
        assert code == 2 and out == ""
        assert err == f"kextend analyze: {path}: No such file or directory\n"

    def test_non_ascii_byte_exits_2_with_path(self, capsys, monkeypatch,
                                              tmp_path):
        path = tmp_path / "latin.g6"
        path.write_bytes(b"A_\nB\xe9\n")
        code, _, err = run_cli(capsys, monkeypatch, ["analyze", str(path)])
        assert code == 2
        assert err == (f"kextend analyze: {path}:2: "
                       "non-ascii byte in graph6 string\n")

    def test_schema_on_varied_graphs(self, capsys, monkeypatch):
        stdin = "\n".join(["?", "A?", "A_", "Bw", "Cl", "D?{",
                           to_graph6(cycle_graph(7))]) + "\n"
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["analyze", "--kmax", "2"], stdin=stdin)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        for line in lines:
            jsonschema.validate(json.loads(line), ANALYSIS_SCHEMA)


    def test_negative_kmax_exits_2(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["analyze", "--kmax", "-1"],
                                 stdin=to_graph6(cycle_graph(4)) + "\n")
        assert (code, out) == (2, "")
        assert err == "kextend analyze: kmax must be nonnegative\n"

    @pytest.mark.parametrize("kmax", ["512", "2000000"])
    def test_kmax_above_every_level_exits_2_before_reading(
            self, capsys, monkeypatch, kmax):
        """No readable graph has a level above (1024 - 2) / 2 = 511, so a
        larger kmax is refused before the input is read: the malformed
        input here would otherwise be the error."""
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["analyze", "--kmax", kmax],
                                 stdin="not graph6\n")
        assert (code, out) == (2, "")
        assert err == "kextend analyze: kmax must lie in 0..511\n"

    def test_kmax_at_the_bound_is_accepted(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["analyze", "--kmax", "511"], stdin="A_\n")
        assert code == 0
        assert len(json.loads(out)["certificates"]) == 512

    def test_kmax_zero_gives_level_zero_only(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["analyze", "--kmax", "0"],
                               stdin=to_graph6(cycle_graph(4)) + "\n")
        assert code == 0
        assert [c["k"] for c in json.loads(out)["certificates"]] == [0]

    def test_k33_record_carries_exhibits(self, capsys, monkeypatch):
        k33 = complete_bipartite(3, 3)
        code, out, _ = run_cli(capsys, monkeypatch, ["analyze", "--kmax", "2"],
                               stdin=to_graph6(k33) + "\n")
        assert code == 0
        certificates = json.loads(out)["certificates"]
        assert [len(c["exhibit"]) for c in certificates] == [1, 2, 2]
        assert certificates[1]["exhibit"][0] == {
            "matching": [[0, 3]], "extension": [[0, 3], [1, 4], [2, 5]]}
        for k, cert in enumerate(certificates):
            assert cert["verdict"] == "yes"
            for pair in cert["exhibit"]:
                m = Matching.of(pair["matching"])
                assert m.size == k
                assert pair["extension"] == [
                    list(e) for e in extends_to_perfect(k33, m).edges]


class TestConnectivityBytes:
    """The stdout of fixed runs that compute κ with its canonical cut
    witness (analyze) or Even's threshold test (verify), pinned by sha256
    so that a faster flow must print the same bytes; the dense verify run
    also pins P23, which holds on 93 of its 100 graphs."""

    @pytest.mark.parametrize("gen, digest", [
        (["--random", "12", "60", "13"],
         "027fc4a645db6e499547f3890a1d2ef6d54ad4abe459f2c8f28dac1b353bf547"),
        (["--random", "12", "60", "14", "--p", "0.8"],
         "7fcb6bd6e47924f375982450986d0826322d97b148eba61223d6006027000d83"),
    ], ids=["half", "dense"])
    def test_analyze(self, capsys, monkeypatch, gen, digest):
        code, corpus, _ = run_cli(capsys, monkeypatch, ["gen", *gen])
        assert code == 0 and corpus.count("\n") == 60
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["analyze", "--kmax", "3"], stdin=corpus)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_verify(self, capsys, monkeypatch):
        monkeypatch.setenv("KEXTEND_WORKERS", "1")
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["verify", "--random", "10", "200", "15"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "45945412e650c503a1a25e7131459b7f70d0a139f3ca66c1a46e9e30f5a25c15"

    def test_verify_dense(self, capsys, monkeypatch):
        monkeypatch.setenv("KEXTEND_WORKERS", "1")
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["verify", "--random", "10", "100", "16",
                                "--p", "0.85", "--kmax", "4"])
        assert code == 0
        assert json.loads(out)["properties"]["P23"]["holds"] == 93
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "0b3215fd7d61edd82c3014e95c79a40feac1b7a5d86447ceb217cbbeae62624f"


class TestExhaustiveBytes:
    def test_verify_exhaustive_6(self, capsys, monkeypatch):
        """Every graph on 6 vertices, every property: the stdout pins the
        per-graph kernels (connectivity, bipartition, maximum matching and
        the certificate walk) over all 32,768 labelled graphs."""
        monkeypatch.setenv("KEXTEND_WORKERS", "1")
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["verify", "--exhaustive", "6"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "00984f4d6160bb759e5a794181f2fe527f4af32e2f6bd11a51f6f8cd998f4ebf"


class TestVerify:
    def test_exhaustive_clean_exit_zero(self, capsys, monkeypatch):
        monkeypatch.setenv("KEXTEND_WORKERS", "1")
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["verify", "--exhaustive", "4", "--kmax", "2"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["graphs_processed"] == 64
        assert doc["violations"] == []
        assert doc["wall_time_ms"] is None

    def test_violations_flip_exit_code(self, capsys, monkeypatch):
        fake = Report(
            corpus={"mode": "exhaustive", "n": 3}, kmax=1,
            graphs_processed=1,
            properties={"P21": {"holds": 0, "violated": 1,
                                "inapplicable": 0}},
            violations=({"property": "P21", "graph_index": 0, "graph6": "Bw",
                         "payload": None},),
            notes=(), version="0.1.0", wall_time_ms=1.0)
        monkeypatch.setattr(cli, "run_corpus", lambda *a, **kw: fake)
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["verify", "--exhaustive", "3"])
        assert code == 1
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)

    def test_unknown_property_exit_two(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch,
                               ["verify", "--exhaustive", "3",
                                "--properties", "P21,NOPE"])
        assert code == 2 and "NOPE" in err

    def test_missing_mode_flag_exit_two(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, monkeypatch, ["verify"])
        assert exc.value.code == 2

    def test_exhaustive_bound_exit_two(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch,
                               ["verify", "--exhaustive", "9"])
        assert code == 2 and "exhaustive" in err

    def test_timing_flag_fills_wall_time(self, capsys, monkeypatch):
        monkeypatch.setenv("KEXTEND_WORKERS", "1")
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["verify", "--exhaustive", "3", "--timing",
                                "--properties", "KO"])
        assert code == 0
        assert json.loads(out)["wall_time_ms"] > 0

    def test_properties_subset_selected(self, capsys, monkeypatch):
        monkeypatch.setenv("KEXTEND_WORKERS", "1")
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["verify", "--exhaustive", "3",
                                "--properties", "KO,P22"])
        assert code == 0
        assert set(json.loads(out)["properties"]) == {"KO", "P22"}

    def test_external_input(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("KEXTEND_WORKERS", "1")
        src = tmp_path / "two.g6"
        src.write_text("Cl\nCh\n")
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["verify", "--input", str(src),
                                "--properties", "MONO-EXT"])
        assert code == 0
        assert json.loads(out)["graphs_processed"] == 2

    def test_external_strict_vs_lenient(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("KEXTEND_WORKERS", "1")
        src = tmp_path / "mixed.g6"
        src.write_text("Cl\n~broken\nCh\n")
        code, _, err = run_cli(capsys, monkeypatch,
                               ["verify", "--input", str(src),
                                "--properties", "KO"])
        assert code == 2 and "2" in err
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["verify", "--input", str(src), "--no-strict",
                                "--properties", "KO"])
        assert code == 0
        assert json.loads(out)["graphs_processed"] == 2

    def test_external_non_ascii_line_strict_vs_lenient(
            self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("KEXTEND_WORKERS", "1")
        src = tmp_path / "latin.g6"
        src.write_bytes(b"Cl\nCh\xe9\nCh\n")
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["verify", "--input", str(src),
                                  "--properties", "KO"])
        assert code == 2 and out == ""
        assert err == (f"kextend verify: {src}:2: "
                       "non-ascii byte in graph6 string\n")
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["verify", "--input", str(src), "--no-strict",
                                "--properties", "KO"])
        assert code == 0
        assert json.loads(out)["graphs_processed"] == 2

    @pytest.mark.parametrize("lines, bad, pool", [(3, 2, False),
                                                  (3001, 2501, True)],
                             ids=["in-process", "pool"])
    def test_external_malformed_line_at_two_workers(
            self, capsys, monkeypatch, tmp_path, lines, bad, pool):
        src = tmp_path / "mixed.g6"
        src.write_text("".join("~broken\n" if i == bad else "Cl\n"
                               for i in range(1, lines + 1)))
        argv = ["verify", "--input", str(src), "--properties", "KO"]
        monkeypatch.setenv("KEXTEND_WORKERS", "1")
        code, out, expected = run_cli(capsys, monkeypatch, argv)
        assert code == 2 and out == ""
        assert expected.startswith(f"kextend verify: {src}:{bad}: ")
        started = []
        start_pool = verifier._pool
        monkeypatch.setattr(verifier, "_pool",
                            lambda processes: started.append(processes)
                            or start_pool(processes))
        monkeypatch.setattr(verifier, "_POOL_AFTER_S",
                            0.0 if pool else float("inf"))
        monkeypatch.setenv("KEXTEND_WORKERS", "2")
        assert run_cli(capsys, monkeypatch, argv) == (2, "", expected)
        assert started == ([2] if pool else [])

    def test_external_stdin(self, capsys, monkeypatch):
        monkeypatch.setenv("KEXTEND_WORKERS", "1")
        argv = ["verify", "--input", "-", "--properties", "KO"]
        code, out, err = run_cli(capsys, monkeypatch, argv, stdin=b"Cl\n")
        report = json.loads(out)
        assert code == 0 and err == ""
        assert report["corpus"]["source"] == "-"
        assert report["graphs_processed"] == 1
        assert report["properties"]["KO"]["holds"] == 1
        code, out, err = run_cli(capsys, monkeypatch, argv,
                                 stdin=b"Cl\nCh\xe9\nCh\n")
        assert code == 2 and out == ""
        assert err == "kextend verify: -:2: non-ascii byte in graph6 string\n"
        code, out, _ = run_cli(capsys, monkeypatch, [*argv, "--no-strict"],
                               stdin=b"Cl\nCh\xe9\nCh\n")
        assert code == 0
        assert json.loads(out)["graphs_processed"] == 2

    def test_external_missing_file_exits_2_with_path(self, capsys,
                                                     monkeypatch, tmp_path):
        path = str(tmp_path / "absent.g6")
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["verify", "--input", path])
        assert code == 2 and out == ""
        assert err == f"kextend verify: {path}: No such file or directory\n"

    def test_worker_count_above_cap_exits_2_without_pool(self, capsys,
                                                         monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(verifier, "_pool", refuse)
        monkeypatch.setenv("KEXTEND_WORKERS", "100000")
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["verify", "--exhaustive", "6"])
        assert code == 2 and out == ""
        assert err == "kextend verify: worker count must lie in 1..256\n"

    def test_default_worker_count_is_capped(self, monkeypatch):
        monkeypatch.delenv("KEXTEND_WORKERS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1000)
        assert cli._workers() == 256

    def test_zero_workers_exits_2_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setenv("KEXTEND_WORKERS", "0")
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["verify", "--exhaustive", "2"])
        assert (code, out) == (2, "")
        assert err == "kextend verify: worker count must lie in 1..256\n"

    def test_levels_above_size_bound_are_never_asked(self, capsys,
                                                     monkeypatch):
        # on 6 vertices no level above 2 passes the size precondition, so
        # a huge kmax must finish and tally exactly as kmax 3 does
        monkeypatch.setenv("KEXTEND_WORKERS", "2")
        reports = []
        for kmax in ("3", "1000000000"):
            code, out, _ = run_cli(capsys, monkeypatch,
                                   ["verify", "--exhaustive", "6",
                                    "--kmax", kmax])
            assert code == 0
            reports.append(json.loads(out))
        assert reports[1]["properties"] == reports[0]["properties"]
        assert reports[1]["violations"] == reports[0]["violations"] == []


class TestImportCost:
    def test_cli_import_starts_no_pool_machinery(self, tmp_path):
        """Importing the CLI loads neither multiprocessing nor
        concurrent.futures: run_corpus imports the pool only when a corpus
        repays one, so a small run pays no import for it."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, kextend.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
            capture_output=True, text=True, env=subprocess_env(),
            cwd=tmp_path, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == "[]\n"

    def test_cli_import_loads_no_dataclass_machinery(self, tmp_path):
        """The records are plain classes, so importing the CLI loads
        neither dataclasses nor the inspect module that it pulls in."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, kextend.cli; print(sorted(m for m in sys.modules "
             "if m in ('dataclasses', 'inspect')))"],
            capture_output=True, text=True, env=subprocess_env(),
            cwd=tmp_path, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == "[]\n"


class TestSmallGraphsScript:
    def test_malformed_worker_count_exits_2_with_one_line(self, tmp_path):
        env = subprocess_env(KEXTEND_WORKERS="abc")
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "verify_small_graphs.py"),
             "--max-n", "1", "--random-count", "1"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("verify_small_graphs: KEXTEND_WORKERS must be "
                               "an integer, got 'abc'\n")


class TestNamedInstancesScript:
    def test_invariant_table(self, tmp_path):
        proc = subprocess.run(
            [sys.executable,
             str(ROOT / "scripts" / "analyze_named_instances.py")],
            capture_output=True, text=True, env=subprocess_env(),
            cwd=tmp_path, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        rows = {fields[0]: tuple(fields[2:])
                for fields in map(str.split, proc.stdout.splitlines()[2:])
                if not fields[0].startswith("k=")}
        assert rows == {
            "C4": ("2", "2", "1"), "P4": ("1", "2", "0"),
            "C6": ("2", "3", "1"), "C8": ("2", "4", "1"),
            "K33": ("3", "3", "2"), "K44": ("4", "4", "3"),
            "Petersen": ("3", "5", "1")}


class TestGen:
    def test_exhaustive_3_has_8_lines(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["gen", "--exhaustive", "3"])
        assert code == 0
        assert len(out.strip().splitlines()) == 8

    def test_seeded_generation_is_stable(self, capsys, monkeypatch):
        argv = ["gen", "--random", "8", "10", "42"]
        code1, out1, _ = run_cli(capsys, monkeypatch, argv)
        code2, out2, _ = run_cli(capsys, monkeypatch, argv)
        assert code1 == code2 == 0 and out1 == out2
        assert len(out1.strip().splitlines()) == 10

    @pytest.mark.parametrize("argv, lines, digest", [
        (["8", "10", "42"], 10,
         "c393815c7597c3b65dc886e1df857f8b0db9265df48c4085252371816134febe"),
        (["14", "48", "5"], 48,
         "40f4124693b6b3abc519556872e5ce71a171007f4c23885b7e329ec8e5f8eb3c"),
        (["46", "3", "9", "--p", "0.123"], 3,
         "de3e2a354f4605d8297be76dad25a9f0b4a1f2e4a09b66e1cfc677000115f34b"),
        (["12", "200", "5", "--p", "1e-300"], 200,
         "faa7cf32dae0f2f4668b8b01f576e7d5ed028bf6661199bf05920d7552f2bc55"),
        (["62", "2", "2718", "--p", "0.999"], 2,
         "581da1547dfbfdeed419f4abe957a1d41c61fc73626cd3f9ccf9b0944d7bfe3d"),
    ], ids=["n8", "n14", "n46-sparse", "tiny-p", "n62-dense"])
    def test_random_corpus_bytes_are_pinned(self, capsys, monkeypatch, argv,
                                            lines, digest):
        """The graph6 lines of seeded random corpora, pinned by sha256 so
        that a faster draw must build the same graphs; 46 vertices make
        1,035 pairs, more than one block of lane-packed draws."""
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["gen", "--random", *argv])
        assert code == 0 and out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_exhaustive_bound_refused(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, ["gen", "--exhaustive", "8"])
        assert code == 2 and err

    def test_negative_vertex_count_exits_2_with_one_line(self, capsys,
                                                          monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["gen", "--random", "-3", "3", "1"])
        assert (code, out) == (2, "")
        assert err == "kextend gen: vertex count must be nonnegative\n"

    @pytest.mark.parametrize("command", ["gen", "verify"])
    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_exits_2_with_one_line(
            self, capsys, monkeypatch, command, seed):
        """SplitMix64 keeps a seed's low 64 bits, so these would alias seeds
        2**64 - 1 and 0."""
        code, out, err = run_cli(capsys, monkeypatch,
                                 [command, "--random", "3", "2", str(seed)])
        assert (code, out) == (2, "")
        assert err == (f"kextend {command}: seed must lie in "
                       f"0..18446744073709551615\n")

    def test_largest_seed_accepted(self, capsys, monkeypatch):
        seed = (1 << 64) - 1
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["gen", "--random", "3", "2", str(seed),
                                  "--p", "1"])
        assert (code, out, err) == (0, "Bw\nBw\n", "")
        monkeypatch.setenv("KEXTEND_WORKERS", "1")
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["verify", "--random", "3", "2", str(seed)])
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert (code, err, report["corpus"]["seed"]) == (0, "", seed)


class TestConvert:
    def test_edges_to_g6(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch,
            ["convert", "--from", "edges", "--to", "g6"], stdin="2\n0 1\n")
        assert code == 0 and out == "A_\n"

    def test_g6_to_edges(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch,
            ["convert", "--from", "g6", "--to", "edges"], stdin="A_\n")
        assert code == 0 and out == "2\n0 1\n"

    def test_invalid_byte_exit_two(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, monkeypatch,
            ["convert", "--from", "g6", "--to", "edges"], stdin="A\x07\n")
        assert code == 2 and "63..126" in err

    def test_missing_file_exits_2_with_path(self, capsys, monkeypatch,
                                            tmp_path):
        path = str(tmp_path / "absent.g6")
        code, out, err = run_cli(
            capsys, monkeypatch,
            ["convert", "--from", "g6", "--to", "edges", path])
        assert code == 2 and out == ""
        assert err == f"kextend convert: {path}: No such file or directory\n"

    def test_non_ascii_byte_exits_2_with_path(self, capsys, monkeypatch,
                                              tmp_path):
        path = tmp_path / "latin.g6"
        path.write_bytes(b"\xff\n")
        code, out, err = run_cli(
            capsys, monkeypatch,
            ["convert", "--from", "g6", "--to", "g6", str(path)])
        assert code == 2 and out == ""
        assert err == (f"kextend convert: {path}:1: "
                       "non-ascii byte in graph6 string\n")

    def test_round_trip_identity(self, capsys, monkeypatch):
        lines = [to_graph6(cycle_graph(n)) for n in range(3, 9)]
        stdin = "\n".join(lines) + "\n"
        code, edges_doc, _ = run_cli(
            capsys, monkeypatch,
            ["convert", "--from", "g6", "--to", "edges"], stdin=stdin)
        assert code == 0
        code, back, _ = run_cli(
            capsys, monkeypatch,
            ["convert", "--from", "edges", "--to", "g6"],
            stdin=edges_doc.split("\n\n")[0])
        assert code == 0 and back.strip() == lines[0]

    def test_g6_to_g6_is_identity_on_canonical(self, capsys, monkeypatch):
        stdin = "Cl\nCh\nA_\n"
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["convert", "--from", "g6", "--to", "g6"],
                               stdin=stdin)
        assert code == 0 and out == stdin

    def test_empty_g6_input_prints_nothing(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["convert", "--from", "g6", "--to", "g6"])
        assert (code, out, err) == (0, "", "")

    def test_empty_g6_input_to_edges_prints_nothing(self, capsys,
                                                    monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["convert", "--from", "g6", "--to", "edges"])
        assert (code, out, err) == (0, "", "")

    @pytest.mark.parametrize("dst, printed", [
        ("g6", "Cl\nCh\n"),
        ("edges", "4\n0 1\n0 3\n1 2\n2 3\n\n4\n0 1\n1 2\n2 3\n")])
    def test_prints_each_graph_before_a_malformed_line(
            self, capsys, monkeypatch, dst, printed):
        """Each graph is printed as it is read, so the graphs before a bad
        line are out when the run exits 2, as with analyze."""
        code, out, err = run_cli(
            capsys, monkeypatch, ["convert", "--from", "g6", "--to", dst],
            stdin="Cl\nCh\nA\x07\n")
        assert (code, out) == (2, printed)
        assert err == "kextend convert: -:3: body byte 7 outside 63..126\n"

    def test_graph_beyond_graph6_exits_2_with_one_line(self, capsys,
                                                        monkeypatch):
        code, out, err = run_cli(
            capsys, monkeypatch, ["convert", "--from", "edges", "--to", "g6"],
            stdin=to_edge_list(path_graph(63)))
        assert (code, out) == (2, "")
        assert err == ("kextend convert: graph6 short form supports "
                       "n <= 62, got n=63\n")


class TestOneReader:
    """analyze, convert and verify --input read graphs through one reader,
    so one malformed input gives one message, from a file or from stdin."""

    BAD = b"Cl\nCh\xe9\n"
    COMMANDS = (["analyze"], ["convert", "--from", "g6", "--to", "g6"],
                ["verify", "--properties", "KO", "--input"])

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_file_and_stdin_give_one_message(self, capsys, monkeypatch,
                                             tmp_path, argv):
        monkeypatch.setenv("KEXTEND_WORKERS", "1")
        path = tmp_path / "latin.g6"
        path.write_bytes(self.BAD)
        for src, stdin in ((str(path), b""), ("-", self.BAD)):
            code, _, err = run_cli(capsys, monkeypatch, [*argv, src],
                                   stdin=stdin)
            assert code == 2
            assert err == (f"kextend {argv[0]}: {src}:2: "
                           "non-ascii byte in graph6 string\n")

    def test_stdin_message_does_not_depend_on_its_encoding(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kextend.cli", "analyze"],
            input=self.BAD, capture_output=True, timeout=120,
            env=subprocess_env(PYTHONIOENCODING="utf-8:strict"))
        assert proc.returncode == 2
        assert proc.stdout.count(b"\n") == 1
        assert proc.stderr == (b"kextend analyze: -:2: "
                               b"non-ascii byte in graph6 string\n")

    def test_edge_list_names_the_line_of_a_non_ascii_byte(
            self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"4\n0 1\n1 2\xe9\n")
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["analyze", "--format", "edges", str(path)])
        assert (code, out) == (2, "")
        assert err == (f"kextend analyze: {path}:3: "
                       "non-ascii byte in edge list\n")

    @pytest.mark.parametrize("token", ["1_0", "+2", "-1", "0x2", "2.0",
                                       "9" * 5000],
                             ids=lambda token: token[:8])
    def test_edge_list_takes_only_decimal_digits(
            self, capsys, monkeypatch, tmp_path, token):
        path = tmp_path / "edges.txt"
        path.write_text(f"12\n0 1\n1 {token}\n")
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["analyze", "--format", "edges", str(path)])
        assert (code, out) == (2, "")
        assert err == (f"kextend analyze: {path}:3: "
                       f"non-integer endpoint in '1 {token}'\n")

    @pytest.mark.parametrize("count", ["1" + "0" * 20,
                                       str(EDGE_LIST_MAX_N + 1)],
                             ids=["21-digit", "cap+1"])
    def test_edge_list_vertex_count_above_the_cap(
            self, capsys, monkeypatch, tmp_path, count):
        path = tmp_path / "edges.txt"
        path.write_text(f"{count}\n0 1\n")
        code, out, err = run_cli(capsys, monkeypatch,
                                 ["analyze", "--format", "edges", str(path)])
        assert (code, out) == (2, "")
        assert err == (f"kextend analyze: {path}:1: vertex count {count} "
                       f"exceeds {EDGE_LIST_MAX_N}\n")

    def test_edge_list_vertex_count_at_the_cap(self, capsys, monkeypatch,
                                              tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text(f"{EDGE_LIST_MAX_N}\n0 1\n")
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["analyze", "--format", "edges", str(path)])
        assert code == 0
        record = json.loads(out)
        assert (record["n"], record["edge_count"]) == (EDGE_LIST_MAX_N, 1)

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_closed_stdin_exits_2_with_one_line(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "kextend.cli", *argv, "-"],
            stdin=subprocess.DEVNULL, preexec_fn=lambda: os.close(0),
            capture_output=True, text=True, timeout=120,
            env=subprocess_env(KEXTEND_WORKERS="1"))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"kextend {argv[0]}: standard input is closed\n"


# pieces of graph6 lines and edge lists, stray bytes, and valid documents
# whose prefixes are taken; every graph they can spell is small
FRAGMENTS = [b"A_", b"Bw", b"C~", b"Ch", b"Cl", b"D??", b"DQw", b"E?", b"~",
             b"}", b"@", b"?", b"3", b"4\n", b"12", b"0 1", b"1 2", b"2 3",
             b"5 5", b"-1", b"x", b"\n", b" ", b"\t", b"\r", b"\x00",
             b"\xff", b"\xe9"]
DOCUMENTS = [b"A_\nBw\nC~\n", b"DQw\nCl\n", b"4\n0 1\n1 2\n2 3\n",
             b"6\n0 1\n2 3\n4 5\n"]
FUZZ_COMMANDS = (["analyze"], ["analyze", "--format", "edges"],
                 ["convert", "--from", "g6", "--to", "edges"],
                 ["convert", "--from", "edges", "--to", "g6"],
                 ["verify", "--input"], ["verify", "--no-strict", "--input"])


@st.composite
def fuzzed_inputs(draw):
    """Fragments and stray bytes, after a prefix of a valid document."""
    document = draw(st.sampled_from(DOCUMENTS))
    head = document[:draw(st.integers(0, len(document)))]
    return head + b"".join(draw(st.lists(st.sampled_from(FRAGMENTS),
                                         max_size=8)))


class TestInputContractFuzz:
    @given(data=fuzzed_inputs())
    @settings(max_examples=300)
    def test_every_reader_exits_0_or_2_with_one_line(self, tmp_path_factory,
                                                     data):
        """Whatever bytes come in, each reading command exits 0 or 2, and
        exit 2 prints exactly one stderr line and no traceback."""
        path = tmp_path_factory.mktemp("fuzz") / "input"
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("KEXTEND_WORKERS", "1")
            for argv in FUZZ_COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main([*argv, str(path)])
                message = err.getvalue()
                if code == 0:
                    assert message == "", (argv, data)
                else:
                    assert code == 2, (argv, data)
                    assert message.startswith(f"kextend {argv[0]}: ")
                    assert message.count("\n") == 1, (argv, data)
                    assert message.endswith("\n")
                    assert "Traceback" not in message


class TestClosedStdout:
    """A reader that stops early closes the pipe under the writer: exit 2,
    nothing on stderr, and nothing from the interpreter's last flush."""

    def read_one_line(self, tmp_path, *argv: str) -> tuple[int, str]:
        # 32,768 lines overfill the pipe, so the writer is still writing
        # when the pipe closes
        proc = subprocess.Popen(
            [sys.executable, "-m", "kextend.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=subprocess_env(),
            cwd=tmp_path)
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert first.strip()
        return proc.returncode, err

    def test_gen(self, tmp_path):
        assert self.read_one_line(tmp_path, "gen", "--exhaustive",
                                  "6") == (2, "")

    def test_convert(self, tmp_path):
        corpus = tmp_path / "all6.g6"
        corpus.write_text("".join(
            to_graph6(g) + "\n"
            for g in verifier.generate_corpus(
                verifier.CorpusSpec(mode="exhaustive", n=6))))
        assert self.read_one_line(tmp_path, "convert", "--from", "g6",
                                  "--to", "g6", str(corpus)) == (2, "")
