from __future__ import annotations

import hashlib
import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from amalgam_zdg import amalgam, cli
from amalgam_zdg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_ring_with_ideal(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "Z8", "--ideal", "gen(4)")
        assert code == 0
        assert "diameter 2" in out
        assert "nonzero zero-divisors (7)" in out
        assert "duplication ring Z8 join {0, 4}" in out

    def test_z6_half_ideal_reports_diameter_three(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "Z6", "--ideal", "gen(3)")
        assert code == 0
        assert "diameter 3, girth 3" in out

    def test_domain_shows_empty_graph(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "Z5")
        assert code == 0
        assert "integral domain: yes" in out
        assert "empty" in out

    def test_json_format_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "Z8", "--ideal", "gen(4)", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["ring"]["graph"]["diameter"] == 2
        assert data["duplication"]["graph"]["diameter"] == 2
        assert len(data["duplication"]["nonzero_zero_divisors"]) == 7

    def test_parse_failure_names_token_and_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "Q7")
        assert code == 2
        assert "Q7" in err

    def test_oversized_ring_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "Z100000")
        assert code == 2
        assert out == ""
        assert "order 100000, above the limit" in err

    def test_modulus_too_long_for_int_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "Z" + "9" * 5000)
        assert code == 2
        assert out == ""
        assert "a modulus of 5000 digits puts the ring order above the limit" in err


# sha256 of the ``analyze`` output, JSON and human, on instances that
# between them give every duplication field a nonzero value: the T1..T4
# counts (t4 = 8 on Z12 along gen(2)), O1, O2, the minimal primes and both
# graphs; Z5 along {0} has an empty duplication graph.
ANALYZE_SHA256 = {
    ("Z8", "gen(4)"): (
        "1014fb925abcaed3fdd077f9ac9f0400ec704273034d3ea0fb27daa476c0ebb9",
        "ba867cf04e6e6a036f728ada1defea174ca2a6447cb79f7717ee57e498634cbd",
    ),
    ("Z6", "gen(3)"): (
        "449d0b42a89926000a49c99fa0e5f8c3b4835333c56ba34afb8c8a75b3a7eecc",
        "4829460f234a74e41641cf377b5ed7c7882586e51fc9b6457ebdd5cb1cf9f127",
    ),
    ("Z2xZ4", "full"): (
        "0eeda55dabce8ec93ee29cb95e687c1aa4268ab4994b68907a1f9236674581b5",
        "3bd5592c1b1acfffc30c5d653caa3b489973ea36fd45195d2b7245e0dba19617",
    ),
    ("Z9", "gen(3)"): (
        "1a3e4eb99fc8d166e667a857c1482a093629c0866d5fba5ed0730e82c553951e",
        "f991ace734c651fe5f9efdad26ebb1c724ee57110583d86bdcf052b44d5ed95d",
    ),
    ("Z12", "gen(2)"): (
        "7b722f27d0e0397f85d7b7f7e70031078509f54b5ffd2d7007d897a12c2d3745",
        "27721045cbb63ac4131d9758f700034e3b3010015eb32953484f9400e0a10237",
    ),
    ("Z5", "zero"): (
        "733231a50ad4c23197e3595ebb2ab3fd78bdb468601fed037dcfde78cf86df3f",
        "af1dc9015df3957b17fe38837752e66eaf127284e4847fff3deb02f469399e19",
    ),
    ("Z2xZ2xZ2", "gen((1,0,0))"): (
        "f01bc8f28eb83cecd9de4044f3e0cefad1b0f1c921a811c68829fd0d32ab7023",
        "8592fd6fc2bc6eafc97d33e33ed20146b3488a2822c77c3b4d7b859e05e2c681",
    ),
}


@pytest.mark.parametrize("spec, ideal", list(ANALYZE_SHA256))
def test_analyze_reports_are_pinned(capsys, spec, ideal):
    for fmt, pinned in zip(("json", "human"), ANALYZE_SHA256[spec, ideal]):
        code, out, _ = run_cli(capsys, "analyze", spec, "--ideal", ideal, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pinned, fmt


class TestVerify:
    def test_klein_line_ideal_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "Z2xZ2", "--ideal", "gen((1,0))")
        assert code == 0
        assert "T4.12" in out and "verified" in out
        assert "counterexamples: 0" in out

    def test_triangle_case_verifies_completeness(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "Z4", "--ideal", "gen(2)")
        assert code == 0
        assert "T4.8   verified" in out

    def test_unit_generator_runs_with_the_full_ideal(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "Z6", "--ideal", "gen(5)")
        assert code == 0
        assert "{0,1,2,3,4,5}" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "Z6", "--ideal", "gen(3)", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["counterexamples"] == 0
        assert len(data["outcomes"]) == 10

    def test_duplication_above_the_order_limit_exits_2(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a duplication table was built")

        monkeypatch.setattr(amalgam, "_pair_tables", refuse)
        code, out, err = run_cli(capsys, "verify", "Z200", "--ideal", "gen(1)")
        assert code == 2
        assert out == ""
        assert err.startswith("error: the duplication of Z200 along {0, 1, 2,")
        assert err.endswith("has order 40000, above the limit of 16384\n")

    @pytest.mark.parametrize("spec", ["Z4096", "Z16xZ16xZ16"])
    def test_order_limit_message_stays_short(self, capsys, spec):
        # The largest ideals the spec limit allows, the second with the
        # longest element labels: a few members, then the member count.
        code, out, err = run_cli(capsys, "verify", spec, "--ideal", "full")
        assert code == 2 and out == ""
        assert err.endswith(
            ", …} (4096 members) has order 16777216, above the limit of 16384\n"
        )
        assert err.count("\n") == 1 and len(err) <= 200

    def test_bad_ideal_label_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "Z6", "--ideal", "gen(7)")
        assert code == 2
        assert "7" in err


class TestSweep:
    def test_small_sweep_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--family",
            "Z2..Z6",
            "--format",
            "json",
            "--workers",
            "1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["family"] == ["Z2", "Z3", "Z4", "Z5", "Z6"]
        assert data["invariant_violations"] == []

    def test_empty_family_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--family", "")
        assert code == 2
        assert "family" in err

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "Z4,Z6", "--format", "csv", "--workers", "1"
        )
        assert code == 0
        assert out.splitlines()[0] == "ring,ideal,theorem,status,witness,note"

    def test_identical_invocations_are_byte_identical(self, capsys):
        args = ("sweep", "--family", "Z2..Z6", "--format", "json", "--workers", "1")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_workers_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("AMALGAM_ZDG_WORKERS", "1")
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "Z4,Z6", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["family"] == ["Z4", "Z6"]

    @pytest.mark.parametrize(
        "crash, code, message",
        [
            (BrokenProcessPool("a process terminated abruptly"), 3, "worker process died"),
            (MemoryError(), 4, "out of memory"),
        ],
        ids=["broken-pool", "memory"],
    )
    def test_worker_crashes_have_their_own_exit_codes(
        self, capsys, monkeypatch, crash, code, message
    ):
        def crashing_sweep(*args, **kwargs):
            raise crash

        monkeypatch.setattr(cli, "sweep", crashing_sweep)
        got, out, err = run_cli(capsys, "sweep", "--family", "Z6", "--workers", "2")
        assert got == code and out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_human_summary(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "Z6", "--workers", "1")
        assert code == 0
        assert "invariant violations: none" in out
        assert "C3.3" in out

    def test_out_writes_lf_utf8(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--family",
            "Z6",
            "--format",
            "json",
            "--workers",
            "1",
            "--out",
            str(target),
        )
        assert code == 0 and out == ""
        raw = target.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")


class TestExportDot:
    def test_base_graph_path(self, capsys):
        code, out, _ = run_cli(
            capsys, "export-dot", "Z6", "--ideal", "zero", "--base"
        )
        assert code == 0
        assert out == (
            'graph {\n  "2";\n  "3";\n  "4";\n  "2" -- "3";\n  "3" -- "4";\n}\n'
        )

    def test_base_graph_needs_no_ideal(self, capsys):
        _, with_ideal, _ = run_cli(capsys, "export-dot", "Z6", "--ideal", "zero", "--base")
        code, out, _ = run_cli(capsys, "export-dot", "Z6", "--base")
        assert code == 0 and out == with_ideal

    def test_duplication_graph_needs_an_ideal(self, capsys):
        code, out, err = run_cli(capsys, "export-dot", "Z6")
        assert code == 2 and out == ""
        assert "--ideal" in err

    def test_full_duplication_of_z3_is_a_four_cycle(self, capsys):
        code, out, _ = run_cli(capsys, "export-dot", "Z3", "--ideal", "full")
        assert code == 0
        node_lines = [l for l in out.splitlines() if l.endswith('";') and " -- " not in l]
        edge_lines = [l for l in out.splitlines() if " -- " in l]
        assert len(node_lines) == 4 and len(edge_lines) == 4

    def test_seven_vertex_duplication(self, capsys):
        code, out, _ = run_cli(capsys, "export-dot", "Z8", "--ideal", "gen(4)")
        assert code == 0
        node_lines = [l for l in out.splitlines() if l.endswith('";') and "--" not in l]
        assert len(node_lines) == 7

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "export-dot", "Z8", "--ideal", "gen(4)")
        _, second, _ = run_cli(capsys, "export-dot", "Z8", "--ideal", "gen(4)")
        assert first == second
