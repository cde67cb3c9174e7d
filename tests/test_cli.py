import json
import os
import signal
import subprocess
import sys
from math import gcd

import pytest

import puregaps.cli as cli
import puregaps.engine as engine
import puregaps.harness as harness
import puregaps.lattice as lattice
from puregaps.engine import PureGapSet, assemble_pure_gaps, decompose
from puregaps.cli import main
from puregaps.errors import ConsistencyError, PeriodPropertyViolationError
from puregaps.gammafile import dump_gamma, load_gamma, parse_gamma
from puregaps.gk import gk_generating_set
from puregaps.kummer import kummer_generating_set
from puregaps.oracle import pure_gap_boxes_direct, pure_gaps_direct

import expected_gk2 as gk2
from reference import drop_first_point, short_of_first_point


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_fields(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("\t")
        out[key] = value
    return out


class TestGK:
    def test_summary(self, capsys):
        code, out, _ = run_cli(capsys, "gk", "--q", "2", "--emit", "summary")
        assert code == 0
        fields = summary_fields(out)
        assert fields["genus"] == "10"
        assert fields["period"] == "9"
        assert fields["cardinality"] == "35"
        assert fields["lower_bound"] == "11"
        assert fields["upper_bound"] == "47"
        assert fields["homma_kim_bound"] == "45"
        assert fields["row_sizes"] == "3,2,1"
        assert fields["verdict.closed_form_vs_enumeration"] == "pass"
        assert fields["verdict.engine_vs_oracle"] == "skipped"

    def test_puregaps_listing(self, capsys):
        code, out, _ = run_cli(capsys, "gk", "--q", "2", "--emit", "puregaps")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 35
        assert lines[0] == "1\t1"
        assert lines == [f"{a}\t{b}" for a, b in gk2.G0_SORTED]

    def test_puregaps_json_same_multiset(self, capsys):
        _, tsv, _ = run_cli(capsys, "gk", "--q", "2", "--emit", "puregaps")
        _, js, _ = run_cli(capsys, "gk", "--q", "2", "--emit", "puregaps",
                           "--format", "json")
        from_tsv = [tuple(map(int, line.split("\t")))
                    for line in tsv.splitlines()]
        from_json = [tuple(p) for p in json.loads(js)]
        assert from_tsv == from_json

    def test_summary_json(self, capsys):
        code, out, _ = run_cli(capsys, "gk", "--q", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["genus"] == 10
        assert obj["cardinality"] == 35
        assert obj["timings"] == {}

    def test_gamma_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gk", "--q", "2", "--emit", "gamma")
        assert code == 0
        path = tmp_path / "gk2.gamma"
        path.write_text(out, encoding="utf-8")
        code, generic_out, _ = run_cli(capsys, "generic", "--input", str(path),
                                       "--emit", "puregaps")
        assert code == 0
        _, gk_out, _ = run_cli(capsys, "gk", "--q", "2", "--emit", "puregaps")
        assert generic_out == gk_out

    def test_invalid_q(self, capsys):
        code, _, err = run_cli(capsys, "gk", "--q", "1")
        assert code == 2
        assert "q must be" in err


class TestKummer:
    def test_puregaps(self, capsys):
        code, out, _ = run_cli(capsys, "kummer", "--m", "4", "--r", "3",
                               "--emit", "puregaps")
        assert code == 0
        assert out.splitlines() == ["1\t1", "1\t2", "2\t1"]

    def test_summary_cardinality(self, capsys):
        code, out, _ = run_cli(capsys, "kummer", "--m", "4", "--r", "7")
        assert code == 0
        assert summary_fields(out)["cardinality"] == "29"

    def test_gcd_rejected(self, capsys):
        code, _, err = run_cli(capsys, "kummer", "--m", "4", "--r", "6")
        assert code == 2
        assert "coprime" in err


class TestGeneric:
    def test_summary_runs_oracle(self, capsys, tmp_path):
        path = tmp_path / "set.gamma"
        path.write_text("period 4\n1\t5\n5\t1\n2\t2\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "generic", "--input", str(path))
        assert code == 0
        fields = summary_fields(out)
        assert fields["verdict.engine_vs_oracle"] == "pass"
        assert fields["verdict.closed_form_vs_enumeration"] == "skipped"
        assert fields["cardinality"] == "3"

    def test_duplicate_beta_exit_2(self, capsys, tmp_path):
        path = tmp_path / "dup.gamma"
        path.write_text("period 9\n3\t3\n3\t5\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "generic", "--input", str(path))
        assert code == 2
        assert "DuplicateFirstCoordinate at line 3" in err

    def test_empty_set_period_1(self, capsys, tmp_path):
        path = tmp_path / "empty.gamma"
        path.write_text("period 1\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "generic", "--input", str(path))
        assert code == 0
        assert summary_fields(out)["cardinality"] == "0"

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "generic", "--input",
                               str(tmp_path / "none.gamma"))
        assert code == 2
        assert err

    @pytest.mark.parametrize("data, line", [
        (b"\xffperiod 3\n", 1), (b"period 4\n# caf\xe9\n1\t5\n", 2)],
        ids=["first-byte", "comment-on-line-2"])
    def test_non_utf8_file_exit_2(self, capsys, tmp_path, data, line):
        path = tmp_path / "bytes.gamma"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "generic", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: line {line}: not UTF-8 text")


    def test_gap_beyond_genus_bound_exit_2(self, capsys, tmp_path):
        # passes the period law, but 16 > 2g-1 = 7 puts a point in a box
        # the decomposition does not have
        path = tmp_path / "beyond.gamma"
        path.write_text("period 5\n3\t16\n8\t11\n13\t6\n18\t1\n",
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "generic", "--input", str(path),
                                 "--emit", "puregaps")
        assert code == 2
        assert out == ""
        assert "GapBeyondGenusBound" in err

    @pytest.mark.parametrize("emit", ["summary", "puregaps"])
    def test_residue_chain_start_exit_2(self, capsys, tmp_path, emit):
        # passes the period law and the 2g-1 bound, but the chains of
        # residues 1 and 2 start at 5 and 6, so the rows would weigh 12
        path = tmp_path / "p4.gamma"
        path.write_text("period 4\n" + "".join(f"{a}\t{b}\n" for a, b in (
            (3, 15), (5, 6), (6, 13), (7, 11), (9, 2), (10, 9), (11, 7),
            (14, 5), (15, 3), (18, 1))), encoding="utf-8")
        code, out, err = run_cli(capsys, "generic", "--input", str(path),
                                 "--emit", emit)
        assert code == 2
        assert out == ""
        assert "ResidueChainStartError: (5, 6)" in err
        assert "(point at line 3)" in err


class TestStream:
    """``--emit puregaps`` streams in chunks; the bytes must not depend on
    where the chunks end."""

    @pytest.fixture(scope="class")
    def kummer_41_60_direct(self):
        direct = pure_gaps_direct(kummer_generating_set(41, 60))
        assert len(direct) == 478960
        return direct

    def test_kummer_tsv_matches_oracle(self, capsys, kummer_41_60_direct):
        code, out, _ = run_cli(capsys, "kummer", "--m", "41", "--r", "60",
                               "--emit", "puregaps")
        assert code == 0
        assert out == "".join(f"{a}\t{b}\n" for a, b in kummer_41_60_direct)

    def test_kummer_json_matches_oracle(self, capsys, kummer_41_60_direct):
        code, out, _ = run_cli(capsys, "kummer", "--m", "41", "--r", "60",
                               "--emit", "puregaps", "--format", "json")
        assert code == 0
        assert out == "[" + ",".join(
            f"[{a},{b}]" for a, b in kummer_41_60_direct) + "]\n"

    # Non-diagonal sets: (7, 4) and (9, 3) have residues 2 and 4 but second
    # coordinates 4 and 3.  Each has a pure gap with second coordinate
    # 2g - 2, the largest a pure gap can have: a glb's second coordinate is
    # the smaller of two distinct ones, each at most 2g - 1.
    NON_DIAGONAL = {
        "nd5": ("period 5\n1\t1\n2\t9\n4\t8\n7\t4\n9\t3\n", (2, 8)),
        "nd7": ("period 7\n" + "".join(f"{a}\t{b}\n" for a, b in (
            (1, 31), (2, 30), (4, 5), (5, 6), (6, 22), (8, 24), (9, 23),
            (13, 15), (15, 17), (16, 16), (20, 8), (22, 10), (23, 9),
            (27, 1), (29, 3), (30, 2))), (1, 30)),
    }

    @pytest.mark.parametrize("name", sorted(NON_DIAGONAL))
    def test_non_diagonal_generic_matches_oracle(self, capsys, tmp_path,
                                                 name):
        text, top = self.NON_DIAGONAL[name]
        path = tmp_path / f"{name}.gamma"
        path.write_text(text, encoding="utf-8")
        gamma = load_gamma(str(path))
        direct = pure_gaps_direct(gamma)
        assert top in direct and top[1] == 2 * gamma.genus - 2
        code, tsv, _ = run_cli(capsys, "generic", "--input", str(path),
                               "--emit", "puregaps")
        assert code == 0
        assert tsv == "".join(f"{a}\t{b}\n" for a, b in direct)
        code, js, _ = run_cli(capsys, "generic", "--input", str(path),
                              "--emit", "puregaps", "--format", "json")
        assert code == 0
        assert js == "[" + ",".join(f"[{a},{b}]" for a, b in direct) + "]\n"

    @pytest.mark.parametrize("chunk", [1, 2, 7, 1 << 16])
    @pytest.mark.parametrize("source", ["gk3", "kummer7-5", "nd5", "nd7"])
    def test_chunk_end_moves(self, capsys, tmp_path, monkeypatch, chunk,
                             source):
        """A chunk may end after any point, the first one included, where
        the JSON listing drops its leading separator."""
        monkeypatch.setattr(engine, "_CHUNK_POINTS", chunk)
        if source in self.NON_DIAGONAL:
            path = tmp_path / f"{source}.gamma"
            path.write_text(self.NON_DIAGONAL[source][0], encoding="utf-8")
            argv = ["generic", "--input", str(path)]
            gamma = load_gamma(str(path))
        elif source == "gk3":
            argv = ["gk", "--q", "3"]
            gamma = gk_generating_set(3)
        else:
            argv = ["kummer", "--m", "7", "--r", "5"]
            gamma = kummer_generating_set(7, 5)
        direct = pure_gaps_direct(gamma)
        code, tsv, _ = run_cli(capsys, *argv, "--emit", "puregaps")
        assert code == 0
        assert tsv == "".join(f"{a}\t{b}\n" for a, b in direct)
        code, js, _ = run_cli(capsys, *argv, "--emit", "puregaps",
                              "--format", "json")
        assert code == 0
        assert js == "[" + ",".join(f"[{a},{b}]" for a, b in direct) + "]\n"

    def test_empty_g0(self, capsys, tmp_path):
        path = tmp_path / "empty.gamma"
        path.write_text("period 1\n", encoding="utf-8")
        code, tsv, _ = run_cli(capsys, "generic", "--input", str(path),
                               "--emit", "puregaps")
        assert (code, tsv) == (0, "")
        code, js, _ = run_cli(capsys, "generic", "--input", str(path),
                              "--emit", "puregaps", "--format", "json")
        assert (code, js) == (0, "[]\n")


class TestVerify:
    def test_small_grids_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "gk",
                               "--q-max", "3")
        assert code == 0
        assert "0 failures" in out

    def test_kummer_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "kummer",
                               "--max", "6", "--u-max", "1", "--r-max", "4")
        assert code == 0
        assert "0 failures" in out

    def test_special_ur1_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "kummer",
                               "--special", "ur1", "--u-max", "2",
                               "--r-max", "6")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(lines) == 2 * 5

    def test_special_qn_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "kummer",
                               "--special", "qn")
        assert code == 0
        assert "q=7,N=2" in out

    def test_unknown_point_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown point kind"):
            list(harness.map_points([("hermitian", {})]))

    @pytest.mark.parametrize("argv", [
        ("--family", "gk", "--q-max", "1"),
        ("--special", "ur1", "--u-max", "0")])
    def test_empty_grid_exit_2(self, capsys, argv):
        # a run that checked nothing must not report success
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestBench:
    def test_gk_small(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--family", "gk", "--q", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("family\t")
        methods = {line.split("\t")[3] for line in lines[1:]}
        assert methods == {"box-decomposition", "direct-glb"}
        assert all(line.endswith("yes") for line in lines[1:])

    def test_kummer_json(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--family", "kummer",
                               "--m", "4", "--r", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert {row["method"] for row in rows} == \
            {"box-decomposition", "direct-glb"}
        assert all(row["outputs_equal"] for row in rows)
        assert all(row["cardinality"] == 3 for row in rows)

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--family", "gk")
        assert code == 2
        assert "--q" in err

    def test_kummer_missing_r_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--family", "kummer",
                               "--m", "5")
        assert code == 2
        assert "--m and --r" in err


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("gk", "--q", "3", "--emit", "summary"),
        ("gk", "--q", "3", "--emit", "summary", "--format", "json"),
        ("gk", "--q", "3", "--emit", "puregaps"),
        ("gk", "--q", "3", "--emit", "gamma"),
        ("kummer", "--m", "5", "--r", "7", "--emit", "puregaps",
         "--format", "json"),
        ("kummer", "--m", "5", "--r", "7", "--emit", "gamma",
         "--format", "json"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "puregaps.cli", "gk", "--q", "2",
         "--emit", "puregaps"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 35


def test_usage_error_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "puregaps.cli", "gk"],
        capture_output=True, text=True)
    assert proc.returncode == 2


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"),
                    reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_quietly():
    """A reader that takes one line of a listing and closes the pipe, as
    ``| head -1`` does, ends the command by SIGPIPE with nothing on
    stderr.  The listing is far larger than a pipe buffer, so the command
    is still writing when the pipe closes."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "puregaps.cli", "gk", "--q", "5",
         "--emit", "puregaps"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"1\t1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


CAPPED_SHORT_ORACLE = """
import resource
cap = 384 << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import warnings
warnings.simplefilter("ignore")
import puregaps.harness as harness
from puregaps.gk import gk_generating_set
from reference import short_of_first_point
scan = harness.pure_gap_boxes_direct
harness.pure_gap_boxes_direct = lambda gamma: short_of_first_point(
    scan(gamma), gamma.period)
print(harness.summarize_generic(gk_generating_set(6), "gk6").detail)
"""


class TestFailingCrossCheck:
    """A failing engine-vs-oracle check must still explain itself."""

    @pytest.fixture
    def short_oracle(self, monkeypatch):
        # The oracle loses its lexicographically first point, so the engine
        # holds one extra.
        monkeypatch.setattr(
            harness, "pure_gap_boxes_direct", lambda gamma:
            short_of_first_point(pure_gap_boxes_direct(gamma), gamma.period))

    @staticmethod
    def assert_explains(report, gamma):
        dropped = pure_gaps_direct(gamma)[0]
        assert report.verdicts["engine_vs_oracle"] == "fail"
        assert not report.ok
        assert "engine_vs_oracle: G0:" in report.detail
        assert f"unexpected [{dropped}], missing []" in report.detail

    def test_verify_point(self, short_oracle):
        report = harness.verify_point("kummer", {"m": 5, "r": 7})
        self.assert_explains(report, kummer_generating_set(5, 7))

    def test_summarize_generic(self, short_oracle):
        gamma = kummer_generating_set(5, 7)
        self.assert_explains(harness.summarize_generic(gamma, "k57"), gamma)

    def test_cli_verify(self, capsys, short_oracle):
        code, out, _ = run_cli(capsys, "verify", "--family", "kummer",
                               "--max", "7")
        assert code == 1
        first = out.splitlines()[-1]
        assert first.startswith("# FIRST FAILURE kummer(m=2,r=5): ")
        dropped = pure_gaps_direct(kummer_generating_set(2, 5))[0]
        assert first.endswith(f"engine_vs_oracle: G0: 1 vs 0 points; "
                              f"unexpected [{dropped}], missing []")

    def test_bench(self, capsys, short_oracle):
        # bench compares by the engine_vs_oracle check and raises its text
        dropped = pure_gaps_direct(kummer_generating_set(5, 7))[0]
        with pytest.raises(ConsistencyError) as info:
            harness.bench_family("kummer", {"m": 5, "r": 7})
        text = str(info.value)
        assert text.startswith("engine_vs_oracle: G0: ")
        assert text.endswith(f"unexpected [{dropped}], missing []")
        code, out, err = run_cli(capsys, "bench", "--family", "kummer",
                                 "--m", "5", "--r", "7")
        assert (code, out) == (1, "")
        assert err == f"internal consistency failure: {text}\n"

    def test_large_set_under_address_space_cap(self):
        """The counterexample walks only the differing columns, so a
        failing check on GK q=6 (|G0| 4.6e6) explains itself in a process
        capped at 384 MiB of address space, where two |G0|-sized sets of
        point tuples would not fit."""
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("the platform has no address-space limit")
        with pytest.warns(UserWarning, match="not a prime power"):
            g0 = assemble_pure_gaps(decompose(gk_generating_set(6)))
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, tests, env.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", CAPPED_SHORT_ORACLE],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        first = tuple(map(int, next(g0.pieces()).split("\n", 1)[0].split()))
        assert done.stdout == (
            f"engine_vs_oracle: G0: {len(g0)} vs {len(g0) - 1} points; "
            f"unexpected [{first}], missing []\n")

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_cli_generic_summary(self, capsys, tmp_path, short_oracle, fmt):
        path = tmp_path / "k57.gamma"
        path.write_text(dump_gamma(kummer_generating_set(5, 7)),
                        encoding="utf-8")
        code, out, _ = run_cli(capsys, "generic", "--input", str(path),
                               "--format", fmt)
        assert code == 1
        verdicts = (json.loads(out)["verdicts"] if fmt == "json" else
                    {key[len("verdict."):]: value
                     for key, value in summary_fields(out).items()
                     if key.startswith("verdict.")})
        assert verdicts["engine_vs_oracle"] == "fail"


@pytest.mark.parametrize("argv", [("gk", "--q", "2"),
                                  ("kummer", "--m", "5", "--r", "7")])
def test_failed_family_summary_exit_1(capsys, monkeypatch, argv):
    # Bounds of zero fail the bound sandwich of every nonempty G0.
    monkeypatch.setattr(harness, "bounds",
                        lambda boxed: engine.Bounds(0, 0, 0))
    code, out, _ = run_cli(capsys, *argv, "--emit", "summary")
    assert code == 1
    assert summary_fields(out)["verdict.bound_sandwich"] == "fail"


class TestDroppedG3Point:
    """With the engine's G3 of box 1 short of a point, every path that
    checks the diagonal law names that box and the G4 half."""

    @pytest.fixture(autouse=True)
    def short_g3(self, monkeypatch):
        real = engine.compute_g3
        monkeypatch.setattr(
            engine, "compute_g3", lambda boxed, k, *state:
            drop_first_point(real(boxed, k, *state)) if k == 1
            else real(boxed, k, *state))

    @pytest.fixture
    def k57(self, tmp_path):
        path = tmp_path / "k57.gamma"
        path.write_text(dump_gamma(kummer_generating_set(5, 7)),
                        encoding="utf-8")
        return str(path)

    def test_generic_summary(self, capsys, k57):
        code, out, _ = run_cli(capsys, "generic", "--input", k57)
        assert code == 1
        fields = summary_fields(out)
        assert fields["verdict.engine_vs_oracle"] == "pass"
        assert fields["verdict.diagonal_reflection"] == "fail"
        assert fields["detail"].startswith("diagonal_reflection: box k=1: G4")

    def test_generic_puregaps(self, capsys, k57):
        code, out, err = run_cli(capsys, "generic", "--input", k57,
                                 "--emit", "puregaps")
        assert code == 1
        assert out == ""
        assert err.startswith("internal consistency failure: box k=1: G4")

    def test_verify_point(self):
        report = harness.verify_point("kummer", {"m": 5, "r": 7})
        assert report.verdicts["diagonal_reflection"] == "fail"
        assert "diagonal_reflection: box k=1: G4" in report.detail

    def test_verify_special_ur1(self):
        report = harness.verify_special_ur1(1, 5)
        assert not report.ok
        assert report.detail.startswith(
            "DiagonalReflectionMismatchError: box k=1: G4")


class TestEngineG2G4Faults:
    """A fault in the engine's G2 or G4 breaks the merge of the engine's
    four components into the box of its G0, which the family check runs
    first, and the diagonal law: families supply only G1 and G3, and
    ``verify`` still fails such a fault on both verdicts."""

    @pytest.fixture(params=[("gk", {"q": 3}), ("kummer", {"m": 7, "r": 5})],
                    ids=["gk", "kummer"])
    def point(self, request):
        return request.param

    def assert_fails(self, point, law):
        family, params = point
        report = harness.verify_point(family, params)
        assert report.verdicts["components_vs_generic"] == "fail"
        assert report.verdicts["diagonal_reflection"] == "fail"
        assert ("components_vs_generic: k=1: G1..G4 merged at residue "
                in report.detail)
        assert f"diagonal_reflection: box k=1: {law}" in report.detail

    def test_point_dropped_from_g4(self, monkeypatch, point):
        real = engine.compute_g4
        monkeypatch.setattr(
            engine, "compute_g4", lambda boxed, k, *state:
            drop_first_point(real(boxed, k, *state)) if k == 1
            else real(boxed, k, *state))
        self.assert_fails(point, "G4 has ")

    def test_point_added_to_g2(self, monkeypatch, point):
        # G2 of box 1 gains the first point of G1, which the merge then
        # holds twice
        real = engine.compute_g2

        def g2(boxed, k):
            if k != 1:
                return real(boxed, k)
            g1 = engine.compute_g1(boxed, k, dict(engine._sweep(boxed))[k])
            r = min(g1)
            return {r: g1[r] & -g1[r]}
        monkeypatch.setattr(engine, "compute_g2", g2)
        self.assert_fails(point, "G2 is not empty")


class TestFamilySetFaults:
    """A point short in a family's row, G1 or G3, or one extra in its G1,
    fails ``components_vs_generic``, naming the box, the set and both
    sizes."""

    @pytest.mark.parametrize("family, params", [
        ("gk", {"q": 3}), ("kummer", {"m": 7, "r": 5})], ids=["gk", "kummer"])
    @pytest.mark.parametrize("index, name, delta", [
        (0, "Gamma_k0", -1), (1, "G1", -1), (2, "G3", -1), (1, "G1", 1)],
        ids=["0-Gamma_k0", "1-G1", "2-G3", "1-G1-extra"])
    def test_dropped_point_fails(self, monkeypatch, family, params, index,
                                 name, delta):
        module = harness.FAMILIES[family][0]
        func = f"{family}_components"
        per_box = getattr(module, func)(*params.values())
        k = min(k for k, sets in per_box.items() if sets[index])
        sets = list(per_box[k])
        if index == 0:
            size = len(sets[0])
            sets[0] = sets[0][1:]
        else:
            columns = sets[index]
            size = sum(map(int.bit_count, columns.values()))
            if delta < 0:
                sets[index] = drop_first_point(columns)
            else:
                # the least second coordinate above 0 that the column lacks
                r = min(columns)
                held = columns[r] | 1
                sets[index] = {**columns, r: columns[r] | (held + 1) & ~held}
        monkeypatch.setattr(module, func,
                            lambda *args: {**per_box, k: tuple(sets)})

        report = harness.verify_point(family, params)
        assert report.verdicts["components_vs_generic"] == "fail"
        assert (f"components_vs_generic: k={k}: explicit {name} has "
                f"{size + delta} points, engine has {size}") in report.detail


class TestFamilyProtocol:
    """A family module gives data through three functions and no checker;
    its components cover every nonempty row of the engine."""

    def test_three_functions(self):
        for family, (module, _) in harness.FAMILIES.items():
            for name in ("generating_set", "card_g0", "components"):
                assert callable(getattr(module, f"{family}_{name}"))
            assert not hasattr(module, "verify_against_engine")

    def test_components_cover_the_rows(self):
        points = [("gk", {"q": q}) for q in range(2, 6)]
        points += [("kummer", {"m": m, "r": r}) for m in range(2, 16)
                   for r in range(2, 16) if gcd(m, r) == 1]
        for family, params in points:
            boxed = decompose(
                harness.call_family(family, "{}_generating_set", params))
            per_box = harness.call_family(family, "{}_components", params)
            assert boxed.rows.keys() <= per_box.keys(), (family, params)


class TestSummariesNeverListG0:
    """Summaries and the special checks compare G0 box by box and count it;
    they never list it."""

    @pytest.fixture(autouse=True)
    def no_listing(self, monkeypatch):
        def listed(*args, **kwargs):
            raise AssertionError("G0 was listed")
        monkeypatch.setattr(PureGapSet, "pieces", listed)

    @pytest.mark.parametrize("family, params", [
        ("gk", {"q": 3}), ("kummer", {"m": 13, "r": 11})])
    def test_summarize_family(self, family, params):
        report = harness.summarize_family(family, params)
        assert report.ok
        assert report.verdicts["closed_form_vs_enumeration"] == "pass"

    def test_verify_special_ur1(self):
        report = harness.verify_special_ur1(1, 5)
        assert report.ok
        assert report.verdicts["special_vs_enumeration"] == "pass"


class TestSummaryBuildsNoComponents:
    """A family summary builds the engine's G0 by column alone: no family
    component and no glb component of the engine."""

    @pytest.fixture(autouse=True)
    def no_components(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("a component was built")
        for family, (module, _) in harness.FAMILIES.items():
            for name in ("components", "gamma_k0", "g1", "g3"):
                monkeypatch.setattr(module, f"{family}_{name}", built)
        for name in ("components_by_box", "compute_g1", "compute_g2",
                     "compute_g3", "compute_g4"):
            for namespace in (engine, harness):
                monkeypatch.setattr(namespace, name, built, raising=False)

    @pytest.mark.parametrize("family, params", [
        ("gk", {"q": 4}), ("kummer", {"m": 13, "r": 11})])
    def test_summarize_family(self, family, params):
        report = harness.summarize_family(family, params)
        assert report.ok
        assert report.verdicts == {
            "engine_vs_oracle": "skipped",
            "closed_form_vs_enumeration": "pass",
            "components_vs_generic": "skipped",
            "bound_sandwich": "pass",
            "diagonal_reflection": "skipped"}


class TestDiagonalLawBuildsNoG1:
    """The diagonal law reads G2, G3 and G4 only: where it builds the
    engine's components itself (the special-case checks, and ``generic``
    on a diagonal set), no G1 is built."""

    @pytest.fixture(autouse=True)
    def no_g1(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("G1 was built")
        monkeypatch.setattr(engine, "compute_g1", built)

    @pytest.fixture
    def k75(self, tmp_path):
        path = tmp_path / "k75.gamma"
        path.write_text(dump_gamma(kummer_generating_set(7, 5)),
                        encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("check, args", [
        (harness.verify_special_ur1, (1, 5)),
        (harness.verify_special_qn, (7, 2))], ids=["ur1", "qn"])
    def test_special(self, check, args):
        report = check(*args)
        assert report.ok, report.detail
        assert report.verdicts["special_vs_enumeration"] == "pass"

    def test_generic_summary(self, capsys, k75):
        code, out, _ = run_cli(capsys, "generic", "--input", k75)
        assert code == 0
        fields = summary_fields(out)
        assert fields["verdict.diagonal_reflection"] == "pass"
        assert fields["verdict.engine_vs_oracle"] == "pass"

    def test_generic_puregaps(self, capsys, k75):
        code, out, err = run_cli(capsys, "generic", "--input", k75,
                                 "--emit", "puregaps")
        assert (code, err) == (0, "")
        assert out == "".join(
            f"{a}\t{b}\n"
            for a, b in pure_gaps_direct(kummer_generating_set(7, 5)))


class TestListingBuildsNoPointTuples:
    """``--emit puregaps`` builds G0 by column and writes the text of
    :meth:`PureGapSet.pieces`: no component tuples, no per-box merge of
    them."""

    @pytest.fixture(autouse=True)
    def no_tuples(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("a tuple per pure gap was built")
        for name in ("components_by_box", "compute_g1", "compute_g2",
                     "compute_g3", "compute_g4"):
            monkeypatch.setattr(engine, name, built)
        real = PureGapSet.pieces
        listings = []

        def pieces(g0, fmt="tsv"):
            listings.append(fmt)
            return real(g0, fmt)
        monkeypatch.setattr(PureGapSet, "pieces", pieces)
        return listings

    def test_gk3_listing(self, capsys, no_tuples):
        want = "".join(f"{a}\t{b}\n"
                       for a, b in pure_gaps_direct(gk_generating_set(3)))
        code, out, _ = run_cli(capsys, "gk", "--q", "3", "--emit", "puregaps")
        assert code == 0
        assert out == want
        assert no_tuples == ["tsv"]


class TestVerifyPointWork:
    """verify_point generates the set once, builds the engine's G0 once,
    in one sweep of its boxes, and each box's components once, shared by
    the family's cross-check against the engine and the diagonal law."""

    @pytest.mark.parametrize("family, params", [
        ("gk", {"q": 3}), ("kummer", {"m": 7, "r": 5})])
    def test_generates_once(self, monkeypatch, family, params):
        module = harness.FAMILIES[family][0]
        name = f"{family}_generating_set"
        real = getattr(module, name)
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(module, name, counted)
        built = {}

        def counter(name, real):
            def counted(boxed, k, *state):
                built.setdefault(name, []).append(k)
                return real(boxed, k, *state)
            return counted
        for func in ("compute_g1", "compute_g2", "compute_g3", "compute_g4"):
            monkeypatch.setattr(engine, func, counter(
                func, getattr(engine, func)))
        swept = []
        sweep = harness.components_by_box
        monkeypatch.setattr(harness, "components_by_box", lambda boxed:
                            swept.append(boxed) or sweep(boxed))
        assembled = []
        assemble = harness.assemble_pure_gaps
        monkeypatch.setattr(harness, "assemble_pure_gaps", lambda boxed:
                            assembled.append(boxed) or assemble(boxed))

        report = harness.verify_point(family, params)
        assert report.ok
        assert len(calls) == 1
        # G0 is built once, all its boxes in one sweep, not box by box;
        # the components too, box by box down from the top box
        assert len(assembled) == 1
        assert len(swept) == 1
        kmax = engine.decompose(real(*params.values())).kmax
        assert built == {name: list(reversed(range(kmax))) for name in (
            "compute_g1", "compute_g2", "compute_g3", "compute_g4")}

    @pytest.mark.parametrize("family, params", [
        ("gk", {"q": 3}), ("kummer", {"m": 7, "r": 5})])
    def test_family_components_once(self, monkeypatch, family, params):
        # one build feeds the family's one check, its boxes against the
        # engine's
        module = harness.FAMILIES[family][0]
        boxes = {}

        def counter(name):
            real = getattr(module, name)

            def counted(*args):
                boxes.setdefault(name, []).append(args[-1])
                return real(*args)
            monkeypatch.setattr(module, name, counted)
        for name in ("gamma_k0", "g1", "g3"):
            counter(f"{family}_{name}")

        report = harness.verify_point(family, params)
        assert report.ok
        kmax = engine.decompose(
            harness.call_family(family, "{}_generating_set", params)).kmax
        assert boxes == {f"{family}_{name}": list(range(kmax))
                         for name in ("gamma_k0", "g1", "g3")}


SERIAL_PROBE = """
import sys
from puregaps.cli import main
code = main(["verify", "--family", "gk", "--q-max", "3"])
print("# loaded", sorted({"concurrent.futures", "multiprocessing"}
                         & sys.modules.keys()))
sys.exit(code)
"""


def test_verify_writes_each_row_as_its_point_finishes(capsys, monkeypatch):
    """``verify`` writes a point's row before the next point runs, so a
    reader sees rows as they come."""
    real = harness.verify_point
    written = []

    def recording(family, params):
        written.append((params["q"], capsys.readouterr().out))
        return real(family, params)
    monkeypatch.setattr(harness, "verify_point", recording)
    code, rest, _ = run_cli(capsys, "verify", "--family", "gk",
                            "--q-max", "3")
    assert code == 0
    (q2, before2), (q3, before3) = written
    assert (q2, before2, q3) == (2, "", 3)
    assert before3.startswith("gk\tq=2\tgenus=10\tg0=35\t")
    assert before3.count("\n") == 1
    assert rest.startswith("gk\tq=3\t")
    assert rest.endswith("# verified 2 parameter points, 0 failures\n")


def test_verify_is_serial_whatever_the_environment(capsys):
    """A fresh interpreter with ``PUREGAPS_THREADS=2`` set runs a verify
    grid without loading a process pool, and prints the rows of a run in
    this process, timings aside."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PUREGAPS_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", SERIAL_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    *fresh, loaded = done.stdout.splitlines()
    assert loaded == "# loaded []"
    code, here, _ = run_cli(capsys, "verify", "--family", "gk",
                            "--q-max", "3")
    assert code == 0

    def rows(lines):
        return [line.split("\t")[:5] for line in lines]

    assert rows(fresh) == rows(here.splitlines())


FAMILY_SUMMARY = [("engine_vs_oracle", "skipped"),
                  ("closed_form_vs_enumeration", "pass"),
                  ("components_vs_generic", "skipped"),
                  ("bound_sandwich", "pass"),
                  ("diagonal_reflection", "skipped")]


def tsv_verdicts(text):
    return [(key[len("verdict."):], value)
            for key, value in (line.split("\t") for line in text.splitlines())
            if key.startswith("verdict.")]


class TestVerdictTable:
    """Every report lists the verdicts of one table, in table order, each
    ``skipped`` unless its route runs it.  The genus identity and the
    period law are enforced before any verdict is recorded, so neither is
    a verdict."""

    @pytest.mark.parametrize("argv", [("gk", "--q", "2"),
                                      ("kummer", "--m", "5", "--r", "7")])
    def test_family_summary(self, capsys, argv):
        code, tsv, _ = run_cli(capsys, *argv)
        assert code == 0
        assert tsv_verdicts(tsv) == FAMILY_SUMMARY
        code, js, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert list(json.loads(js)["verdicts"].items()) == FAMILY_SUMMARY

    @pytest.mark.parametrize("text, diagonal", [
        (dump_gamma(kummer_generating_set(5, 7)), "pass"),
        (TestStream.NON_DIAGONAL["nd5"][0], "skipped")],
        ids=["diagonal", "non-diagonal"])
    def test_generic_summary(self, capsys, tmp_path, text, diagonal):
        path = tmp_path / "set.gamma"
        path.write_text(text, encoding="utf-8")
        want = [("engine_vs_oracle", "pass"),
                ("closed_form_vs_enumeration", "skipped"),
                ("components_vs_generic", "skipped"),
                ("bound_sandwich", "pass"),
                ("diagonal_reflection", diagonal)]
        code, tsv, _ = run_cli(capsys, "generic", "--input", str(path))
        assert code == 0
        assert tsv_verdicts(tsv) == want
        code, js, _ = run_cli(capsys, "generic", "--input", str(path),
                              "--format", "json")
        assert code == 0
        assert list(json.loads(js)["verdicts"].items()) == want

    def test_verify_row(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "gk",
                               "--q-max", "2")
        assert code == 0
        assert out.splitlines()[0].split("\t")[4] == (
            "engine_vs_oracle=pass,closed_form_vs_enumeration=pass,"
            "components_vs_generic=pass,bound_sandwich=pass,"
            "diagonal_reflection=pass")

    def test_failed_report(self, monkeypatch):
        def broken(gamma):
            raise ConsistencyError("boom")
        monkeypatch.setattr(harness, "decompose", broken)
        report = harness.verify_point("gk", {"q": 2})
        assert list(report.verdicts.items()) == [
            (key, "skipped") for key, _ in FAMILY_SUMMARY] + [
            ("internal_consistency", "fail")]
        assert report.detail == "ConsistencyError: boom"

    @pytest.mark.parametrize("u, keys", [
        (1, ["special_vs_enumeration", "upper_bound_sharp"]),
        (2, ["special_vs_enumeration"])])
    def test_special_ur1(self, u, keys):
        report = harness.verify_special_ur1(u, 5)
        assert list(report.verdicts.items()) == [(k, "pass") for k in keys]

    def test_special_qn(self):
        report = harness.verify_special_qn(7, 2)
        assert list(report.verdicts.items()) == [
            ("special_vs_enumeration", "pass")]

    @pytest.mark.parametrize("u, keys", [
        (1, ["special_vs_enumeration", "upper_bound_sharp"]),
        (2, ["special_vs_enumeration"])])
    def test_failed_special_ur1(self, monkeypatch, u, keys):
        # a failed special point lists the special route's own checks,
        # not the family verdicts it never runs
        def broken(boxed):
            raise ConsistencyError("boom")
        monkeypatch.setattr(harness, "check_reflection", broken)
        report = harness.verify_special_ur1(u, 5)
        assert not report.ok
        assert list(report.verdicts.items()) == [
            (k, "skipped") for k in keys] + [("internal_consistency", "fail")]
        assert report.detail == "ConsistencyError: boom"


class TestPeriodLawChecks:
    """The period law is walked only to name a breach: a valid set is
    checked by its chain levels, never by a law walk, and a validated set
    is never checked again."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        real = lattice.period_law_violations

        def counted(period, items):
            calls.append(period)
            return real(period, items)
        for name, module in list(sys.modules.items()):
            if name.startswith("puregaps") and \
                    hasattr(module, "period_law_violations"):
                monkeypatch.setattr(module, "period_law_violations", counted)
        return calls

    @pytest.mark.parametrize("family, params", [
        ("gk", {"q": 3}), ("kummer", {"m": 7, "r": 5})])
    def test_verify_point_validates_once(self, passes, family, params):
        report = harness.verify_point(family, params)
        assert report.ok
        assert passes == []

    def test_summarize_generic_checks_none(self, passes):
        """The canonical nd7 text takes the chain read and, with a comment
        line, the line path, whose validation checks the chain levels:
        neither walks the law, and neither does the summary."""
        text = TestStream.NON_DIAGONAL["nd7"][0]
        for comment in ("", "# a comment\n"):
            gamma = parse_gamma(comment + text)
            assert passes == []
            report = harness.summarize_generic(gamma, "nd7")
            assert report.ok
            assert passes == []

    def test_a_breach_walks_the_law_once(self, passes):
        """nd7 with the image of 4 moved up by the period breaks the law,
        and validation walks it once, to name the breach."""
        tau = dict(parse_gamma(TestStream.NON_DIAGONAL["nd7"][0]).points)
        tau[4] += 7
        with pytest.raises(PeriodPropertyViolationError) as err:
            lattice.validate_generating_set(tau.items(), 7)
        assert err.value.beta == 4
        assert passes == [7]


def test_family_flags_follow_the_table(monkeypatch):
    """A family in ``harness.FAMILIES`` gets its subcommand, its required
    flags, its ``bench`` flags and its ``verify --family`` choice."""
    monkeypatch.setitem(harness.FAMILIES, "toy", (None, ("m", "s")))
    parser = cli._build_parser()
    args = parser.parse_args(["toy", "--m", "3", "--s", "4"])
    assert (args.func, args.m, args.s) == (cli._cmd_family, 3, 4)
    with pytest.raises(SystemExit):
        parser.parse_args(["toy", "--m", "3"])
    args = parser.parse_args(["bench", "--family", "toy", "--m", "3",
                              "--s", "4"])
    assert cli._family_params(args, "toy") == {"m": 3, "s": 4}
    assert parser.parse_args(["verify", "--family", "toy"]).family == "toy"
