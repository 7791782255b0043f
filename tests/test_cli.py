import dataclasses
import json
import pathlib

import numpy as np
import pytest

from dfsqft import Circuit, parse_circuit, print_circuit, synth_qft, synth_qft_scd, synth_qft_wcd
from dfsqft import cli, verify
from dfsqft.cli import main
from dfsqft.verify import SUITES

from conftest import GOLDEN_DIR


def run_cli(*argv):
    return main(list(argv))


class TestSynth:
    def test_plain_gate_count(self, tmp_path):
        out = tmp_path / "plain3.txt"
        assert run_cli("synth", "plain", "3", "--out", str(out)) == 0
        assert len(parse_circuit(out.read_text()).gates) == 6

    def test_wcd_gate_count(self, tmp_path):
        out = tmp_path / "wcd3.txt"
        assert run_cli("synth", "wcd", "3", "--out", str(out)) == 0
        circuit = parse_circuit(out.read_text())
        assert len(circuit.gates) == 24
        assert circuit == synth_qft_wcd(3)

    def test_scd_gate_count(self, tmp_path):
        out = tmp_path / "scd1.txt"
        assert run_cli("synth", "scd", "1", "--out", str(out)) == 0
        circuit = parse_circuit(out.read_text())
        assert len(circuit.gates) == 29
        assert circuit == synth_qft_scd(1)

    @pytest.mark.parametrize("encoding,n", [
        *(("plain", n) for n in range(1, 15)),
        *(("wcd", n) for n in range(1, 7)),
        *(("scd", n) for n in range(1, 4)),
    ])
    def test_every_size_matches_library(self, encoding, n, capsys):
        library = {"plain": synth_qft, "wcd": synth_qft_wcd, "scd": synth_qft_scd}[encoding]
        assert run_cli("synth", encoding, str(n)) == 0
        assert capsys.readouterr().out == print_circuit(library(n))

    def test_stdout_default(self, capsys):
        assert run_cli("synth", "plain", "1") == 0
        assert capsys.readouterr().out == "qubits 1\nH 1\n"

    def test_matches_golden(self, tmp_path):
        out = tmp_path / "wcd2.txt"
        run_cli("synth", "wcd", "2", "--out", str(out))
        golden = (pathlib.Path(GOLDEN_DIR) / "qft_wcd_2.txt").read_text(encoding="utf-8")
        assert out.read_text() == golden

    def test_range_violation_exits_1(self, capsys):
        assert run_cli("synth", "scd", "4") == 1
        assert "1..3" in capsys.readouterr().err

    def test_bad_encoding_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("synth", "weird", "1")
        assert excinfo.value.code == 2

    def test_takes_no_config_file(self, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text("n=2\n")
        with pytest.raises(SystemExit) as excinfo:
            run_cli("synth", "plain", "1", "--config", str(config))
        assert excinfo.value.code == 2


_PLAIN_CHECKS = [
    ("qft_unitarity", 1e-10), ("qft_vs_dft_up_to_phase", 1e-10), ("gate_count", 0.0),
    ("roundtrip", 0.0),
]
_ENCODED_QFT_CHECKS = [
    ("encoded_qft_restriction_vs_dft_up_to_phase", 1e-10),
    ("encoded_qft_restriction_vs_plain_qft", 1e-10), ("encoded_qft_leakage", 1e-10),
]
_WCD_1_CHECKS = [
    ("logical_hadamard_action", 1e-10), ("logical_hadamard_leakage", 1e-10),
    *_ENCODED_QFT_CHECKS, ("logical_state_noise_invariance", 1e-12),
]
_WCD_CHECKS = [
    ("logical_hadamard_action", 1e-10), ("logical_hadamard_leakage", 1e-10),
    ("logical_phase_action", 1e-10), ("logical_phase_leakage", 1e-10),
    *_ENCODED_QFT_CHECKS, ("logical_state_noise_invariance", 1e-12),
]
_SCD_CHECKS = [
    ("logical_states_orthonormal", 1e-12), ("logical_states_annihilated", 1e-10),
    ("logical_gates_fallback", 1e-10), ("logical_gates_sequence", 1e-10),
    ("sequence_vs_fallback_restrictions", 1e-10), *_ENCODED_QFT_CHECKS,
    ("logical_state_noise_invariance", 1e-10),
]
# The ordered (name, tolerance) checks of each (encoding, n).
VERIFY_INVENTORY = {
    **{("plain", n): _PLAIN_CHECKS for n in range(1, 11)},
    ("wcd", 1): _WCD_1_CHECKS,
    **{("wcd", n): _WCD_CHECKS for n in range(2, 7)},
    **{("scd", n): _SCD_CHECKS for n in range(1, 4)},
}
# Every (encoding, n) that verify accepts: a cap raised without inventory
# entries fails test_passes.
VERIFY_CASES = [(encoding, n) for encoding, (max_n, _) in SUITES.items()
                for n in range(1, max_n + 1)]


class TestVerify:
    @pytest.mark.parametrize("encoding,n", VERIFY_CASES)
    def test_passes(self, encoding, n, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli("verify", encoding, str(n), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "dfsqft/1"
        assert report["passed"] is True
        assert all(c["pass"] is True for c in report["checks"])
        assert max(c["deviation"] for c in report["checks"]) < 1e-10
        assert {"version", "config", "seed", "duration_s"} <= report.keys()
        inventory = [(c["name"], c["tolerance"]) for c in report["checks"]]
        assert inventory == VERIFY_INVENTORY[encoding, n]

    def test_plain_cap_is_the_dense_operator_cap(self, capsys):
        # plain verify lowers the register to one dense unitary, so
        # statevector.MAX_DENSE_OPERATOR_QUBITS is its cap
        assert run_cli("verify", "plain", "11") == 1
        assert capsys.readouterr().err == "error: plain supports n in 1..10, got 11\n"

    def test_plain_single_qubit_is_hadamard_check(self, capsys):
        assert run_cli("verify", "plain", "1") == 0
        report = json.loads(capsys.readouterr().out)
        names = {c["name"] for c in report["checks"]}
        assert "qft_vs_dft_up_to_phase" in names
        assert report["output_order"] == "identity"

    def test_wrong_plain_qft_is_a_failing_check(self, monkeypatch, capsys):
        # a wrong circuit must fail qft_vs_dft_up_to_phase, not crash the run
        def wrong_qft(n):
            gates = list(synth_qft(n).gates)
            last = max(i for i, g in enumerate(gates) if g.angle is not None)
            gates[last] = dataclasses.replace(gates[last], angle=-gates[last].angle)
            return Circuit(n, tuple(gates))

        monkeypatch.setattr(verify, "synth_qft", wrong_qft)
        assert run_cli("verify", "plain", "3") == 1
        assert capsys.readouterr().err == (
            "FAIL: qft_vs_dft_up_to_phase deviation 5.000e-01 exceeds 1.0e-10\n")

    @pytest.mark.parametrize("encoding,extra", [
        ("plain", {"output_order"}), ("wcd", {"output_order"}), ("scd", set()),
    ])
    def test_report_keys(self, encoding, extra, capsys):
        # the scd report carries no extra field: its block transform has one
        # fixed lowering, checked by logical_gates_sequence
        assert run_cli("verify", encoding, "2") == 0
        report = json.loads(capsys.readouterr().out)
        assert report.keys() == {"schema", "version", "command", "config", "seed",
                                 "duration_s", "checks", "passed"} | extra

    def test_csv_format(self, capsys):
        assert run_cli("verify", "plain", "2", "--format", "csv") == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "name,tolerance,deviation,pass"
        assert all(line.endswith(("True", "False")) for line in lines[1:])

    def test_range_violation(self, capsys):
        assert run_cli("verify", "wcd", "7") == 1


class TestNoiseBench:
    def test_headline_protection(self, tmp_path):
        out = tmp_path / "bench"
        assert (
            run_cli(
                "noise-bench", "--encoding", "wcd", "--n", "2",
                "--trials", "200", "--seed", "7", "--out", str(out),
            )
            == 0
        )
        report = json.loads((tmp_path / "bench.json").read_text())
        assert report["arms"]["encoded"]["mean_fidelity"] >= 1.0 - 1e-10
        assert report["arms"]["unencoded"]["mean_fidelity"] < 0.99
        assert report["arms"]["encoded"]["mean_leakage"] < 1e-10
        assert report["arms"]["unencoded"]["mean_leakage"] is None

    def test_zero_noise_both_arms_perfect(self, tmp_path):
        out = tmp_path / "quiet"
        run_cli(
            "noise-bench", "--encoding", "wcd", "--n", "1", "--trials", "1",
            "--distribution", "gaussian", "--sigma", "0", "--out", str(out),
        )
        report = json.loads((tmp_path / "quiet.json").read_text())
        for arm in ("encoded", "unencoded"):
            assert 1.0 - report["arms"][arm]["mean_fidelity"] < 1e-10

    def test_csv_determinism(self, tmp_path):
        args = ("noise-bench", "--encoding", "scd", "--n", "1", "--trials", "25", "--seed", "3")
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_csv_shape(self, tmp_path):
        run_cli(
            "noise-bench", "--encoding", "wcd", "--n", "1", "--trials", "4",
            "--seed", "1", "--out", str(tmp_path / "r"),
        )
        lines = (tmp_path / "r.csv").read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]
        assert comments and "schema=dfsqft/1" in comments[0]
        assert rows[0] == "arm,trial,fidelity,leakage"
        assert len(rows) == 1 + 2 * 4  # header + two arms x trials
        assert rows[1].startswith("encoded,0,")

    # seeded CSVs captured from the copying gate kernel and one default_rng per run
    GOLDEN_CSVS = {
        "noise_wcd2_elementary_gaussian": "--encoding wcd --n 2 --policy elementary "
                                          "--distribution gaussian --sigma 0.3 --seed 11",
        "noise_scd1_elementary_uniform": "--encoding scd --n 1 --policy elementary --seed 5",
        # the plain arm is a one-qubit register
        "noise_wcd1_endpoints": "--encoding wcd --n 1 --policy endpoints --seed 3",
        # a seed of two uint32 words
        "noise_wcd3_block_seed2p40": "--encoding wcd --n 3 --policy block --seed 1099511627783",
    }

    @pytest.mark.parametrize("name", GOLDEN_CSVS)
    def test_seeded_csv_matches_golden(self, name, capsys):
        flags = self.GOLDEN_CSVS[name].split()
        assert run_cli("noise-bench", *flags, "--trials", "40", "--format", "csv") == 0
        golden = (pathlib.Path(GOLDEN_DIR) / f"{name}.csv").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_missing_required_options(self, capsys):
        assert run_cli("noise-bench", "--n", "2") == 1
        assert "encoding" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text("encoding=wcd\nn=1\ntrials=3\nseed=5\npolicy=endpoints\n")
        out = tmp_path / "cfg"
        assert run_cli("noise-bench", "--config", str(config), "--trials", "6",
                       "--out", str(out)) == 0
        report = json.loads((tmp_path / "cfg.json").read_text())
        assert report["config"]["trials"] == 6  # flag wins
        assert report["config"]["encoding"] == "wcd"
        assert report["config"]["policy"] == "endpoints_only"
        assert report["seed"] == 5

    def test_env_seed_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DFSQFT_SEED", "41")
        run_cli("noise-bench", "--encoding", "wcd", "--n", "1", "--trials", "2",
                "--out", str(tmp_path / "env"))
        report = json.loads((tmp_path / "env.json").read_text())
        assert report["seed"] == 41

    def test_stdout_json_default(self, capsys):
        assert run_cli("noise-bench", "--encoding", "wcd", "--n", "1", "--trials", "2") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "noise-bench"

    @pytest.mark.parametrize(
        "flags,config,env_seed",
        [
            (("--trials", "0"), None, None),
            (("--sigma", "-1", "--distribution", "gaussian"), None, None),
            ((), "trials=abc\n", None),
            ((), "distribution=foo\n", None),
            ((), None, "xyz"),
        ],
        ids=["trials-zero", "negative-sigma", "config-trials-abc", "config-distribution-foo",
             "env-seed-xyz"],
    )
    def test_bad_input_is_one_line_error(self, tmp_path, monkeypatch, capsys, flags, config,
                                         env_seed):
        argv = ["noise-bench", "--encoding", "wcd", "--n", "1", *flags]
        if config is not None:
            path = tmp_path / "bad.cfg"
            path.write_text(config)
            argv += ["--config", str(path)]
        if env_seed is None:
            monkeypatch.delenv("DFSQFT_SEED", raising=False)
        else:
            monkeypatch.setenv("DFSQFT_SEED", env_seed)
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_range_violation(self, capsys):
        assert run_cli("noise-bench", "--encoding", "wcd", "--n", "7") == 1
        assert capsys.readouterr().err == "error: wcd supports n in 1..6, got 7\n"

    def test_scd_range_violation(self, capsys):
        assert run_cli("noise-bench", "--encoding", "scd", "--n", "4") == 1
        assert capsys.readouterr().err == "error: scd supports n in 1..3, got 4\n"

    @pytest.mark.parametrize(
        "config,message",
        [
            ("encoding=plain\nn=1\n", "error: unknown encoding 'plain'\n"),
            ("policy=bogus\n", "error: policy must be one of "
                               "['block', 'elementary', 'endpoints'], got 'bogus'\n"),
        ],
        ids=["encoding-plain", "policy-bogus"],
    )
    def test_config_only_value_is_refused(self, tmp_path, capsys, config, message):
        # argparse's choices never see a value that only the config file gives
        path = tmp_path / "bench.cfg"
        path.write_text(config)
        argv = ["noise-bench", "--config", str(path)]
        if "encoding" not in config:
            argv += ["--encoding", "wcd", "--n", "1"]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    @pytest.mark.parametrize("encoding,n", [("wcd", 6), ("scd", 3)])
    def test_block_protection_on_twelve_qubits(self, encoding, n, capsys):
        # noise-bench reaches the largest encoded size that synth and verify take
        assert run_cli("noise-bench", "--encoding", encoding, "--n", str(n), "--policy", "block",
                       "--trials", "4", "--seed", "5") == 0
        encoded = json.loads(capsys.readouterr().out)["arms"]["encoded"]
        assert encoded["mean_fidelity"] >= 1.0 - 1e-10
        assert encoded["min_fidelity"] >= 1.0 - 1e-10
        assert encoded["mean_leakage"] <= 1e-10

    def test_overflowing_sigma_is_one_line_error(self, capsys):
        assert run_cli("noise-bench", "--encoding", "wcd", "--n", "1", "--trials", "1",
                       "--distribution", "gaussian", "--sigma", "1e200") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sigma 1e+200 is too large: the noise angles overflow\n"

    def test_impossible_trial_count_is_one_line_error(self, capsys):
        # numpy refuses the per-trial array before allocating anything
        assert run_cli("noise-bench", "--encoding", "wcd", "--n", "2", "--policy", "block",
                       "--trials", "99999999999999999999") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot run 99999999999999999999 trials: ")
        assert captured.err.count("\n") == 1


class TestVerifySeed:
    @pytest.mark.parametrize(
        "flags,config,env_seed",
        [(("--seed", "-5"), None, None), ((), "seed=-5\n", None), ((), None, "-5")],
        ids=["flag", "config", "env"],
    )
    def test_negative_seed_is_one_line_error(self, tmp_path, monkeypatch, capsys, flags,
                                             config, env_seed):
        # both seeded commands share one seed rule
        if env_seed is None:
            monkeypatch.delenv("DFSQFT_SEED", raising=False)
        else:
            monkeypatch.setenv("DFSQFT_SEED", env_seed)
        for command in (["verify", "wcd", "2"],
                        ["noise-bench", "--encoding", "wcd", "--n", "1", "--trials", "2"]):
            argv = [*command, *flags]
            if config is not None:
                path = tmp_path / "bad.cfg"
                path.write_text(config)
                argv += ["--config", str(path)]
            assert run_cli(*argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: seed must be >= 0, got -5\n"


@pytest.mark.parametrize(
    "argv,config,message",
    [
        (("noise-bench", "--encoding", "wcd", "--n", "1"), "trails=3\n",
         "error: unknown config key 'trails'; noise-bench reads "
         "distribution, encoding, n, policy, seed, sigma, trials\n"),
        (("dfs-table", "wcd"), "n-max=3\n",
         "error: unknown config key 'n-max'; dfs-table reads n_max\n"),
        (("verify", "plain", "1"), "seed=1\nformat=csv\n",
         "error: unknown config key 'format'; verify reads seed\n"),
        (("verify", "plain", "1"), "seed\n", "error: {path}:1: expected key=value\n"),
    ],
    ids=["noise-bench", "dfs-table", "verify", "no-equals-sign"],
)
def test_unread_or_malformed_config_is_one_line_error(tmp_path, capsys, argv, config, message):
    path = tmp_path / "typo.cfg"
    path.write_text(config)
    assert run_cli(*argv, "--config", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.format(path=path)


class TestDfsTable:
    def test_quoted_rows(self, tmp_path):
        out = tmp_path / "scd.csv"
        assert run_cli("dfs-table", "scd", "--n-max", "8", "--out", str(out)) == 0
        rows = {}
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("n,"):
                continue
            fields = line.split(",")
            rows[int(fields[0])] = fields
        assert rows[4][1] == "2" and rows[4][3] == "0.25"
        assert rows[4][4] == "4"  # smallest register for one logical qubit
        # closed form and brute force agree on every row
        assert all(fields[1] == fields[2] for fields in rows.values())

    def test_wcd_rows(self, tmp_path):
        out = tmp_path / "wcd.csv"
        assert run_cli("dfs-table", "wcd", "--n-max", "6", "--out", str(out)) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "n,"))]
        n2 = rows[1].split(",")
        assert n2[1] == "2" and n2[3] == "0.5" and n2[4] == "2"

    def test_odd_scd_rows_have_empty_eta(self, tmp_path):
        out = tmp_path / "scd.csv"
        run_cli("dfs-table", "scd", "--n-max", "5", "--out", str(out))
        rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "n,"))]
        n3 = rows[2].split(",")
        assert n3[1] == n3[2] == "0" and n3[3] == ""

    def test_range_violation(self, capsys):
        assert run_cli("dfs-table", "wcd", "--n-max", "15") == 1
        assert capsys.readouterr().err == "error: n-max must be in 1..14, got 15\n"

    @pytest.mark.parametrize("model", ["wcd", "scd"])
    def test_brute_force_matches_closed_form_to_fourteen_qubits(self, tmp_path, monkeypatch,
                                                                model):
        # the Cholesky certificate decides every row: no eigensolve runs
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh ran: the rank certificate failed")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        out = tmp_path / f"{model}.csv"
        assert run_cli("dfs-table", model, "--n-max", "14", "--out", str(out)) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith(("#", "n,"))]
        assert [int(row[0]) for row in rows] == list(range(1, 15))
        assert all(row[1] == row[2] for row in rows)
        assert rows[13][1] == ("3432" if model == "wcd" else "429")

    def test_mismatch_exits_1_and_still_writes_csv(self, tmp_path, monkeypatch, capsys):
        real_count = cli.brute_force_max_dfs_dimension

        def off_by_one(n, model):
            return real_count(n, model) + (n >= 3)

        monkeypatch.setattr(cli, "brute_force_max_dfs_dimension", off_by_one)
        out = tmp_path / "wcd.csv"
        assert run_cli("dfs-table", "wcd", "--n-max", "4", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == "FAIL: closed form 3 != brute force 4 at n=3\n"
        rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "n,"))]
        assert [row.split(",")[2] for row in rows] == ["1", "2", "4", "7"]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "wcd", "1", "--config", "{bad_config}"),
        ("synth", "plain", "2", "--out", "{missing}/circuit.txt"),
        ("verify", "plain", "2", "--out", "{missing}/report.json"),
        ("noise-bench", "--encoding", "wcd", "--n", "1", "--trials", "2", "--out", "{missing}/b"),
        ("dfs-table", "wcd", "--n-max", "2", "--out", "{missing}/table.csv"),
    ],
    ids=["config-not-utf8", "synth-out", "verify-out", "noise-bench-out", "dfs-table-out"],
)
def test_file_error_is_one_line_error(tmp_path, capsys, argv):
    bad_config = tmp_path / "bad.cfg"
    bad_config.write_bytes(b"\xff\xfe=1\n")
    paths = {"bad_config": bad_config, "missing": tmp_path / "missing"}
    assert run_cli(*(arg.format(**paths) for arg in argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--version")
    assert excinfo.value.code == 0
    assert "dfsqft" in capsys.readouterr().out
