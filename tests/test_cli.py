import json
import time

import numpy as np
import pytest

from sichash import _native
from sichash.cli import generate_keys, main, read_keys
from sichash.hashing import hash_backend


@pytest.fixture()
def key_file(tmp_path):
    path = tmp_path / "keys.txt"
    assert main(["keygen", "--count", "3000", "--seed", "5", "--out", str(path)]) == 0
    return path


class TestKeygen:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["keygen", "--count", "200", "--seed", "9", "--out", str(a)])
        main(["keygen", "--count", "200", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["keygen", "--count", "200", "--seed", "1", "--out", str(a)])
        main(["keygen", "--count", "200", "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_distinct_lengths_and_alphabet(self):
        keys = generate_keys(30_000, seed=3)
        assert len(set(keys)) == len(keys)
        lengths = np.array([len(k) for k in keys])
        assert lengths.min() >= 10 and lengths.max() <= 50
        joined = b"".join(keys)
        assert b"\n" not in joined and b"\x00" not in joined

    def test_file_layout(self, key_file):
        keys = read_keys(str(key_file))
        assert len(keys) == 3000


class TestBuildVerifyBench:
    def test_build_then_verify(self, tmp_path, key_file, capsys):
        out = tmp_path / "f.phf"
        rc = main(
            ["build", "--keys", str(key_file), "--alpha", "0.9", "--out", str(out)]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["verified"] is True
        assert report["n"] == 3000
        assert report["bits_per_object"] > 0
        assert set(report["breakdown"]) == {"retrieval", "metadata", "remap", "total"}
        assert list(report["stages"]) == [
            "hash", "partition", "cuckoo",
            "retrieval", "retrieval_r1", "retrieval_r2", "retrieval_r3", "verify",
        ]
        retries = report["retries"]
        assert set(retries) == {"displacements", "bucket_seeds", "retrieval"}
        assert sum(retries["bucket_seeds"].values()) == 1  # one 5000-key bucket
        assert set(retries["retrieval"]) == {"r1", "r2", "r3"}
        assert set(retries["retrieval"]["r2"]) == {"seed", "seed_retries", "epsilon"}
        assert report["hash_backend"] == hash_backend() in ("native", "python")
        assert 1 <= report["workers"] <= 3  # one bucket, three stores

        assert main(["verify", "--phf", str(out), "--keys", str(key_file)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_minimal_build_report_has_remap(self, tmp_path, key_file, capsys):
        out = tmp_path / "m.phf"
        rc = main(
            [
                "build", "--keys", str(key_file), "--alpha", "0.95",
                "--minimal", "--out", str(out),
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["minimal"] is True
        assert report["breakdown"]["remap"] > 0
        assert "remap" in report["stages"]
        assert main(["verify", "--phf", str(out), "--keys", str(key_file)]) == 0

    def test_verify_fails_on_other_keys(self, tmp_path, key_file, capsys):
        out = tmp_path / "f.phf"
        other = tmp_path / "other.txt"
        main(["build", "--keys", str(key_file), "--alpha", "0.9", "--out", str(out)])
        main(["keygen", "--count", "3000", "--seed", "77", "--out", str(other)])
        capsys.readouterr()
        assert main(["verify", "--phf", str(out), "--keys", str(other)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_rejects_an_empty_key_file(self, tmp_path, key_file, capsys):
        out = tmp_path / "f.phf"
        main(["build", "--keys", str(key_file), "--alpha", "0.9", "--out", str(out)])
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        capsys.readouterr()
        assert main(["verify", "--phf", str(out), "--keys", str(empty)]) == 1
        captured = capsys.readouterr()
        assert "no keys" in captured.err
        assert "PASS" not in captured.out

    def test_verify_fails_on_corrupted_blob(self, tmp_path, key_file, capsys):
        out = tmp_path / "f.phf"
        main(["build", "--keys", str(key_file), "--alpha", "0.9", "--out", str(out)])
        blob = bytearray(out.read_bytes())
        blob[30] ^= 0x04
        out.write_bytes(bytes(blob))
        assert main(["verify", "--phf", str(out), "--keys", str(key_file)]) == 1
        assert "checksum" in capsys.readouterr().err

    def test_build_failure_exit_code(self, tmp_path, capsys):
        keys = tmp_path / "k.txt"
        main(["keygen", "--count", "120", "--seed", "1", "--out", str(keys)])
        rc = main(
            [
                "build", "--keys", str(keys), "--alpha", "0.999", "--beta", "1.0",
                "--max-bucket-seeds", "32", "--out", str(tmp_path / "x.phf"),
            ]
        )
        assert rc == 1
        assert "alpha too aggressive" in capsys.readouterr().err

    def test_build_rejects_a_repeated_key(self, tmp_path, key_file, capsys):
        keys = tmp_path / "repeated.txt"
        lines = read_keys(str(key_file))
        keys.write_bytes(b"\n".join(lines + [lines[17]] * 2) + b"\n")
        assert len(read_keys(str(keys))) == len(lines) + 2
        rc = main(["build", "--keys", str(keys), "--alpha", "0.9", "--out", str(tmp_path / "x.phf")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "duplicate keys" in err
        assert not (tmp_path / "x.phf").exists()

    def test_bench_reports_throughput(self, tmp_path, key_file, capsys):
        out = tmp_path / "f.phf"
        main(["build", "--keys", str(key_file), "--alpha", "0.9", "--out", str(out)])
        capsys.readouterr()
        rc = main(
            ["bench", "--phf", str(out), "--keys", str(key_file), "--reps", "2"]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["queries"] == 6000
        assert report["mqueries_per_second"] > 0
        assert report["hash_backend"] == hash_backend()
        for path in ("scalar_ns_per_key", "batch_ns_per_key"):
            spread = report[path]
            assert 0 < spread["min"] <= spread["median"] <= spread["max"]

    def test_bench_rejects_zero_reps_and_no_keys(self, tmp_path, key_file, capsys):
        out = tmp_path / "f.phf"
        main(["build", "--keys", str(key_file), "--alpha", "0.9", "--out", str(out)])
        capsys.readouterr()
        assert main(["bench", "--phf", str(out), "--keys", str(key_file), "--reps", "0"]) == 1
        assert "--reps" in capsys.readouterr().err
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        assert main(["bench", "--phf", str(out), "--keys", str(empty)]) == 1
        assert "no keys" in capsys.readouterr().err

    def test_build_without_native_kernel_reports_python(
        self, tmp_path, key_file, capsys, monkeypatch
    ):
        monkeypatch.setattr(_native, "lib", None)
        out = tmp_path / "f.phf"
        assert main(["build", "--keys", str(key_file), "--alpha", "0.9", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["hash_backend"] == "python"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_build_seed_outside_64_bits_is_an_error(self, tmp_path, key_file, capsys, seed):
        rc = main(
            [
                "build", "--keys", str(key_file), "--alpha", "0.9", "--seed", seed,
                "--out", str(tmp_path / "x.phf"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: global_seed must lie in [0, 2**64)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.phf").exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--max-bucket-seeds", "0", "max_seeds must be >= 1"),
            ("--bucket-size", str(10**20), "bucket_size must lie in [1, 2**64)"),
        ],
    )
    def test_build_bad_option_is_an_error(
        self, tmp_path, key_file, capsys, option, value, message
    ):
        rc = main(
            [
                "build", "--keys", str(key_file), "--alpha", "0.9", option, value,
                "--out", str(tmp_path / "x.phf"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "x.phf").exists()

    def test_build_has_no_slack_option(self, capsys):
        # the retrieval slack is the constant retrieval.EPSILON, not an option
        with pytest.raises(SystemExit) as exc:
            main(["build", "--help"])
        assert exc.value.code == 0
        assert "epsilon" not in capsys.readouterr().out


class TestOverload:
    def test_single_trial_summary_equals_sample(self, capsys):
        rc = main(
            ["overload", "--m", "50", "--config", "A", "--trials", "1", "--seed", "3"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "trial,achieved_load"
        trial, load = lines[1].split(",")
        assert trial == "0"
        assert f"median={float(load):.4f}" in captured.err

    def test_csv_has_requested_trials(self, capsys):
        rc = main(
            ["overload", "--m", "60", "--config", "D", "--trials", "7", "--seed", "1"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        rows = captured.out.strip().splitlines()[1:]
        assert len(rows) == 7
        loads = [float(r.split(",")[1]) for r in rows]
        assert all(0.0 <= v <= 1.0 for v in loads)

    def test_deterministic_given_seed(self, capsys):
        main(["overload", "--m", "40", "--config", "C", "--trials", "3", "--seed", "8"])
        first = capsys.readouterr().out
        main(["overload", "--m", "40", "--config", "C", "--trials", "3", "--seed", "8"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("m", ["0", "-5"])
    def test_m_below_one_is_an_error(self, capsys, m):
        rc = main(["overload", "--m", m, "--config", "C", "--trials", "2"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.splitlines() == ["error: m must be >= 1"]
        assert captured.out == ""

    def test_negative_insert_budget_is_an_error(self, capsys):
        argv = ["overload", "--m", "100", "--config", "C", "--trials", "2"]
        assert main([*argv, "--insert-budget", "0"]) == 0
        capsys.readouterr()
        rc = main([*argv, "--insert-budget", "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.splitlines() == ["error: insert_budget must be >= 0"]
        assert captured.out == ""


class TestThresholds:
    def test_quaternary_value(self, capsys):
        assert main(["thresholds", "--p1", "0", "--p2", "1"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(row[5]) == pytest.approx(0.9768, abs=5e-4)
        assert row[4] != ""

    def test_binary_value_boundary(self, capsys):
        assert main(["thresholds", "--p1", "1", "--p2", "0"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(row[5]) == pytest.approx(0.500, abs=1e-3)
        assert row[4] == ""  # boundary case: no positive root

    def test_invalid_mix_errors(self, capsys):
        assert main(["thresholds", "--p1", "0.8", "--p2", "0.8"]) == 1
        assert "error" in capsys.readouterr().err


def test_unknown_command_exits_with_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_bench_stability_smoke(tmp_path, capsys):
    keys = tmp_path / "k.txt"
    out = tmp_path / "f.phf"
    main(["keygen", "--count", "2000", "--seed", "2", "--out", str(keys)])
    main(["build", "--keys", str(keys), "--alpha", "0.9", "--out", str(out)])
    capsys.readouterr()

    def measure():
        main(["bench", "--phf", str(out), "--keys", str(keys), "--reps", "5"])
        return json.loads(capsys.readouterr().out)["mqueries_per_second"]

    # two runs should land within 2x of each other; allow rare scheduler
    # noise by retrying a couple of times
    for _ in range(3):
        a, b = measure(), measure()
        if max(a, b) / min(a, b) <= 2.0:
            break
        time.sleep(0.1)
    else:
        pytest.fail(f"throughput unstable: {a} vs {b}")
