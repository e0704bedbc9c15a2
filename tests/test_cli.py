"""CLI subcommand matrix: file passing, verdict lines, exit codes."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PROD, TOY
from ringadapt import wire
from ringadapt.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def workspace(tmp_path, capsys):
    """Keys, ring, statement and message files for a 4-ring."""
    paths = {
        "ring": tmp_path / "ring.bin",
        "statement": tmp_path / "statement.bin",
        "witness": tmp_path / "witness.bin",
        "message": tmp_path / "message.bin",
        "presig": tmp_path / "presig.bin",
        "sig": tmp_path / "sig.bin",
    }
    keys = []
    for i in range(4):
        key_path = tmp_path / f"key{i}.key"
        assert main(["keygen", "--out", str(key_path)]) == 0
        keys.append(key_path)
    args = ["ring-build", "--out", str(paths["ring"])]
    for key in keys:
        args += ["--key", str(key)]
    assert main(args) == 0
    assert main(["genr", "--out", str(paths["statement"]),
                 "--witness-out", str(paths["witness"])]) == 0
    paths["message"].write_bytes(b"pay bob 5 units")
    capsys.readouterr()
    paths["keys"] = keys
    return paths


# Each helper runs one command on the workspace's files and returns
# (exit code, stdout); a test points it at other files with
# {**workspace, name: path}.
def _presign(workspace, capsys, slots=(1, 2)):
    keys = [arg for slot in slots
            for arg in ("--key", str(workspace["keys"][slot]))]
    return run(capsys, "presign", "--ring", str(workspace["ring"]), *keys,
               "--message", str(workspace["message"]),
               "--statement", str(workspace["statement"]),
               "--out", str(workspace["presig"]))


def _adapt(workspace, capsys):
    return run(capsys, "adapt", "--ring", str(workspace["ring"]),
               "--presig", str(workspace["presig"]),
               "--witness", str(workspace["witness"]),
               "--out", str(workspace["sig"]))


def _sign(workspace, capsys, slots=(1, 2)):
    """Presign and adapt; both exit 0."""
    assert _presign(workspace, capsys, slots=slots)[0] == 0
    assert _adapt(workspace, capsys) == (0, "")


def _preverify(workspace, capsys, t=2):
    return run(capsys, "preverify", "--ring", str(workspace["ring"]),
               "--threshold", str(t), "--message", str(workspace["message"]),
               "--statement", str(workspace["statement"]),
               "--presig", str(workspace["presig"]))


def _verify(workspace, capsys, t=2):
    return run(capsys, "verify", "--ring", str(workspace["ring"]),
               "--threshold", str(t), "--message", str(workspace["message"]),
               "--sig", str(workspace["sig"]))


def _ext(workspace, capsys):
    return run(capsys, "ext", "--ring", str(workspace["ring"]),
               "--statement", str(workspace["statement"]),
               "--presig", str(workspace["presig"]),
               "--sig", str(workspace["sig"]))


def test_presign_preverify_adapt_verify_ext(workspace, capsys):
    code, _ = _presign(workspace, capsys)
    assert code == 0

    code, out = _preverify(workspace, capsys)
    assert (code, out.strip()) == (0, "1")

    code, _ = _adapt(workspace, capsys)
    assert code == 0

    code, out = _verify(workspace, capsys)
    assert (code, out.strip()) == (0, "1")

    code, out = _ext(workspace, capsys)
    assert code == 0
    witness_hex = workspace["witness"].read_bytes().hex()
    assert out.strip() == witness_hex


def test_wrapping_window_round_trip(workspace, capsys):
    # Keys 3 and 0 start the window at 3: it wraps, as every window
    # verification aggregates may.
    _sign(workspace, capsys, slots=(3, 0))
    code, out = _verify(workspace, capsys)
    assert (code, out.strip()) == (0, "1")


def test_verify_rejects_wrong_message(workspace, capsys, tmp_path):
    _sign(workspace, capsys)
    other = tmp_path / "other.bin"
    other.write_bytes(b"pay mallory everything")
    code, out = _verify({**workspace, "message": other}, capsys)
    assert (code, out.strip()) == (1, "0")


def test_ext_mismatch_prints_failure_mark(workspace, capsys, tmp_path):
    _sign(workspace, capsys)
    other = {**workspace, "presig": tmp_path / "presig2.bin"}
    code, _ = _presign(other, capsys)
    assert code == 0
    code, out = _ext(other, capsys)
    assert code == 1
    assert out.strip() == "⊥"


def test_link_subcommand(workspace, capsys, tmp_path):
    _sign(workspace, capsys)
    # overlapping window (1,2) vs (2,2): share key 2
    sig_b = tmp_path / "sig_b.bin"
    _sign({**workspace, "presig": tmp_path / "presig_b.bin", "sig": sig_b},
          capsys, (2, 3))
    code, out = run(capsys, "link", "--ring", str(workspace["ring"]),
                    "--sig-a", str(workspace["sig"]), "--sig-b", str(sig_b))
    assert (code, out.strip()) == (0, "1")
    # disjoint window (0,1) vs window (2,2)
    sig_c = tmp_path / "sig_c.bin"
    _sign({**workspace, "presig": tmp_path / "presig_c.bin", "sig": sig_c},
          capsys, (0,))
    code, out = run(capsys, "link", "--ring", str(workspace["ring"]),
                    "--sig-a", str(sig_b), "--sig-b", str(sig_c))
    assert (code, out.strip()) == (1, "0")
    # a second ring (new, key 2, new) whose window covers the shared key 2
    ring_d = tmp_path / "ring_d.bin"
    args = ["ring-build", "--out", str(ring_d)]
    for i in range(3):
        key_path = workspace["keys"][2]
        if i != 1:
            key_path = tmp_path / f"ring_d_key{i}.key"
            assert main(["keygen", "--out", str(key_path)]) == 0
        args += ["--key", str(key_path)]
    assert main(args) == 0
    sig_d = tmp_path / "sig_d.bin"
    _sign({**workspace, "ring": ring_d, "presig": tmp_path / "presig_d.bin",
           "sig": sig_d}, capsys, (2,))
    code, out = run(capsys, "link", "--ring", str(workspace["ring"]),
                    "--sig-a", str(workspace["sig"]), "--sig-b", str(sig_d),
                    "--ring-b", str(ring_d))
    assert (code, out.strip()) == (0, "1")


def test_decode_failure_exits_2(workspace, capsys, tmp_path):
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"\xff\xff\xff")
    code, _ = _preverify({**workspace, "ring": garbage}, capsys)
    assert code == 2


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["presign"])  # missing required flags
    assert exc.value.code == 2
    capsys.readouterr()


def test_presign_usage_errors_exit_2(workspace, capsys, tmp_path):
    # No --key file: the window has no first key to start from.
    with pytest.raises(SystemExit) as exc:
        _presign(workspace, capsys, slots=())
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "ringadapt presign: error: the following arguments are required: "
        "--key")
    # A first key outside the ring has no position: the error names it.
    stray = tmp_path / "stray.key"
    assert main(["keygen", "--out", str(stray)]) == 0
    capsys.readouterr()
    code = main(["presign", "--ring", str(workspace["ring"]),
                 "--key", str(stray), "--key", str(workspace["keys"][0]),
                 "--message", str(workspace["message"]),
                 "--statement", str(workspace["statement"]),
                 "--out", str(workspace["presig"])])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: {stray}: public key is not in the ring\n")
    assert not workspace["presig"].exists()


def test_presign_window_starts_at_the_first_key(workspace, capsys):
    # Every start j and width t of the 4-ring, keys (j, j+1, ...) mod 4:
    # windows that wrap, and t = 4 from every start, all verify.
    for j in range(4):
        for t in range(1, 5):
            _sign(workspace, capsys, [(j + i) % 4 for i in range(t)])
            assert _verify(workspace, capsys, t) == (0, "1\n"), (j, t)
    # Keys out of ring order: the second key does not open ring key 2.
    workspace["presig"].unlink()
    code = main(["presign", "--ring", str(workspace["ring"]),
                 "--key", str(workspace["keys"][1]),
                 "--key", str(workspace["keys"][3]),
                 "--message", str(workspace["message"]),
                 "--statement", str(workspace["statement"]),
                 "--out", str(workspace["presig"])])
    assert code == 2
    assert capsys.readouterr() == (
        "", "error: secret at window offset 1 does not open ring key 2\n")
    assert not workspace["presig"].exists()


@pytest.mark.parametrize("slots", [(0,), (1, 2)], ids=["t=1", "t=2"])
def test_files_give_their_threshold(workspace, capsys, slots):
    # adapt, ext and link read t from each file's length.
    _sign(workspace, capsys, slots)
    t = len(slots)
    assert _preverify(workspace, capsys, t) == (0, "1\n")
    assert _verify(workspace, capsys, t) == (0, "1\n")
    assert _ext(workspace, capsys) == (
        0, workspace["witness"].read_bytes().hex() + "\n")
    assert run(capsys, "link", "--ring", str(workspace["ring"]),
               "--sig-a", str(workspace["sig"]),
               "--sig-b", str(workspace["sig"])) == (0, "1\n")


def test_verdicts_take_the_threshold_as_policy(workspace, capsys):
    # A well-formed t = 2 file under another --threshold, in range or
    # not, is a false verdict, as the library's verify and preverify say.
    _sign(workspace, capsys)
    for t in (1, 3, 0, 5):
        assert _verify(workspace, capsys, t) == (1, "0\n")
        assert _preverify(workspace, capsys, t) == (1, "0\n")


def test_adapt_takes_no_threshold(workspace, capsys, tmp_path):
    assert _presign(workspace, capsys)[0] == 0
    sig = tmp_path / "sig.bin"
    with pytest.raises(SystemExit) as exc:
        main(["adapt", "--ring", str(workspace["ring"]),
              "--threshold", "2", "--presig", str(workspace["presig"]),
              "--witness", str(workspace["witness"]), "--out", str(sig)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threshold 2" in capsys.readouterr().err
    assert not sig.exists()


def test_bad_signature_files_name_the_fault(workspace, capsys, tmp_path):
    # The length fixes t before decoding; the decoder still names what
    # is wrong with a file that is not a signature of this ring.
    _sign(workspace, capsys)
    sig = workspace["sig"].read_bytes()
    bad = tmp_path / "bad.bin"
    cases = [
        (b"\xff\xff\xff", "unsupported version 255"),
        (workspace["statement"].read_bytes(),
         "object tag 0x04 does not match expected 0x06"),
        (sig[:-1], "trailing bytes after payload"),
    ]
    for data, error in cases:
        bad.write_bytes(data)
        for argv in (("verify", "--threshold", "2",
                      "--message", str(workspace["message"]),
                      "--sig", str(bad)),
                     ("link", "--sig-a", str(workspace["sig"]),
                      "--sig-b", str(bad))):
            code = main([argv[0], "--ring", str(workspace["ring"]), *argv[1:]])
            assert code == 2
            assert capsys.readouterr() == ("", f"error: {bad}: {error}\n")


def test_seed_is_refused_where_no_randomness_is_drawn(workspace, capsys,
                                                      tmp_path):
    # Only swap-demo takes --seed, which picks its scenario: the other
    # commands draw from the OS or draw nothing.  Each argv is refused
    # with --seed and runs without it.
    _sign(workspace, capsys)
    ring = ("--ring", str(workspace["ring"]))
    files = {name: str(workspace[name])
             for name in ("message", "statement", "witness", "presig", "sig")}
    keys = [arg for slot in (1, 2)
            for arg in ("--key", str(workspace["keys"][slot]))]
    argvs = {
        "keygen": ("--out", str(tmp_path / "k.key")),
        "genr": ("--out", str(tmp_path / "s.bin"),
                 "--witness-out", str(tmp_path / "w.bin")),
        "ring-build": (*keys, "--out", str(tmp_path / "r.bin")),
        "presign": (*ring, *keys,
                    "--message", files["message"],
                    "--statement", files["statement"],
                    "--out", str(tmp_path / "p.bin")),
        "preverify": (*ring, "--threshold", "2", "--message", files["message"],
                      "--statement", files["statement"],
                      "--presig", files["presig"]),
        "adapt": (*ring, "--presig", files["presig"],
                  "--witness", files["witness"],
                  "--out", str(tmp_path / "sig.bin")),
        "verify": (*ring, "--threshold", "2", "--message", files["message"],
                   "--sig", files["sig"]),
        "ext": (*ring, "--statement", files["statement"],
                "--presig", files["presig"], "--sig", files["sig"]),
        "link": (*ring, "--sig-a", files["sig"], "--sig-b", files["sig"]),
        "bench": ("--min-n", "2", "--max-n", "2"),
    }
    assert set(argvs) == set(CLI_SURFACE) - {"swap-demo"}
    for command, args in argvs.items():
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert run(capsys, command, *args)[0] == 0, command


def test_wrong_group_key_file_exits_2(workspace, capsys, tmp_path):
    # A toy-group key, or any secret file of another width, is refused
    # with the decoder's error, after the file's name.
    prod_key = wire.encode_scalar(PROD, 5)
    for data, error in ((wire.encode_scalar(TOY, 5), "truncated scalar"),
                        (prod_key[:-1], "truncated scalar"),
                        (prod_key + b"\0", "trailing bytes after payload")):
        key = tmp_path / "other.key"
        key.write_bytes(data)
        code = main(["ring-build", "--key", str(key),
                     "--out", str(tmp_path / "r.bin")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {key}: {error}\n"
        assert not (tmp_path / "r.bin").exists()
    # Of several --key files, the message names the one cut short.
    cut = tmp_path / "cut.key"
    cut.write_bytes(workspace["keys"][2].read_bytes()[:-1])
    code = main(["presign", "--ring", str(workspace["ring"]),
                 "--key", str(workspace["keys"][1]), "--key", str(cut), "--message", str(workspace["message"]),
                 "--statement", str(workspace["statement"]),
                 "--out", str(workspace["presig"])])
    assert code == 2
    assert capsys.readouterr().err == f"error: {cut}: truncated scalar\n"
    assert not workspace["presig"].exists()


@pytest.mark.parametrize("command", ["keygen", "genr"])
def test_secret_files_are_private_and_never_replaced(capsys, tmp_path,
                                                     command):
    secret = tmp_path / "secret.bin"
    argv = {"keygen": ["keygen", "--out", str(secret)],
            "genr": ["genr", "--out", str(tmp_path / "statement.bin"),
                     "--witness-out", str(secret)]}[command]
    old_umask = os.umask(0o022)
    try:
        assert main(argv) == 0
        assert secret.stat().st_mode & 0o777 == 0o600
        first = {path: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(argv) == 2
    finally:
        os.umask(old_umask)
    assert capsys.readouterr().err.startswith("error: ")
    # Nothing is written: genr checks its witness path first.
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == first


@pytest.mark.parametrize("symlink", [False, True],
                         ids=["same-path", "symlink"])
def test_genr_out_naming_the_witness_file_exits_2(capsys, tmp_path, symlink):
    # The statement would overwrite the witness just written.
    witness = tmp_path / "witness.bin"
    out = tmp_path / "statement.bin" if symlink else witness
    if symlink:
        out.symlink_to(witness)   # dangling until genr writes the witness
    code = main(["genr", "--out", str(out), "--witness-out", str(witness)])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: --out {out} is the witness file\n")
    assert 0 < wire.decode_scalar(PROD, witness.read_bytes()) < PROD.order
    assert witness.stat().st_mode & 0o777 == 0o600


def test_keygen_stdout_and_pubkey_ring(capsys, tmp_path):
    # The key file is the secret's wire scalar; stdout is the public key.
    printed = []
    for name in ("a", "b"):
        key = tmp_path / f"{name}.key"
        code, out = run(capsys, "keygen", "--out", str(key))
        assert code == 0
        sk = wire.decode_scalar(PROD, key.read_bytes())
        assert key.read_bytes() == wire.encode_scalar(PROD, sk)
        pk = PROD.exp(PROD.generator_g, sk)
        assert out == wire.encode_element(PROD, pk).hex() + "\n"
        assert wire.encode_scalar(PROD, sk).hex() not in out
        rings = [tmp_path / f"{name}-{i}.bin" for i in range(2)]
        assert main(["ring-build", "--key", str(key),
                     "--out", str(rings[0])]) == 0
        assert main(["ring-build", "--pubkey", out.strip(),
                     "--out", str(rings[1])]) == 0
        capsys.readouterr()
        assert rings[0].read_bytes() == rings[1].read_bytes()
        printed.append(out)
    # Each run draws a fresh key from the OS.
    assert printed[0] != printed[1]


def test_ring_build_keeps_the_command_line_order(capsys, tmp_path):
    # --key and --pubkey values are the ring's keys in the order given,
    # the order presign's window is read in.
    key_a = tmp_path / "a.key"
    hex_a = run(capsys, "keygen", "--out", str(key_a))[1].strip()
    hex_b = run(capsys, "keygen", "--out", str(tmp_path / "b.key"))[1].strip()
    a, b = (wire.decode_element(PROD, bytes.fromhex(h))
            for h in (hex_a, hex_b))
    ring = tmp_path / "ring.bin"
    for argv, keys in ((("--pubkey", hex_b, "--key", str(key_a)), (b, a)),
                       (("--key", str(key_a), "--pubkey", hex_b), (a, b))):
        assert run(capsys, "ring-build", *argv, "--out", str(ring)) == (0, "")
        assert wire.decode_ring(PROD, ring.read_bytes()).keys == keys


G_HEX = wire.encode_element(PROD, PROD.generator_g).hex()


def test_ring_build_names_the_refused_key(capsys, tmp_path):
    # A repeated key names both positions, the identity its own; nothing
    # is written.
    identity = wire.encode_element(PROD, PROD.identity).hex()
    out = tmp_path / "r.bin"
    for pubkeys, error in (
            ((G_HEX, G_HEX), "duplicate ring keys 0 and 1"),
            ((G_HEX, identity), "ring key 1 is not a group element other "
                                "than the identity")):
        argv = [arg for hexval in pubkeys for arg in ("--pubkey", hexval)]
        assert main(["ring-build", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert not out.exists()


@pytest.mark.parametrize("hexval, error", [
    ("zz", "non-hexadecimal number found in fromhex() arg at position 0"),
    ("ff" + G_HEX[2:], "unsupported version 255"),
    (G_HEX[:2] + "02" + G_HEX[4:],
     "object tag 0x02 does not match expected 0x01"),
    (G_HEX[:-2], "truncated element"),
], ids=["bad-hex", "version", "tag", "truncated"])
def test_bad_pubkey_exits_2_naming_it(capsys, tmp_path, hexval, error):
    # Of several --pubkey values, the message names the one at fault.
    out = tmp_path / "r.bin"
    code = main(["ring-build", "--pubkey", G_HEX, "--pubkey", hexval,
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: --pubkey {hexval}: {error}\n"
    assert not out.exists()


def test_keygen_requires_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["keygen"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_zero_key_file_exits_2(capsys, workspace):
    # A key or witness file holding 0 opens only the identity (g^0, h^0):
    # the error names the file, and nothing is written.
    zero = workspace["ring"].parent / "zero.key"
    zero.write_bytes(wire.encode_scalar(PROD, 0))
    out = workspace["ring"].parent / "out.bin"
    assert _presign(workspace, capsys)[0] == 0
    ring = str(workspace["ring"])
    for argv in (["ring-build", "--key", str(workspace["keys"][0]),
                  "--key", str(zero)],
                 ["presign", "--ring", ring, "--key", str(zero), "--message", str(workspace["message"]),
                  "--statement", str(workspace["statement"])],
                 ["adapt", "--ring", ring, "--presig", str(workspace["presig"]),
                  "--witness", str(zero)]):
        assert main([*argv, "--out", str(out)]) == 2, argv[0]
        assert capsys.readouterr().err == f"error: {zero}: secret scalar is 0\n"
        assert not out.exists()


def test_json_key_file_is_refused(capsys, tmp_path):
    key = tmp_path / "old.json"
    key.write_text('{"group": "toy-607", "sk": "0002002a", "pk": "00010031"}')
    code = main(["ring-build", "--key", str(key),
                 "--out", str(tmp_path / "r.bin")])
    assert code == 2
    assert "unsupported version" in capsys.readouterr().err


def test_swap_demo_happy_and_faulty(capsys):
    code, out = run(capsys, "swap-demo", "--seed", "5")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["event"] == "outcome"
    assert lines[-1]["outcome"] == "both-confirmed"

    code, out = run(capsys, "swap-demo", "--seed", "5",
                    "--fault", "abort3")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[-1]["outcome"] == "neither-confirmed"
    assert records[-1]["phase"] == "aborted"


@pytest.mark.parametrize("fault", ["bogus", "abortx", "abort", "abort0",
                                   "abort6"])
def test_swap_demo_unknown_fault_exits_2(capsys, fault):
    code = main(["swap-demo", "--fault", fault])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"unknown fault {fault!r}" in captured.err


def test_bench_csv_schema(capsys):
    code, out = run(capsys, "bench", "--min-n", "10",
                    "--max-n", "20", "--step", "10")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["algorithm", "n", "t", "mean_ns", "bytes",
                       "comm_ours", "comm_baseline"]
    body = rows[1:]
    assert len(body) == 18  # 9 algorithms x 2 ring sizes
    presign_rows = [r for r in body if r[0] == "presign"]
    # prod sizes: S_z = S_g = 32, so n=10,t=5 gives 11*32 + 5*32 = 512
    assert presign_rows[0][1:3] == ["10", "5"]
    assert presign_rows[0][4] == "512"
    assert all(int(r[3]) > 0 for r in body)


@pytest.mark.parametrize("argv", [("--min-n", "50", "--max-n", "30")],
                         ids=["min>max"])
def test_bench_empty_sweep_exits_2(capsys, argv):
    # No ring size: an error, not a CSV header with no rows.
    assert main(["bench", *argv]) == 2
    assert capsys.readouterr() == ("", "error: no ring size to sweep\n")


@pytest.mark.parametrize("argv", [("--step", "0"), ("--step", "-1"),
                                  ("--min-n", "4", "--max-n", "2",
                                   "--step", "-1")],
                         ids=["zero", "negative", "descending"])
def test_bench_step_below_1_exits_2(capsys, argv):
    # A step below 1 is refused, not read as a descending sweep.
    assert main(["bench", *argv]) == 2
    assert capsys.readouterr() == ("", "error: --step must be at least 1\n")


@pytest.mark.parametrize("doc", ["[]", '{"group": "toy-607", "sk": 5, '
                                       '"pk": "0031"}'])
def test_malformed_key_file_exits_2(capsys, tmp_path, doc):
    key = tmp_path / "key.json"
    key.write_text(doc)
    code = main(["ring-build", "--key", str(key),
                 "--out", str(tmp_path / "r.bin")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_programming_errors_propagate(monkeypatch, tmp_path):
    # Exit 2 is for bad input and files; a KeyError in a command is a bug.
    def lookup_bug(*args):
        raise KeyError("missing")

    monkeypatch.setattr("ringadapt.cli.keygen", lookup_bug)
    with pytest.raises(KeyError):
        main(["keygen", "--out", str(tmp_path / "k.key")])


SRC = Path(__file__).resolve().parent.parent / "src"


def _child(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


# Looked up on ringadapt.cli and replaced there by perfbench/tracing.py.
TRACED_CLI_NAMES = ("verify", "presign", "preverify", "adapt", "ext", "gen_r",
                    "setup_group")


def test_cli_import_loads_only_the_scheme():
    # hashlib and secrets load OpenSSL; libsodium hashes, os.urandom draws.
    heavy = ("ringadapt.bench", "ringadapt.swap", "dataclasses", "inspect",
             "ctypes.util", "subprocess", "statistics", "csv", "hashlib",
             "_hashlib", "secrets", "hmac")
    # Modules the interpreter's start-up already loaded do not count.
    out = _child("import sys\n"
                 "before = set(sys.modules)\n"
                 "import ringadapt.cli\n"
                 f"print(sorted(m for m in {heavy!r}\n"
                 "             if m in sys.modules and m not in before))\n"
                 f"print(all(callable(getattr(ringadapt.cli, n)) "
                 f"for n in {TRACED_CLI_NAMES!r}))")
    assert out.split("\n")[:2] == ["[]", "True"]


def test_lazy_modules_still_resolve():
    out = _child("from ringadapt import *\n"
                 "print(bench.REPS, swap.MockLedger.__name__)")
    assert out == "10 MockLedger\n"
    out = _child("import ringadapt\n"
                 "print(ringadapt.bench.REPS)\n"
                 "from ringadapt import swap\n"
                 "print(swap is ringadapt.swap, hasattr(ringadapt, 'nope'))")
    assert out == "10\nTrue False\n"


def _python(*args, unbuffered, stdout=subprocess.PIPE, timeout=60):
    """A Python child whose stdout is unbuffered or block-buffered, as it
    is on a pipe without PYTHONUNBUFFERED."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=timeout)


def _cli(*argv, unbuffered, stdout=subprocess.PIPE, timeout=60):
    return _python("-m", "ringadapt.cli", *argv, unbuffered=unbuffered,
                   stdout=stdout, timeout=timeout)


BUFFERING = pytest.mark.parametrize("unbuffered", [False, True],
                                    ids=["buffered", "unbuffered"])


@BUFFERING
def test_child_swap_demo_stdout_matches_out_file(capsys, unbuffered):
    # The child's stdout against main's output in this process.
    argv = ("swap-demo", "--seed", "5")
    printed = _cli(*argv, unbuffered=unbuffered)
    code, out = run(capsys, *argv)
    # Buffered, the whole transcript is still in the buffer when main
    # returns, so only the flush before os._exit delivers it.
    assert (printed.returncode, printed.stderr, code) == (0, b"", 0)
    assert printed.stdout == out.encode()
    assert printed.stdout.endswith(b'"outcome": "both-confirmed", '
                                   b'"phase": "alice-claimed"}\n')


@BUFFERING
def test_child_entry_delivers_more_than_a_pipe_holds(unbuffered):
    # No subcommand prints 64 KiB, so main is replaced by one that does.
    code = ("import ringadapt.cli as cli\n"
            "cli.main = lambda: print('x' * 99999, end='!') or 3\n"
            "cli.entry()\n")
    result = _python("-c", code, unbuffered=unbuffered)
    assert (result.returncode, result.stderr) == (3, b"")
    assert result.stdout == b"x" * 99999 + b"!"


@BUFFERING
def test_child_verify_exit_codes_and_lines(workspace, capsys, tmp_path,
                                           unbuffered):
    _sign(workspace, capsys)
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"\xff\xff\xff")
    base = ("verify", "--ring", str(workspace["ring"]),
            "--threshold", "2")
    cases = [
        (("--message", workspace["message"], "--sig", workspace["sig"]),
         (0, b"1\n", b"")),
        (("--message", workspace["statement"], "--sig", workspace["sig"]),
         (1, b"0\n", b"")),
        (("--message", workspace["message"], "--sig", garbage),
         (2, b"", b"error: %s: unsupported version 255\n"
          % bytes(garbage))),
    ]
    for args, expected in cases:
        result = _cli(*base, *map(str, args), unbuffered=unbuffered)
        assert (result.returncode, result.stdout, result.stderr) == expected


def test_child_usage_error_and_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")     # the width help is wrapped to
    usage = _cli("verify", unbuffered=False)
    assert (usage.returncode, usage.stdout) == (2, b"")
    assert usage.stderr.decode().splitlines()[-1] == (
        "ringadapt verify: error: the following arguments are required: "
        "--ring, --threshold, --message, --sig")
    shown = _cli("--help", unbuffered=False)
    assert (shown.returncode, shown.stderr) == (0, b"")
    # Every command is listed, as by main's parser for this argv.
    assert shown.stdout.decode() == build_parser("--help").format_help()


def _cli_into_closed_pipe(*argv, unbuffered):
    """The child run with stdout a pipe whose only reader is closed before
    the child writes, as when `| head -c 1` has exited."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _cli(*argv, unbuffered=unbuffered, stdout=write_end)
    finally:
        os.close(write_end)


@BUFFERING
def test_child_reader_gone_exits_2(unbuffered):
    # The write fails with EPIPE at the print (unbuffered) or at entry's
    # flush (buffered), and both exit 2.
    result = _cli_into_closed_pipe("swap-demo", unbuffered=unbuffered)
    assert (result.returncode, result.stderr) == (
        2, b"error: [Errno 32] Broken pipe\n")


@BUFFERING
def test_child_help_into_a_closed_pipe(unbuffered):
    # argparse prints help inside parse_args and leaves by SystemExit(0),
    # which entry catches, so it still flushes and leaves by os._exit.
    # Buffered, the help is still in the buffer: the flush meets the
    # closed pipe and the child exits 2, as with a subcommand's output.
    # Unbuffered, argparse's own write meets the pipe, and argparse's
    # _print_message discards that error, so the child exits 0.
    result = _cli_into_closed_pipe("link", "--help",
                                   unbuffered=unbuffered)
    assert (result.returncode, result.stderr) == (
        (0, b"") if unbuffered else (2, b"error: [Errno 32] Broken pipe\n"))


# The option surface of every subcommand, in order: flags, action, required,
# type, default, choices, metavar and help, as the parser reports them.
def _req(flag, type_=None):
    return ((flag,), "store", True, type_, None, None, None, None)


def _opt(flag, type_=None, default=None, help_=None, action="store"):
    return ((flag,), action, False, type_, default, None, None, help_)


CLI_SURFACE = {
    "keygen": ("generate a key pair", [
        (("--out",), "store", True, None, None, None, None,
         "secret key file; the public key's hex is printed")]),
    "genr": ("sample a hard-relation statement/witness", [
        (("--out",), "store", True, None, None, None, None,
         "statement output file"),
        (("--witness-out",), "store", True, None, None, None, None,
         "witness output file")]),
    "ring-build": ("assemble a ring from keys", [
        (("--key",), "append", False, None, None, None, "KEY",
         "key file (repeatable)"),
        (("--pubkey",), "append", False, None, None, None, "PUBKEY",
         "hex wire public key (repeatable)"),
        _req("--out")]),
    "presign": ("produce a ring pre-signature", [
        _req("--ring"),
        (("--key",), "append", True, None, None, None, None,
         "signer key file (repeatable): keys in ring order from the first "
         "key's position; the window may wrap"),
        _req("--message"), _req("--statement"), _req("--out")]),
    "preverify": ("check a ring pre-signature", [
        _req("--ring"), _req("--threshold", "int"), _req("--message"),
        _req("--statement"), _req("--presig")]),
    "adapt": ("complete a pre-signature with a witness", [
        _req("--ring"), _req("--presig"), _req("--witness"), _req("--out")]),
    "verify": ("check a full signature", [
        _req("--ring"), _req("--threshold", "int"), _req("--message"),
        _req("--sig")]),
    "ext": ("extract the witness from a signature pair", [
        _req("--ring"), _req("--statement"), _req("--presig"), _req("--sig")]),
    "link": ("test whether two signatures share a tag", [
        _req("--ring"), _req("--sig-a"), _req("--sig-b"),
        _opt("--ring-b", help_="ring of the second signature, if different")]),
    "swap-demo": ("run the two-ledger atomic swap", [
        _opt("--seed", "int", 0, "picks the scenario"),
        _opt("--fault", default="none",
             help_="none, abort1..abort5 or a corruption name")]),
    "bench": ("sweep ring sizes and emit a CSV", [
        _opt("--min-n", "int", 10), _opt("--max-n", "int", 100),
        _opt("--step", "int", 10)]),
}


def _surface(command) -> dict:
    """name -> (help, options) of every subcommand of
    build_parser(command)."""
    sub = next(action for action in build_parser(command)._actions
               if isinstance(action, argparse._SubParsersAction))
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    return {name: (helps[name], [
        (tuple(a.option_strings),
         "append" if isinstance(a, argparse._AppendAction) else "store",
         a.required, getattr(a.type, "__name__", None), a.default,
         tuple(a.choices) if a.choices else None, a.metavar, a.help)
        for a in parser._actions
        if not isinstance(a, argparse._HelpAction)])
        for name, parser in sub.choices.items()}


def test_cli_option_surface_is_pinned():
    # One parser per command, as main builds it for that command.
    surface = {name: _surface(name)[name] for name in _surface(None)}
    assert list(surface) == list(CLI_SURFACE)
    for name, (help_, expected) in CLI_SURFACE.items():
        assert surface[name] == (help_, expected), name


@pytest.mark.parametrize("command", list(CLI_SURFACE))
def test_parser_for_one_command_adds_only_its_options(command):
    # Every command is still listed; only the invoked one has options.
    assert _surface(command) == {
        name: (help_, options if name == command else [])
        for name, (help_, options) in CLI_SURFACE.items()}
