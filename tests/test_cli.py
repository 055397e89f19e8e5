import json
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from groverqss.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tables_1_csv(capsys):
    code, out, err = run_cli(capsys, "tables", "--which", "1", "--format", "csv")
    assert code == 0  # table 1 reproduces the publication exactly
    lines = out.splitlines()
    assert lines[1] == "1,110,0.781,110,110,0.945"
    diff = json.loads(err)
    assert diff["mismatching_rows"] == []


def test_tables_2_markdown_reports_typo(capsys):
    code, out, err = run_cli(capsys, "tables", "--which", "2", "--format", "markdown")
    assert code == 1  # one published-typo row in the diff
    assert "| 1 " in out and "0.945" in out
    diff = json.loads(err)
    assert [d["k"] for d in diff["mismatching_rows"]] == [46]


def test_tables_out_file(tmp_path, capsys):
    path = tmp_path / "t1.json"
    code, out, err = run_cli(
        capsys, "tables", "--which", "1", "--format", "json", "--out", str(path)
    )
    assert code == 0
    rows = json.loads(path.read_text())
    assert len(rows) == 64


def test_tables_which_3_usage_error(capsys):
    code, _, _ = run_cli(capsys, "tables", "--which", "3")
    assert code == 2


def test_protocol_honest(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"secret": "110011101", "seed": 5}))
    code, out, _ = run_cli(capsys, "protocol", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["recovered_secret"] == "110011101"
    assert doc["verdict"] == "accept"


def test_protocol_liar(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "secret": "110011101",
                "seed": 5,
                "schedule": [
                    {"kind": "message"},
                    {"kind": "message", "liars": ["P1"]},
                    {"kind": "message"},
                ],
            }
        )
    )
    code, out, _ = run_cli(capsys, "protocol", str(cfg))
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "reject"
    assert len(doc["rounds"]) == 2


def test_protocol_missing_file(capsys):
    code, _, _ = run_cli(capsys, "protocol", "/nonexistent/cfg.json")
    assert code == 2


def test_attack_intercept_wrong_mark_final(capsys):
    code, out, _ = run_cli(
        capsys,
        "attack", "intercept", "--k-true", "1", "--m", "110",
        "--k-guess", "9", "--M", "111",
    )
    assert code == 0
    doc = json.loads(out)
    final = dict(
        (s["label"], s["amplitudes"]) for s in doc["intermediate_states"]
    )["final"]
    # |000> coefficient of the published final state: (4+3i)/(4*sqrt8)
    assert final[0] == pytest.approx([0.353553390593, 0.265165042945], abs=1e-9)


def test_attack_resend(capsys):
    code, out, _ = run_cli(capsys, "attack", "resend")
    assert code == 0
    doc = json.loads(out)
    derived = {c["name"]: c["derived"] for c in doc["claims"]}
    assert derived["detection_message_round"] == 0.625
    assert derived["detection_cheat_round"] == 0.875
    assert derived["detection_average"] == 0.75


def test_attack_entangle(capsys):
    code, out, _ = run_cli(capsys, "attack", "entangle")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["intermediate_states"]) == 3
    (claim,) = doc["claims"]
    assert claim["derived"] == pytest.approx(13 / 32)
    assert claim["claimed"] == pytest.approx(5 / 32)


def test_attack_lie(capsys):
    code, out, _ = run_cli(capsys, "attack", "lie", "--m", "101", "--flips", "P1", "P2")
    assert code == 0
    doc = json.loads(out)
    assert doc["details"]["reconstructed"] == "011"


def test_attack_bad_params(capsys):
    code, _, _ = run_cli(capsys, "attack", "intercept", "--k-true", "99")
    assert code == 2


def test_sample_basic(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--k", "1", "--m", "110", "--shots", "8192", "--seed", "7"
    )
    assert code == 0
    doc = json.loads(out)
    p110 = next(o for o in doc["outcomes"] if o["label"] == "110")
    assert abs(p110["empirical_p"] - 121 / 128) < 0.01
    assert p110["exact_p_3dp"] == 0.945


def test_sample_zero_shots(capsys):
    code, _, _ = run_cli(capsys, "sample", "--shots", "0")
    assert code == 2


def test_sample_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "sample", "--shots", "512", "--seed", "3")
    _, out2, _ = run_cli(capsys, "sample", "--shots", "512", "--seed", "3")
    assert out1 == out2


def test_tables_byte_identical(capsys):
    _, out1, err1 = run_cli(capsys, "tables", "--which", "1", "--format", "markdown")
    _, out2, err2 = run_cli(capsys, "tables", "--which", "1", "--format", "markdown")
    assert out1 == out2 and err1 == err2


@pytest.mark.parametrize(
    "argv",
    [
        ("attack", "resend", "--seed", "3"),
        ("attack", "resend", "--format", "csv"),
        ("protocol", "{cfg}", "--format", "json"),
        ("sample", "--format", "markdown"),
        ("attack", "lie", "--k-true", "7"),
        ("attack", "lie", "--k-guess", "5"),
        ("attack", "lie", "--M", "000"),
        ("attack", "lie", "--control", "3"),
        ("attack", "intercept", "--flips", "P1"),
        ("attack", "intercept", "--control", "3"),
        ("attack", "resend", "--m", "011"),
        ("attack", "resend", "--flips", "P1"),
        ("attack", "resend", "--k-true", "7"),
        ("attack", "resend", "--k-guess", "5"),
        ("attack", "resend", "--M", "000"),
        ("attack", "resend", "--control", "3"),
        ("attack", "entangle", "--flips", "P1"),
        ("attack", "entangle", "--k-guess", "5"),
        ("attack", "entangle", "--M", "000"),
        ("tables", "--which", "1", "--M", "000"),
        ("attack", "intercept", "--M", "000"),
    ],
)
def test_flags_without_effect_are_rejected(argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"secret": "110011101", "seed": 5}))
    code, out, _ = run_cli(capsys, *(a.format(cfg=cfg) for a in argv))
    assert code == 2 and out == ""


#: A bad ``attack lie --m`` gets the message of every other label check.
LIE_MARK_ERRORS = {
    "11": "label '11' is not 3 bits",
    "xyz": "not a bit string: 'xyz'",
    "abc": "not a bit string: 'abc'",
    "0110": "label '0110' is not 3 bits",
}


@pytest.mark.parametrize("mark", LIE_MARK_ERRORS)
def test_attack_lie_rejects_a_mark_that_is_not_3_bits(mark, capsys):
    code, out, err = run_cli(capsys, "attack", "lie", "--m", mark, "--flips", "P3")
    assert code == 2 and out == ""
    assert err == f"error: {LIE_MARK_ERRORS[mark]}\n"


@pytest.mark.parametrize(
    "cfg",
    [
        {"secret": 110},
        {"secret": "110", "schedule": "x"},
        {"secret": "110", "schedule": [{"liars": ["P1"]}]},
        {"secret": "110", "schedule": [1]},
        5,
        {"secret": "110", "seed": [1]},
        {"secret": "110", "seed": "5"},
        {"secret": "110", "seed": 5.7},
        {"secret": "110", "seed": True},
        {"secret": "110", "schedule": [{"kind": "cheat_detect", "marked": [1]},
                                       {"kind": "message"}]},
        {"secret": "110", "schedule": [{"kind": "message", "liars": 5}]},
        {"secret": "110", "schedule": [{"kind": "message", "liar": ["P1"]}]},
        {"secret": "110", "schedule": [{"kind": "message", "marked": "111"}]},
        {"secret": "110", "measurment_mode": "sampled"},
        {"secret": "110", "schedule": [{"kind": "cheat_detect", "marked": ""},
                                       {"kind": "message"}]},
        # A bad round after one that rejects (at seed 2, an earlier round rejects).
        {"secret": "110011101", "seed": 2, "measurement_mode": "sampled",
         "schedule": [{"kind": "message"}, {"kind": "message"},
                      {"kind": "message", "no_declaration": ["P7"]}]},
        {"secret": "110011", "schedule": [{"kind": "message", "liars": ["P1"]},
                                          {"kind": "message", "liars": ["P9"]}]},
        {"secret": "110", "schedule": [{"kind": "message", "liars": ["P1"]},
                                       {"kind": "cheat_detect", "marked": "110"}]},
    ],
)
def test_malformed_session_config_is_a_usage_error(cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "protocol", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_unallocatable_shots_is_a_usage_error(src_env):
    # 10**11 shots is over grover.MAX_SHOTS, so sample refuses it before any
    # draw; drawn, it would take minutes.  The 2 GiB address-space limit
    # stays so that a sampler which allocates per shot fails fast too.
    proc = subprocess.run(
        [sys.executable, "-m", "groverqss.cli", "sample", "--shots", "100000000000"],
        capture_output=True, text=True, env=src_env, preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_deeply_nested_session_config_is_a_usage_error(tmp_path, capsys):
    # json.dumps cannot write this nesting depth, so the raw text is written.
    path = tmp_path / "cfg.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, "protocol", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    (path / "cfg.json").write_text(json.dumps({"secret": "110011101", "seed": 5}))
    (path / "negative_seed.json").write_text(json.dumps({"secret": "110011101", "seed": -3}))
    return path


# Any JSON value; the config fuzz mixes these with well-formed fields so that
# most examples get past the first check.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
names = st.lists(st.sampled_from(["P1", "P2", "P3", "P4"]), max_size=3)
schedule_entries = st.fixed_dictionaries(
    {"kind": st.sampled_from(["message", "cheat_detect", "other"]) | json_values},
    optional={
        "liars": names | json_values,
        "no_declaration": names | json_values,
        "marked": st.sampled_from(["000", "111", "110", "01"]) | json_values,
        "liar": names,
    },
)
session_configs = json_values | st.fixed_dictionaries(
    {"secret": st.sampled_from(["110", "110011", "011101110", "11", "120", ""]) | json_values},
    optional={
        "seed": st.integers(min_value=-2, max_value=2**40) | json_values,
        "measurement_mode": st.sampled_from(["top", "sampled"]) | json_values,
        "schedule": st.lists(schedule_entries, max_size=4) | json_values,
        "measurment_mode": st.just("sampled"),
    },
)


def assert_clean_exit(code, out, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and "Traceback" not in err


@given(cfg=session_configs)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_session_config_exits_cleanly(cfg, work_dir, capsys):
    path = work_dir / "fuzz.json"
    path.write_text(json.dumps(cfg))
    assert_clean_exit(*run_cli(capsys, "protocol", str(path)))


labels = st.sampled_from(["000", "110", "011", "111", "11", "1101", "xyz", ""])
ints = st.integers(min_value=-3, max_value=70).map(str) | st.sampled_from(["x", "1.5", ""])
outs = st.sampled_from(["{dir}/out.txt", "/nonexistent/x"])
FLAGS = {
    ("tables",): {"--which": st.sampled_from(["1", "2", "3"]), "--enc-k": ints,
                  "--m": labels, "--M": labels, "--out": outs,
                  "--format": st.sampled_from(["csv", "json", "markdown", "yaml"])},
    ("protocol", "{dir}/cfg.json"): {"--seed": ints, "--out": outs},
    ("attack", "lie"): {"--m": labels, "--flips": st.sampled_from(["P1", "P4", "P1 P3"]),
                        "--out": outs},
    ("attack", "intercept"): {"--k-true": ints, "--m": labels, "--k-guess": ints,
                              "--M": labels, "--out": outs},
    ("attack", "resend"): {"--out": outs},
    ("attack", "entangle"): {"--k-true": ints, "--m": labels, "--control": ints,
                             "--out": outs},
    ("sample",): {"--k": ints, "--m": labels, "--seed": ints, "--out": outs,
                  "--shots": st.integers(min_value=-1, max_value=10**4).map(str),
                  "--format": st.sampled_from(["csv", "json"])},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    # Flags come from every subcommand, so some examples use one where it
    # does not belong.
    chosen = draw(st.lists(st.sampled_from(sorted({f for fs in FLAGS.values() for f in fs})),
                           max_size=4, unique=True))
    argv = list(command)
    for flag in chosen:
        argv.append(flag)
        argv += draw(flags.get(flag, st.just("1"))).split(" ")
    return argv


@given(argv=argvs())
@example(argv=["attack", "resend", "--out", "/nonexistent/x"])
@example(argv=["sample", "--out", "/nonexistent/x"])
@example(argv=["protocol", "{dir}/cfg.json", "--out", "/nonexistent/x"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_argv_exits_cleanly(argv, work_dir, capsys):
    assert_clean_exit(*run_cli(capsys, *(a.format(dir=work_dir) for a in argv)))


@pytest.mark.parametrize(
    "argv",
    [
        ("attack", "resend", "--out", "/nonexistent/x"),
        ("sample", "--out", "/nonexistent/x"),
        ("protocol", "{dir}/cfg.json", "--out", "/nonexistent/x"),
    ],
)
def test_unwritable_out_is_a_usage_error(argv, work_dir, capsys):
    code, out, err = run_cli(capsys, *(a.format(dir=work_dir) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("protocol", "{dir}/cfg.json", "--seed", "-3"),
         "groverqss protocol: error: argument --seed: must be a non-negative integer, got -3"),
        (("protocol", "{dir}/negative_seed.json"),
         "error: session 'seed' must be a non-negative integer, got -3"),
        (("sample", "--seed", "-1"),
         "groverqss sample: error: argument --seed: must be a non-negative integer, got -1"),
    ],
)
def test_a_negative_seed_is_named_in_its_error(argv, message, work_dir, capsys):
    # numpy's own refusal, "expected non-negative integer", names no input.
    code, out, err = run_cli(capsys, *(a.format(dir=work_dir) for a in argv))
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == message
