import json
import random
from fractions import Fraction

import numpy as np
import pytest

from groverqss import protocol
from groverqss.catalog import CHEAT_DETECT_MARKS, MESSAGE_MARKS, initial_state, phase_table
from groverqss.grover import collective_op, encode, sample
from groverqss.protocol import (
    HONEST_PHASE,
    MEASUREMENT_MODES,
    PARTICIPANTS,
    Event,
    ProtocolTranscript,
    RoundConfig,
    SessionResult,
    dealer_verify,
    load_session_config,
    run_round,
    run_session,
    split_secret,
)

#: Every (round kind, mark) a round can carry.
ROUNDS = [("message", m) for m in sorted(MESSAGE_MARKS)]
ROUNDS += [("cheat_detect", m) for m in sorted(CHEAT_DETECT_MARKS)]


def test_split_secret_nine_bit_example():
    assert split_secret("110011101") == ["110", "011", "101"]


def test_split_secret_single_chunk():
    assert split_secret("110") == ["110"]


def test_split_secret_cheat_chunk_rejected():
    with pytest.raises(ValueError, match="111"):
        split_secret("110111101")


def test_split_secret_bad_length():
    with pytest.raises(ValueError, match="multiple of 3"):
        split_secret("1100")


def test_round_config_mark_consistency():
    with pytest.raises(ValueError):
        RoundConfig(k=1, marked="111", round_kind="message")
    with pytest.raises(ValueError):
        RoundConfig(k=1, marked="110", round_kind="cheat_detect")
    with pytest.raises(ValueError):
        RoundConfig(k=1, marked="110", round_kind="message", liars=frozenset({"P9"}))


@pytest.mark.parametrize("k", [True, False, 0, 65, -1, 3.0, "3", None])
def test_round_config_refuses_a_k_outside_the_catalog(k):
    with pytest.raises(ValueError, match="round 'k' must be an integer in 1..64"):
        RoundConfig(k=k, marked="110", round_kind="message")


@pytest.mark.parametrize("k", [1, 5, 64, np.int64(5)])
def test_round_config_takes_any_integer_k_in_the_catalog(k):
    cfg = RoundConfig(k=k, marked="110", round_kind="message")
    assert type(cfg.k) is int and cfg.k == k
    assert json.loads(run_round(cfg).to_json())[0]["k"] == k


def test_honest_phase_is_every_catalog_row_against_itself():
    table = phase_table()
    assert (table.conj() * table).tolist() == [list(HONEST_PHASE)] * 64


@pytest.mark.parametrize("k", range(1, 65))
def test_sampled_round_picks_the_float_decode_outcome(k):
    sk = initial_state(k)
    for kind, marked in ROUNDS:
        final = collective_op(encode(sk, marked), sk)[1]
        for seed in range(8):
            cfg = RoundConfig(k=k, marked=marked, round_kind=kind, seed=seed,
                              measurement_mode="sampled")
            (op,) = run_round(cfg).of_kind("collective_op")
            assert [op.data["outcome"]] == list(sample(final, 1, seed).counts)


def test_honest_round_accepts():
    t = run_round(RoundConfig(k=1, marked="110", round_kind="message"))
    reports = [e.data["bit"] for e in t.of_kind("report")]
    assert reports == [1, 1, 0]
    assert t.verdict.data["verdict"] == "accept"


@pytest.mark.parametrize("k", range(1, 65))
def test_every_honest_round_recovers_its_mark_exactly(k):
    for kind, marked in ROUNDS:
        t = run_round(RoundConfig(k=k, marked=marked, round_kind=kind))
        (op,) = t.of_kind("collective_op")
        assert op.data["M"] == op.data["outcome"] == marked
        # 1936/2048 at the mark and 16/2048 elsewhere, exact after rounding.
        want = [1936 / 2048 if i == int(marked, 2) else 16 / 2048 for i in range(8)]
        assert op.data["final_distribution"] == want
        assert t.verdict.data["verdict"] == "accept"


def test_lying_round_rejected():
    cfg = RoundConfig(
        k=1, marked="101", round_kind="message", liars=frozenset({"P1", "P2"})
    )
    t = run_round(cfg)
    assert t.verdict.data["verdict"] == "reject"
    assert "011" in t.verdict.data["reason"]


def test_cheat_detect_round_accepts():
    t = run_round(RoundConfig(k=23, marked="111", round_kind="cheat_detect"))
    assert t.verdict.data["verdict"] == "accept"


def test_no_declaration_rejected():
    cfg = RoundConfig(
        k=1, marked="110", round_kind="message", no_declaration=frozenset({"P3"})
    )
    t = run_round(cfg)
    assert t.verdict.data["verdict"] == "reject"
    assert "no declaration" in t.verdict.data["reason"]


def test_announce_after_acks():
    t = run_round(RoundConfig(k=5, marked="011", round_kind="message"))
    kinds = [e.kind for e in t.events]
    assert kinds.index("announce") > max(
        i for i, k in enumerate(kinds) if k == "ack"
    )
    assert kinds.count("report") == 3


def test_dealer_verify_direct():
    t = ProtocolTranscript(
        [Event("report", {"participant": p, "bit": bit}) for p, bit in zip(PARTICIPANTS, (1, 1, 0))]
    )
    assert dealer_verify(t, "110") == ("accept", "reports match the marked state")
    assert dealer_verify(t, "101")[0] == "reject"

    partial = ProtocolTranscript([
        Event("report", {"participant": "P1", "bit": 0}),
        Event("report", {"participant": "P2", "bit": 1}),
    ])
    verdict, reason = dealer_verify(partial, "011")
    assert verdict == "reject" and "no declaration" in reason


def test_session_recovers_secret():
    result = run_session("110011101", seed=123)
    assert result.verdict == "accept"
    assert result.recovered_secret == "110011101"
    # default schedule: one cheat-detect round then three message rounds
    assert len(result.transcripts) == 4


def test_session_aborts_on_liar():
    schedule = [
        {"kind": "message"},
        {"kind": "message", "liars": ["P2"]},
        {"kind": "message"},
    ]
    result = run_session("110011101", schedule=schedule, seed=9)
    assert result.verdict == "reject"
    assert result.recovered_secret is None
    assert len(result.transcripts) == 2  # aborted at the lying round


def test_session_reproducible():
    a = run_session("110011101", seed=77)
    b = run_session("110011101", seed=77)
    assert [t.to_json() for t in a.transcripts] == [t.to_json() for t in b.transcripts]


def per_draw_session(secret, schedule, seed, measurement_mode):
    """The reference for ``run_session``'s draws: one scalar ``integers``
    call per draw, each made as its round reaches it."""
    shares = split_secret(secret)
    if schedule is None:
        schedule = [{"kind": "cheat_detect"}] + [{"kind": "message"}] * len(shares)
    rng = np.random.default_rng(seed)
    cheat_marks = sorted(CHEAT_DETECT_MARKS)
    transcripts, recovered, share_iter = [], [], iter(shares)
    for entry in schedule:
        kind = entry["kind"]
        if kind == "message":
            marked = next(share_iter)
        else:
            marked = entry.get("marked")
            if marked is None:
                marked = cheat_marks[rng.integers(len(cheat_marks))]
        cfg = RoundConfig(
            k=int(rng.integers(1, 65)),
            marked=marked,
            round_kind=kind,
            liars=frozenset(entry.get("liars", ())),
            no_declaration=frozenset(entry.get("no_declaration", ())),
            seed=int(rng.integers(2**31)),
            measurement_mode=measurement_mode,
        )
        t = run_round(cfg)
        transcripts.append(t)
        if t.events[-1].data["verdict"] == "reject":
            return SessionResult(transcripts, None, "reject")
        if kind == "message":
            recovered.append(marked)
    return SessionResult(transcripts, "".join(recovered), "accept")


def random_session(i):
    """Session ``i`` of the stream-equivalence test: one in ten has the
    default schedule; the others mix cheat-detect rounds with and without
    ``marked`` among the message rounds, with a liar or a silent participant
    in about one round in twenty."""
    rng = random.Random(i)
    shares = rng.randint(1, 12)
    secret = "".join(rng.choice(sorted(MESSAGE_MARKS)) for _ in range(shares))
    seed = rng.randrange(2**64) if i % 3 else rng.randrange(1000)
    if i % 10 == 0:
        return secret, None, seed, MEASUREMENT_MODES[i % 4 // 2]
    schedule = [{"kind": "message"} for _ in range(shares)]
    for _ in range(rng.randint(0, 6)):
        entry = {"kind": "cheat_detect"}
        if rng.random() < 0.5:
            entry["marked"] = rng.choice(sorted(CHEAT_DETECT_MARKS))
        schedule.insert(rng.randrange(len(schedule) + 1), entry)
    for entry in schedule:
        r = rng.random()
        if r < 0.03:
            entry["liars"] = rng.sample(PARTICIPANTS, rng.randint(1, 3))
        elif r < 0.05:
            entry["no_declaration"] = rng.sample(PARTICIPANTS, rng.randint(1, 3))
    return secret, schedule, seed, MEASUREMENT_MODES[i % 2]


def session_summary(result):
    return (result.verdict, result.recovered_secret,
            [[e.to_dict() for e in t.events] for t in result.transcripts])


def test_one_draw_per_session_equals_the_per_round_draws():
    # Every bounded draw below 2**32 takes the next 32 bits of PCG64, from a
    # scalar call or a broadcast one alike.
    seen = set()
    for i in range(400):
        secret, schedule, seed, mode = random_session(i)
        got = run_session(secret, schedule, seed=seed, measurement_mode=mode)
        want = per_draw_session(secret, schedule, seed, mode)
        assert session_summary(got) == session_summary(want), i
        seen.add((schedule is None, mode, got.verdict))
    # Both schedules and both modes; sessions that abort leave draws unused.
    assert {(d, m) for d, m, _ in seen} == {(d, m) for d in (True, False) for m in MEASUREMENT_MODES}
    assert {(False, m, v) for m in MEASUREMENT_MODES for v in ("accept", "reject")} <= seen


@pytest.mark.parametrize("mode", MEASUREMENT_MODES)
def test_a_session_makes_one_integers_call(mode, monkeypatch):
    default_rng = np.random.default_rng

    class CountingGenerator(np.random.Generator):
        calls = 0

        def integers(self, *args, **kwargs):
            self.calls += 1
            return super().integers(*args, **kwargs)

    made = []

    def counting_rng(seed=None):
        made.append(CountingGenerator(default_rng(seed).bit_generator))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    schedule = [{"kind": "message"}, {"kind": "cheat_detect"}, {"kind": "message"},
                {"kind": "cheat_detect", "marked": "000"}, {"kind": "message"}]
    result = run_session("110011101", schedule, seed=3, measurement_mode=mode)
    assert len(result.transcripts) == 5
    # A sampled round's one-shot generator draws one double and no integer.
    sampled_rounds = 5 if mode == "sampled" else 0
    assert [g.calls for g in made] == [1] + [0] * sampled_rounds


@pytest.mark.parametrize("mode", MEASUREMENT_MODES)
def test_a_session_decodes_its_rounds_in_one_stacked_call(mode, monkeypatch):
    calls = {"decode_relative_rows": 0, "decode_relative": 0}

    def counting(name):
        fn = getattr(protocol, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(protocol, name, counting(name))
    # Three message rounds share one mark; seed 0 runs all four rounds in both modes.
    result = run_session("110110110", seed=0, measurement_mode=mode)
    assert result.verdict == "accept" and len(result.transcripts) == 4
    assert calls == {"decode_relative_rows": 1, "decode_relative": 0}
    # Each round's decode is its own: no list is shared between rounds.
    dists = [t.of_kind("collective_op")[0].data["final_distribution"] for t in result.transcripts]
    assert len({id(d) for d in dists}) == len(dists)


#: Sessions whose bad config sits after a round that can reject.
LATE_BAD_ROUNDS = [
    ("110011101", [{"kind": "message"}, {"kind": "message"},
                   {"kind": "message", "no_declaration": ["P7"]}]),
    ("110011", [{"kind": "message", "liars": ["P1"]}, {"kind": "message", "liars": ["P9"]}]),
    ("110", [{"kind": "message", "liars": ["P1"]}, {"kind": "cheat_detect", "marked": "110"}]),
]


@pytest.mark.parametrize("secret,schedule", LATE_BAD_ROUNDS)
def test_every_round_is_checked_before_the_first_round_runs(secret, schedule):
    # Whether an earlier round rejects depends on the seed; the error must not.
    for seed in range(10):
        with pytest.raises(ValueError):
            run_session(secret, schedule, seed=seed, measurement_mode="sampled")


def test_session_schedule_share_count_checked():
    with pytest.raises(ValueError, match="message round per share"):
        run_session("110011101", schedule=[{"kind": "message"}], seed=0)


def test_sampled_mode_round_runs():
    t = run_round(
        RoundConfig(k=1, marked="110", round_kind="message", seed=5, measurement_mode="sampled")
    )
    assert t.verdict.data["verdict"] in ("accept", "reject")
    outcome = t.of_kind("collective_op")[0].data["outcome"]
    assert len(outcome) == 3


def test_transcript_json_export():
    t = run_round(RoundConfig(k=1, marked="110", round_kind="message"))
    events = json.loads(t.to_json())
    assert events[0] == {"kind": "prepare", "k": 1, "round_kind": "message"}
    assert events[-1]["kind"] == "verdict"


def test_config_round_trip(tmp_path):
    cfg = {
        "secret": "110011101",
        "seed": 4,
        "measurement_mode": "sampled",
        "schedule": [
            {"kind": "cheat_detect"},
            {"kind": "message"},
            {"kind": "message"},
            {"kind": "message"},
        ],
    }
    path = tmp_path / "session.json"
    path.write_text(json.dumps(cfg))
    # The config's keys are run_session's parameter names.
    result = run_session(**load_session_config(path))
    assert result == run_session("110011101", cfg["schedule"], seed=4, measurement_mode="sampled")
    top = run_session("110011101", cfg["schedule"], seed=4)
    assert top.recovered_secret == "110011101"
    assert result != top  # the mode reached the rounds


def test_config_requires_secret(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(ValueError, match="secret"):
        load_session_config(path)


def binomial_two_sided_p(n, r, num, den):
    """Exact two-sided p-value of r successes in n trials at p = num/den:
    the total probability of every count no more likely than r."""
    # term[i] = C(n, i) num^i (den - num)^(n - i); each step divides exactly.
    terms = [(den - num) ** n]
    for i in range(n):
        terms.append(terms[-1] * (n - i) * num // ((i + 1) * (den - num)))
    return Fraction(sum(t for t in terms if t <= terms[r]), den**n)


def test_binomial_two_sided_p_of_a_small_case():
    # n = 4, p = 1/2: counts 0 and 4 have probability 1/16 each, 1 and 3 1/4.
    assert binomial_two_sided_p(4, 0, 1, 2) == Fraction(2, 16)
    assert binomial_two_sided_p(4, 1, 1, 2) == Fraction(10, 16)
    assert binomial_two_sided_p(4, 2, 1, 2) == 1


def test_honest_sampled_rounds_reject_at_the_rate_7_in_128():
    # An honest round decodes m with probability 1936/2048 = 121/128, so a
    # sampled round rejects with probability 7/128.
    n = 4096
    rejects = 0
    for i in range(n):
        kind, m = ROUNDS[i % len(ROUNDS)]
        cfg = RoundConfig(k=i % 64 + 1, marked=m, round_kind=kind, seed=i,
                          measurement_mode="sampled")
        rejects += run_round(cfg).verdict.data["verdict"] == "reject"
    assert binomial_two_sided_p(n, rejects, 7, 128) >= Fraction(1, 10**6), rejects
