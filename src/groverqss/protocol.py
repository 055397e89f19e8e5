"""Four-party session state machine: dealer D and participants P1-P3.

A round walks prepare -> distribute -> ack -> announce -> collective decode
-> local measurement -> reports -> dealer verdict, and everything is logged
as an ordered transcript so rounds are fully reproducible from (config,
seed).  The secure classical channel is modeled as in-transcript events; no
cryptography is simulated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .catalog import CHEAT_DETECT_MARKS, MESSAGE_MARKS, initial_state
from .grover import argmax_labels, collective_op, encode, sample
from .statevec import validate_label

PARTICIPANTS = ("P1", "P2", "P3")

#: Local measurement modes: "top" reads off the smallest label of the final
#: argmax set; "sampled" draws a single seeded shot from the final
#: distribution, exposing the ~1 - 0.945 failure channel.
MEASUREMENT_MODES = ("top", "sampled")


@dataclass(frozen=True)
class Share:
    """A 3-bit secret share, restricted to the message mark alphabet."""

    bits: str

    def __post_init__(self):
        validate_label(self.bits)
        if len(self.bits) != 3:
            raise ValueError(f"share must be 3 bits, got {self.bits!r}")


@dataclass(frozen=True)
class RoundConfig:
    k: int
    marked: str
    round_kind: str  # "message" or "cheat_detect"
    liars: frozenset[str] = frozenset()  # participants who flip their report
    no_declaration: frozenset[str] = frozenset()  # participants who stay silent
    seed: int = 0
    measurement_mode: str = "top"

    def __post_init__(self):
        if self.round_kind not in ("message", "cheat_detect"):
            raise ValueError(f"unknown round kind {self.round_kind!r}")
        marks = MESSAGE_MARKS if self.round_kind == "message" else CHEAT_DETECT_MARKS
        if self.marked not in marks:
            raise ValueError(
                f"marked state {self.marked!r} is not a {self.round_kind} mark"
            )
        if self.measurement_mode not in MEASUREMENT_MODES:
            raise ValueError(f"unknown measurement mode {self.measurement_mode!r}")
        unknown = (self.liars | self.no_declaration) - set(PARTICIPANTS)
        if unknown:
            raise ValueError(f"unknown participants: {sorted(unknown)}")


@dataclass(frozen=True)
class Event:
    kind: str
    data: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.data}


@dataclass
class ProtocolTranscript:
    """Ordered event log of one protocol round."""

    events: list[Event] = field(default_factory=list)

    def add(self, kind: str, **data):
        self.events.append(Event(kind, data))

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    @property
    def verdict(self) -> Event:
        (v,) = self.of_kind("verdict")
        return v

    def to_json(self) -> str:
        return json.dumps([e.to_dict() for e in self.events], indent=2) + "\n"


@dataclass(frozen=True)
class SessionResult:
    transcripts: list[ProtocolTranscript]
    recovered_secret: str | None
    verdict: str  # "accept" or "reject"


def split_secret(secret: str) -> list[Share]:
    """Split a bit string into consecutive 3-bit shares.

    Every chunk must belong to the message alphabet; the protocol only ever
    encodes message marks, so arbitrary chunks are rejected.
    """
    if not secret or any(c not in "01" for c in secret):
        raise ValueError(f"secret must be a non-empty bit string, got {secret!r}")
    if len(secret) % 3 != 0:
        raise ValueError(f"secret length {len(secret)} is not a multiple of 3")
    shares = []
    for i in range(0, len(secret), 3):
        chunk = secret[i : i + 3]
        if chunk not in MESSAGE_MARKS:
            raise ValueError(f"chunk {chunk!r} is outside the message set")
        shares.append(Share(chunk))
    return shares


def run_round(cfg: RoundConfig) -> ProtocolTranscript:
    """Execute one protocol round and return its transcript."""
    t = ProtocolTranscript()
    t.add("prepare", k=cfg.k, round_kind=cfg.round_kind)
    s_k = initial_state(cfg.k)
    encoded = encode(s_k, cfg.marked)
    for i, p in enumerate(PARTICIPANTS, start=1):
        t.add("distribute", qubit=i, participant=p)
    for p in PARTICIPANTS:
        t.add("ack", participant=p)
    t.add("announce", k=cfg.k)

    phase1, final, fdist = collective_op(encoded, s_k)
    if cfg.measurement_mode == "top":
        outcome = argmax_labels(fdist, 3)[0]
    else:
        counts = sample(final, 1, cfg.seed)
        (outcome,) = counts.counts.keys()
    t.add(
        "collective_op",
        M=phase1.chosen_M,
        final_distribution=[round(float(p), 12) for p in fdist],
        outcome=outcome,
    )

    for i, p in enumerate(PARTICIPANTS):
        t.add("local_measure", participant=p, bit=int(outcome[i]))
    for i, p in enumerate(PARTICIPANTS):
        if p in cfg.no_declaration:
            continue
        bit = int(outcome[i])
        if p in cfg.liars:
            bit ^= 1
        t.add("report", participant=p, bit=bit)

    verdict, reason = dealer_verify(t, cfg.marked)
    t.add("verdict", verdict=verdict, reason=reason)
    return t


def dealer_verify(t: ProtocolTranscript, expected_marked: str) -> tuple[str, str]:
    """Accept iff the three reported bits reconstruct the expected mark."""
    reports = {e.data["participant"]: e.data["bit"] for e in t.of_kind("report")}
    missing = [p for p in PARTICIPANTS if p not in reports]
    if missing:
        return "reject", f"no declaration from {', '.join(missing)}"
    reconstructed = "".join(str(reports[p]) for p in PARTICIPANTS)
    if reconstructed != expected_marked:
        return "reject", f"reconstructed {reconstructed} != expected {expected_marked}"
    return "accept", "reports match the marked state"


def run_session(
    secret: str,
    schedule: list[dict] | None = None,
    seed: int = 0,
    measurement_mode: str = "top",
) -> SessionResult:
    """Run a full session: message rounds carrying shares, interleaved with
    dealer-chosen cheat-detect rounds.

    Each schedule entry is a dict with ``kind`` ("message" or
    "cheat_detect") and optional ``marked``, ``liars`` and
    ``no_declaration``.  Message entries consume shares in order; by
    default the schedule is one cheat-detect round followed by the message
    rounds.  Aborts at the first rejected verdict.
    """
    shares = split_secret(secret)
    if schedule is None:
        schedule = [{"kind": "cheat_detect"}] + [{"kind": "message"}] * len(shares)
    if sum(1 for e in schedule if e["kind"] == "message") != len(shares):
        raise ValueError("schedule must contain exactly one message round per share")

    rng = np.random.default_rng(seed)
    cheat_marks = sorted(CHEAT_DETECT_MARKS)
    transcripts: list[ProtocolTranscript] = []
    recovered: list[str] = []
    share_iter = iter(shares)
    for entry in schedule:
        kind = entry["kind"]
        if kind == "message":
            marked = next(share_iter).bits
        else:
            marked = entry.get("marked") or cheat_marks[rng.integers(len(cheat_marks))]
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
        if t.verdict.data["verdict"] == "reject":
            return SessionResult(transcripts, None, "reject")
        if kind == "message":
            recovered.append(marked)
    return SessionResult(transcripts, "".join(recovered), "accept")


def load_session_config(path: str | Path) -> dict:
    """Read a session config JSON: secret, schedule, seed, measurement mode.

    This is the config's one type check; its values are checked where they
    are used (``split_secret``, ``run_session``, ``RoundConfig``).
    """
    cfg = json.loads(Path(path).read_text())
    if not isinstance(cfg, dict) or not isinstance(cfg.get("secret"), str):
        raise ValueError("session config must be an object with a string 'secret' field")
    _known_keys(cfg, {"secret", "schedule", "seed", "measurement_mode"}, "session config")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"session 'seed' must be an integer, got {seed!r}")
    schedule = cfg.get("schedule")
    if schedule is not None and not (
        isinstance(schedule, list) and all(isinstance(e, dict) and "kind" in e for e in schedule)
    ):
        raise ValueError("session 'schedule' must be a list of objects, each with a 'kind'")
    for entry in schedule or ():
        keys = {"kind", "liars", "no_declaration"}
        if entry["kind"] == "cheat_detect":
            keys.add("marked")
        _known_keys(entry, keys, f"{entry['kind']!r} schedule entry")
        if not isinstance(entry.get("marked", ""), str):
            raise ValueError("schedule entry 'marked' must be a string")
        for key in ("liars", "no_declaration"):
            names = entry.get(key, [])
            if not (isinstance(names, list) and all(isinstance(p, str) for p in names)):
                raise ValueError(f"schedule entry {key!r} must be a list of participant names")
    return cfg


def _known_keys(obj: dict, allowed: set[str], where: str):
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValueError(f"unknown keys in {where}: {unknown}")


def run_session_from_config(cfg: dict) -> SessionResult:
    return run_session(
        secret=cfg["secret"],
        schedule=cfg.get("schedule"),
        seed=cfg.get("seed", 0),
        measurement_mode=cfg.get("measurement_mode", "top"),
    )
