"""Four-party session state machine: dealer D and participants P1-P3.

A round walks prepare -> distribute -> ack -> announce -> collective decode
-> local measurement -> reports -> dealer verdict, and everything is logged
as an ordered transcript so rounds are fully reproducible from (config,
seed).  The secure classical channel is modeled as in-transcript events; no
cryptography is simulated.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _jsontext
from .catalog import CHEAT_DETECT_MARKS, MESSAGE_MARKS, initial_state
from .grover import decode_relative, decode_relative_rows, exact_final_state, sample
from .statevec import LABELS, label_to_index

PARTICIPANTS = ("P1", "P2", "P3")
_PARTICIPANT_SET = frozenset(PARTICIPANTS)

#: Local measurement modes: "top" reads off the smallest label of the final
#: argmax set; "sampled" draws a single seeded shot from the final
#: distribution, exposing the ~1 - 0.945 failure channel.
MEASUREMENT_MODES = ("top", "sampled")

#: The relative phase conj(V_k) ⊙ V_k of an honest round: all ones for every
#: k, so each round decodes exactly from this one row.
HONEST_PHASE = (1,) * 8


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
        try:
            k = operator.index(self.k)
        except TypeError:
            k = None
        if k is None or isinstance(self.k, bool) or not 1 <= k <= 64:
            raise ValueError(f"round 'k' must be an integer in 1..64, got {self.k!r}")
        object.__setattr__(self, "k", k)  # e.g. np.int64(5) is kept as the int 5
        if self.round_kind not in ("message", "cheat_detect"):
            raise ValueError(f"unknown round kind {self.round_kind!r}")
        marks = MESSAGE_MARKS if self.round_kind == "message" else CHEAT_DETECT_MARKS
        if self.marked not in marks:
            raise ValueError(
                f"marked state {self.marked!r} is not a {self.round_kind} mark"
            )
        if self.measurement_mode not in MEASUREMENT_MODES:
            raise ValueError(f"unknown measurement mode {self.measurement_mode!r}")
        unknown = (self.liars | self.no_declaration) - _PARTICIPANT_SET
        if unknown:
            raise ValueError(f"unknown participants: {sorted(unknown)}")


class Event(NamedTuple):
    kind: str
    data: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.data}


@dataclass
class ProtocolTranscript:
    """Ordered event log of one protocol round."""

    events: list[Event] = field(default_factory=list)

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    @property
    def verdict(self) -> Event:
        (v,) = self.of_kind("verdict")
        return v

    def to_json(self) -> str:
        return _jsontext.dumps([e.to_dict() for e in self.events]) + "\n"


@dataclass(frozen=True)
class SessionResult:
    transcripts: list[ProtocolTranscript]
    recovered_secret: str | None
    verdict: str  # "accept" or "reject"


def split_secret(secret: str) -> list[str]:
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
        shares.append(chunk)
    return shares


def run_round(cfg: RoundConfig) -> ProtocolTranscript:
    """Execute one protocol round and return its transcript."""
    dec = decode_relative(HONEST_PHASE, cfg.marked)
    return _play(cfg, dec.chosen_M, dec.final_dist, dec.final_set[0], dec.n2)


def _play(cfg: RoundConfig, M: str, final_dist: list, top: str, n2: list) -> ProtocolTranscript:
    """The transcript of round ``cfg`` from its decode: the mark M, the final
    distribution, the smallest label of the final tie set and n2."""
    if cfg.measurement_mode == "top":
        outcome = top
    else:
        (outcome,) = sample(exact_final_state(initial_state(cfg.k), n2), 1, cfg.seed).counts
    bits = [int(b) for b in outcome]
    events = [
        Event("prepare", {"k": cfg.k, "round_kind": cfg.round_kind}),
        Event("distribute", {"qubit": 1, "participant": "P1"}),
        Event("distribute", {"qubit": 2, "participant": "P2"}),
        Event("distribute", {"qubit": 3, "participant": "P3"}),
        Event("ack", {"participant": "P1"}),
        Event("ack", {"participant": "P2"}),
        Event("ack", {"participant": "P3"}),
        Event("announce", {"k": cfg.k}),
        Event("collective_op", {"M": M, "final_distribution": final_dist, "outcome": outcome}),
    ]
    events += [Event("local_measure", {"participant": p, "bit": b}) for p, b in zip(PARTICIPANTS, bits)]
    events += [Event("report", {"participant": p, "bit": b ^ (p in cfg.liars)})
               for p, b in zip(PARTICIPANTS, bits) if p not in cfg.no_declaration]
    t = ProtocolTranscript(events)
    verdict, reason = dealer_verify(t, cfg.marked)
    events.append(Event("verdict", {"verdict": verdict, "reason": reason}))
    return t


def dealer_verify(t: ProtocolTranscript, expected_marked: str) -> tuple[str, str]:
    """Accept iff the three reported bits reconstruct the expected mark."""
    reports = {e.data["participant"]: str(e.data["bit"]) for e in t.events if e.kind == "report"}
    missing = [p for p in PARTICIPANTS if p not in reports]
    if missing:
        return "reject", f"no declaration from {', '.join(missing)}"
    reconstructed = "".join(map(reports.get, PARTICIPANTS))
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
    rounds.  Every round's config is checked before the first round runs;
    the session aborts at the first rejected verdict.
    One ``default_rng(seed).integers(0, bounds)`` call makes every draw, in
    round order: a cheat mark (5) where a cheat-detect entry names none, k
    (64, plus 1) and the round seed (2**31), each equal to a scalar call's.
    One pass of the grid's ``exact_step_rows`` kernel decodes every round
    from its own row (``decode_relative_rows``); nothing is cached per mark.
    """
    shares = split_secret(secret)
    if schedule is None:
        schedule = [{"kind": "cheat_detect"}] + [{"kind": "message"}] * len(shares)
    if sum(1 for e in schedule if e["kind"] == "message") != len(shares):
        raise ValueError("schedule must contain exactly one message round per share")

    cheat_marks = sorted(CHEAT_DETECT_MARKS)
    bounds = []
    for entry in schedule:
        if entry["kind"] != "message" and entry.get("marked") is None:
            bounds.append(len(cheat_marks))
        bounds += (64, 2**31)
    draws = iter(np.random.default_rng(seed).integers(0, bounds).tolist())
    share_iter = iter(shares)
    cfgs = []
    for entry in schedule:
        kind = entry["kind"]
        if kind == "message":
            marked = next(share_iter)
        else:
            marked = entry.get("marked")
            if marked is None:
                marked = cheat_marks[next(draws)]
        cfgs.append(RoundConfig(
            k=next(draws) + 1,
            marked=marked,
            round_kind=kind,
            liars=frozenset(entry.get("liars", ())),
            no_declaration=frozenset(entry.get("no_declaration", ())),
            seed=next(draws),
            measurement_mode=measurement_mode,
        ))
    decoded = decode_relative_rows(np.ones((len(cfgs), 8), dtype=np.int64),
                                   [label_to_index(cfg.marked) for cfg in cfgs])
    transcripts: list[ProtocolTranscript] = []
    for cfg, M, final_dist, ties, n2 in zip(cfgs, *decoded):
        t = _play(cfg, LABELS[M], final_dist, LABELS[ties.index(True)], n2)
        transcripts.append(t)
        if t.events[-1].data["verdict"] == "reject":
            return SessionResult(transcripts, None, "reject")
    return SessionResult(transcripts, secret, "accept")


def load_session_config(path: str | Path) -> dict:
    """Read a session config JSON: secret, schedule, seed, measurement mode.

    The keys are ``run_session``'s parameter names, so ``run_session(**cfg)``
    runs it.  This is the config's one type check; its values are checked
    where they are used (``split_secret``, ``run_session``, ``RoundConfig``).
    """
    try:
        cfg = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"session config {path} is nested too deeply to parse") from None
    if not isinstance(cfg, dict) or not isinstance(cfg.get("secret"), str):
        raise ValueError("session config must be an object with a string 'secret' field")
    _known_keys(cfg, {"secret", "schedule", "seed", "measurement_mode"}, "session config")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"session 'seed' must be a non-negative integer, got {seed!r}")
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
