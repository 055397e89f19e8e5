"""The sha256 of every round transcript of a fixed set of sessions.

    PYTHONPATH=src python tests/transcript_manifest.py

writes ``transcript_manifest.json`` beside this script: one key per round,
``<mode>/<session>/<round>``, mapped to the sha256 hex digest of that
round's raw ``ProtocolTranscript.to_json()`` bytes.  The sessions are 64
seeded 99-bit secrets in each measurement mode, half of them with
cheat-detect rounds inserted at seeded positions, plus short sessions with
liars, silent participants and dealer-chosen cheat-detect marks.
``test_transcript_manifest.py`` recomputes the manifest and names the first
key whose bytes changed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

from groverqss.protocol import MEASUREMENT_MODES, PARTICIPANTS, run_session

MANIFEST = Path(__file__).resolve().parent / "transcript_manifest.json"

MESSAGE_MARKS = ("110", "011", "101")
CHEAT_DETECT_MARKS = ("000", "001", "010", "100", "111")
SEEDED_SESSIONS = 64
SHARES = 33

#: Every non-empty group of participants.
GROUPS = [g for n in (1, 2, 3) for g in itertools.combinations(PARTICIPANTS, n)]


def seeded_session(s: int) -> tuple[str, list[dict] | None]:
    """Secret and schedule of seeded session ``s``: odd ones insert 1 to 8
    cheat-detect rounds, even ones take ``run_session``'s default."""
    rng = random.Random(s)
    secret = "".join(rng.choice(MESSAGE_MARKS) for _ in range(SHARES))
    if s % 2 == 0:
        return secret, None
    schedule = [{"kind": "message"} for _ in range(SHARES)]
    for _ in range(rng.randint(1, 8)):
        schedule.insert(rng.randrange(len(schedule) + 1), {"kind": "cheat_detect"})
    return secret, schedule


def sessions():
    """(name, secret, schedule, seed) of every session, without the mode."""
    for s in range(SEEDED_SESSIONS):
        yield (str(s), *seeded_session(s), s)
    message = {"kind": "message"}
    for i, group in enumerate(GROUPS):
        for role in ("liars", "no_declaration"):
            schedule = [{"kind": "cheat_detect"}, message, {**message, role: list(group)}, message]
            yield f"{role}-{'+'.join(group)}", "110011101", schedule, 100 + i
    for i, mark in enumerate(CHEAT_DETECT_MARKS):
        cheat = {"kind": "cheat_detect", "marked": mark}
        schedule = [message, cheat, message, cheat, message]
        yield f"cheat-{mark}", "101110011", schedule, 200 + i


def manifest() -> dict[str, str]:
    out = {}
    for mode in MEASUREMENT_MODES:
        for name, secret, schedule, seed in sessions():
            result = run_session(secret, schedule, seed=seed, measurement_mode=mode)
            for r, t in enumerate(result.transcripts):
                out[f"{mode}/{name}/{r}"] = hashlib.sha256(t.to_json().encode()).hexdigest()
    return out


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(manifest(), indent=0) + "\n")
