"""The four closed-loop workloads: seeded inputs, the op each input drives,
and the check of every op's output against the golden references.

Every input a workload can draw comes from a finite pool, so that
``make_golden.py`` can record the reference output of each one:

* ``grid``: the 1536 audit jobs (enc_k, m, M), 64 x 3 x 8.
* ``sessions``: 4096 sessions, indexed by their session seed.
* ``shots``: 4096 (k, m, shots, sample seed) draws, indexed by sample seed.
* ``cli``: a fixed list of command lines.

The package must be importable (``src/`` on ``sys.path``) before this module
is imported.  Ops call the package through module attributes, so the
wrappers of the traced run see every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from groverqss import attacks, catalog, grover, protocol
from spans import Recorder
from warmup import FIRST_CALLS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"

LABELS = tuple(format(i, "03b") for i in range(8))
MESSAGE_MARKS = ("110", "011", "101")
PARTICIPANTS = ("P1", "P2", "P3")

#: Probability that an honest sampled-mode round is rejected: 1 - 121/128.
HONEST_REJECT_P = 7 / 128
#: Two-sided tail probability below which the honest reject count of a run
#: is inconsistent with HONEST_REJECT_P.
BINOMIAL_ALPHA = 1e-6


# --------------------------------------------------------------------------
# Canonical output digests


def _round_floats(x):
    """Round floats to 9 significant digits, so that a change in the last
    bits of a float kernel does not read as a wrong answer."""
    if isinstance(x, float):
        r = float(f"{x:.9g}")
        return 0.0 if r == 0 else r
    if isinstance(x, dict):
        return {k: _round_floats(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round_floats(v) for v in x]
    return x


def canon(obj) -> str:
    return json.dumps(_round_floats(obj), sort_keys=True, separators=(",", ":"))


def canon_text(text: str) -> str:
    """JSON documents are compared canonically; other text byte for byte."""
    try:
        return canon(json.loads(text))
    except ValueError:
        return text


def digest(*parts: str) -> str:
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()[:16]


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())["outputs"]


# --------------------------------------------------------------------------
# Workloads


def _shuffled_passes(pool: list, seed: int):
    """Endless passes over ``pool``, each in a fresh seeded order, so no
    input repeats before every other one has been drawn."""
    for epoch in itertools.count():
        order = pool[:]
        random.Random(seed * 1_000_003 + epoch).shuffle(order)
        yield from order


class Workload:
    """One op per input; ``run`` is the timed part, ``check`` is not."""

    name: str
    #: Number of leading ops whose call counts the traced run reports.
    count_ops: int
    #: What ``units`` counts per op, for the ``<unit>_per_s`` metric.
    unit = "ops"
    #: Set for the traced run; ``Cli`` merges its child processes' spans into it.
    recorder: Recorder | None = None

    def pool(self) -> list:
        """Every input the workload can draw, in golden-file order."""
        raise NotImplementedError

    def inputs(self, seed: int):
        """Endless seeded sequence of inputs."""
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def reference(self, inp, out) -> object:
        """The value recorded in the golden file for this op."""
        raise NotImplementedError

    def key(self, inp) -> str:
        raise NotImplementedError

    def check(self, inp, out, golden: dict, stats: dict) -> str | None:
        """Return None if the output is right, else a one-line reason.
        Accumulates workload-specific totals into ``stats``."""
        want = golden.get(self.key(inp))
        got = self.reference(inp, out)
        if got != want:
            return f"{self.key(inp)}: output {got} != golden {want}"
        return None

    def run_check(self, stats: dict) -> str | None:
        """Run-level check over the totals ``check`` accumulated."""
        return None

    def units(self, inp, out) -> int:
        return 1

    def warmup(self):
        FIRST_CALLS[self.name]()


class Grid(Workload):
    """Audit jobs over the decode grid, never repeated within a run."""

    name = "grid"
    count_ops = 8

    def pool(self):
        return [(k, m, M) for k in range(1, 65) for m in MESSAGE_MARKS for M in LABELS]

    def inputs(self, seed):
        return _shuffled_passes(self.pool(), seed)

    def key(self, inp):
        return "{}-{}-{}".format(*inp)

    def run(self, inp):
        enc_k, m, M = inp
        t1 = catalog.generate_table1(enc_k, m)
        t2 = catalog.generate_table2(enc_k, m, M)
        reports = [attacks.intercept_enumeration(enc_k, m)]
        reports += [attacks.entangle_measure(enc_k, m, c) for c in (1, 2, 3)]
        return (
            catalog.render_table(t1, "csv"),
            catalog.render_table(t2, "csv"),
            [r.to_json() for r in reports],
        )

    def reference(self, inp, out):
        csv1, csv2, reports = out
        return digest(csv1, csv2, *(canon_text(r) for r in reports))

    def check(self, inp, out, golden, stats):
        reason = super().check(inp, out, golden, stats)
        if reason is None and inp[:2] == (1, "110"):
            # The published configuration's intercept finding: 19/64 inclusive.
            details = json.loads(out[2][0])["details"]
            if details["success_inclusive_count"] != 19:
                reason = f"{self.key(inp)}: intercept inclusive count is not 19/64"
        return reason


class Sessions(Workload):
    """Seeded 99-bit sessions, alternating top and sampled measurement."""

    name = "sessions"
    count_ops = 32
    unit = "rounds"
    pool_size = 4096
    cheat_rounds = 8

    def pool(self):
        return [self.session(s) for s in range(self.pool_size)]

    def session(self, s: int) -> dict:
        """Session ``s``: even seeds measure "top", odd ones "sampled"; one in
        eight (s % 8 == 4, always "top") has liars in one round."""
        rng = random.Random(s)
        schedule = [{"kind": "message"} for _ in range(33)]
        for _ in range(self.cheat_rounds):
            schedule.insert(rng.randrange(len(schedule) + 1), {"kind": "cheat_detect"})
        liar_round = None
        if s % 8 == 4:
            liar_round = rng.randrange(len(schedule))
            liars = rng.sample(PARTICIPANTS, rng.randint(1, 3))
            schedule[liar_round] = {**schedule[liar_round], "liars": sorted(liars)}
        return {
            "seed": s,
            "secret": "".join(rng.choice(MESSAGE_MARKS) for _ in range(33)),
            "schedule": schedule,
            "mode": "top" if s % 2 == 0 else "sampled",
            "liar_round": liar_round,
        }

    def inputs(self, seed):
        return (self.session((seed + i) % self.pool_size) for i in itertools.count())

    def key(self, inp):
        return str(inp["seed"])

    def run(self, inp):
        return protocol.run_session(
            inp["secret"], inp["schedule"], seed=inp["seed"], measurement_mode=inp["mode"]
        )

    def reference(self, inp, out):
        return digest(canon({
            "verdict": out.verdict,
            "recovered": out.recovered_secret,
            "rounds": [[e.to_dict() for e in t.events] for t in out.transcripts],
        }))

    def check(self, inp, out, golden, stats):
        rounds = out.transcripts
        if inp["mode"] == "sampled":
            stats["sampled_rounds"] = stats.get("sampled_rounds", 0) + len(rounds)
            stats["sampled_rejects"] = stats.get("sampled_rejects", 0) + sum(
                t.verdict.data["verdict"] == "reject" for t in rounds
            )
        outcome = (out.verdict, out.recovered_secret)
        if inp["liar_round"] is not None:
            if out.verdict != "reject" or len(rounds) != inp["liar_round"] + 1:
                return f"session {inp['seed']}: liars not rejected at round {inp['liar_round']}"
        elif inp["mode"] == "top" and outcome != ("accept", inp["secret"]):
            return f"session {inp['seed']}: honest top-mode session did not recover the secret"
        elif out.verdict == "accept" and out.recovered_secret != inp["secret"]:
            return f"session {inp['seed']}: accepted a wrong secret"
        return super().check(inp, out, golden, stats)

    def units(self, inp, out):
        return len(out.transcripts)

    def run_check(self, stats):
        return check_honest_rejects(stats)


class Shots(Workload):
    """Bulk sampling: encode, decode, then 10^4, 10^5 or 10^6 seeded shots."""

    name = "shots"
    count_ops = 32
    unit = "shots"
    pool_size = 4096

    def draw(self, j: int) -> tuple:
        rng = random.Random(j)
        return (j, rng.randint(1, 64), rng.choice(LABELS), rng.choice((10**4, 10**5, 10**6)))

    def pool(self):
        return [self.draw(j) for j in range(self.pool_size)]

    def inputs(self, seed):
        return (self.draw((seed + i) % self.pool_size) for i in itertools.count())

    def key(self, inp):
        return str(inp[0])

    def run(self, inp):
        j, k, m, shots = inp
        encoded = grover.encode(catalog.initial_state(k), m)
        _, final, _ = grover.collective_op(encoded, catalog.initial_state(k))
        return grover.sample(final, shots, j)

    def reference(self, inp, out):
        return digest(canon(sorted(out.counts.items())))

    def check(self, inp, out, golden, stats):
        if sum(out.counts.values()) != inp[3] or not set(out.counts) <= set(LABELS):
            return f"shots {inp[0]}: counts do not add up to {inp[3]} over 3-bit labels"
        return super().check(inp, out, golden, stats)

    def units(self, inp, out):
        return inp[3]


#: Session configs the ``cli`` workload writes for ``protocol <config>``.
CLI_CONFIGS = {
    "honest_top": {"secret": "110011101", "seed": 3},
    "honest_sampled": {"secret": "110" * 11, "seed": 5, "measurement_mode": "sampled"},
    "liar": {
        "secret": "011101",
        "seed": 1,
        "schedule": [{"kind": "cheat_detect"}, {"kind": "message", "liars": ["P2"]},
                     {"kind": "message"}],
    },
    "cheat_marked": {
        "secret": "101110011",
        "seed": 9,
        "measurement_mode": "sampled",
        "schedule": [{"kind": "message"}, {"kind": "cheat_detect", "marked": "000"},
                     {"kind": "message"}, {"kind": "message"}],
    },
}


def _cli_pool() -> list[tuple[str, ...]]:
    cmds = []
    for which in (1, 2):
        for fmt in ("csv", "json", "markdown"):
            for enc_k in (1, 17, 46):
                cmds.append(("tables", "--which", str(which), "--format", fmt,
                             "--enc-k", str(enc_k)))
    cmds += [
        ("attack", "intercept"),
        ("attack", "intercept", "--k-true", "33", "--m", "011"),
        ("attack", "intercept", "--k-guess", "5"),
        ("attack", "entangle", "--control", "1"),
        ("attack", "entangle", "--control", "2"),
        ("attack", "entangle", "--control", "3", "--k-true", "9"),
        ("attack", "resend"),
        ("attack", "lie", "--flips", "P1"),
        ("attack", "lie", "--m", "011", "--flips", "P2", "P3"),
        ("sample", "--shots", "8192"),
        ("sample", "--shots", "8192", "--k", "10", "--m", "101", "--seed", "7"),
        ("sample", "--shots", "8192", "--k", "50", "--format", "csv", "--seed", "3"),
    ]
    cmds += [("protocol", f"{{{name}}}") for name in CLI_CONFIGS]
    return cmds


class Cli(Workload):
    """One cold ``python -m groverqss.cli`` child process per op."""

    name = "cli"
    count_ops = len(_cli_pool())

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        for name, cfg in CLI_CONFIGS.items():
            (work_dir / f"{name}.json").write_text(json.dumps(cfg))
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def pool(self):
        return _cli_pool()

    def inputs(self, seed):
        return _shuffled_passes(self.pool(), seed)

    def key(self, inp):
        return " ".join(inp)

    def argv(self, inp) -> list[str]:
        return [a.format(**{n: str(self.work_dir / f"{n}.json") for n in CLI_CONFIGS})
                for a in inp]

    def run(self, inp):
        spans_file = self.work_dir / "child-spans.json"
        if self.recorder is None:
            prefix = ["-m", "groverqss.cli"]
        else:
            prefix = [str(BENCH_DIR / "cli_entry.py"), str(spans_file)]
        proc = subprocess.run(
            [sys.executable, *prefix, *self.argv(inp)],
            capture_output=True, env=self.env, cwd=ROOT, timeout=120,
        )
        if self.recorder is not None:
            self.recorder.merge_child(json.loads(spans_file.read_text()))
            self.recorder.extra["cli.output_bytes"] += len(proc.stdout)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def reference(self, inp, out):
        rc, stdout, stderr = out
        return {"rc": rc, "stdout": digest(canon_text(stdout)), "stderr": digest(stderr)}

    def check(self, inp, out, golden, stats):
        rc, stdout, stderr = out
        # The default-configuration findings reproduce as findings.
        if inp[:3] == ("tables", "--which", "2") and inp[-2:] == ("--enc-k", "1"):
            diff = json.loads(stderr)["mismatching_rows"]
            if rc != 1 or [d["k"] for d in diff] != [46]:
                return f"{self.key(inp)}: expected exit 1 with the k=46 diff"
        if inp == ("attack", "intercept"):
            if json.loads(stdout)["details"]["success_inclusive_count"] != 19:
                return "attack intercept: inclusive count is not 19/64"
        return super().check(inp, out, golden, stats)

    def warmup(self):
        # Also compiles the package's bytecode once, before anything is timed.
        self.run(("attack", "resend"))


WORKLOADS = {"grid": Grid, "sessions": Sessions, "shots": Shots, "cli": Cli}


def make(name: str, work_dir: Path) -> Workload:
    return Cli(work_dir) if name == "cli" else WORKLOADS[name]()


# --------------------------------------------------------------------------
# Run-level statistical check


def binomial_two_sided_p(n: int, r: int, p: float) -> float:
    """Exact two-sided tail probability of a count as extreme as ``r``."""

    def logpmf(i):
        return (math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                + i * math.log(p) + (n - i) * math.log1p(-p))

    logs = [logpmf(i) for i in range(n + 1)]
    return min(1.0, sum(math.exp(x) for x in logs if x <= logs[r] + 1e-9))


def check_honest_rejects(stats: dict) -> str | None:
    n, r = stats.get("sampled_rounds", 0), stats.get("sampled_rejects", 0)
    if n == 0:
        return "no sampled-mode rounds ran"
    pval = binomial_two_sided_p(n, r, HONEST_REJECT_P)
    if pval < BINOMIAL_ALPHA:
        return (f"{r} honest rejects in {n} sampled rounds is outside the binomial "
                f"bound around p = 7/128 (two-sided p = {pval:.2e})")
    return None
