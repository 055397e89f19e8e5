"""The sha256 of every table, attack report and CLI output of a fixed set.

    PYTHONPATH=src python tests/output_manifest.py

writes ``output_manifest.json`` beside this script: one key per output,
mapped to the sha256 hex digest of its exact text.  The keys are

* ``table1/<enc_k>/<m>/<fmt>`` and ``table2/<enc_k>/<m>/110/<fmt>``: the
  rendered tables for every catalog state, message mark and format;
* ``table2/<enc_k>/<m>/<M>/<fmt>``: table 2 under each of the 7 other
  forced marks M, for the eight encoded states ``SPREAD``;
* ``intercept/<k>/<m>``: the 64-guess intercept audit's JSON report;
* ``wrong/<k_guess>/<M>``: the single-guess intercept's JSON report for
  the encoded state 1 with mark 110, every guess and M ∈ {auto, 000…111};
* ``entangle/<k>/<m>/<control>``: the ancilla attack's JSON report;
* ``cli/<argv>``: exit code, stdout and stderr of 34 command lines run in
  this process, with session config paths written as ``{name}``.

``test_output_manifest.py`` recomputes the manifest and names the first
key whose bytes changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from groverqss import attacks, catalog, cli
from groverqss.statevec import LABELS

MANIFEST = Path(__file__).resolve().parent / "output_manifest.json"

MESSAGE_MARKS = ("110", "011", "101")
FORMATS = ("csv", "json", "markdown")
#: Encoded states whose table 2 is pinned under every forced mark.
SPREAD = range(1, 65, 8)
#: The forced marks of table 2 besides the default 110.
OTHER_MARKS = tuple(format(i, "03b") for i in range(8) if i != 6)

#: Session configs of the ``protocol`` command lines, by placeholder name.
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

CLI_COMMANDS = [
    *(f"tables --which {which} --format {fmt} --enc-k {enc_k}"
      for which in (1, 2) for fmt in FORMATS for enc_k in (1, 17, 46)),
    "attack intercept",
    "attack intercept --k-true 33 --m 011",
    "attack intercept --k-guess 5",
    "attack entangle --control 1",
    "attack entangle --control 2",
    "attack entangle --control 3 --k-true 9",
    "attack resend",
    "attack lie --flips P1",
    "attack lie --m 011 --flips P2 P3",
    "sample --shots 8192",
    "sample --shots 8192 --k 10 --m 101 --seed 7",
    "sample --shots 8192 --k 50 --format csv --seed 3",
    *(f"protocol {{{name}}}" for name in CLI_CONFIGS),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_outputs() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, cfg in CLI_CONFIGS.items():
            paths[name] = Path(tmp, f"{name}.json")
            paths[name].write_text(json.dumps(cfg))
        for command in CLI_COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(command.format(**paths).split())
            out[f"cli/{command}"] = _sha(f"{rc}\n{stdout.getvalue()}\n{stderr.getvalue()}")
    return out


def manifest() -> dict[str, str]:
    out = {}
    for enc_k in range(1, 65):
        for m in MESSAGE_MARKS:
            tables = {"table1": catalog.generate_table1(enc_k, m),
                      "table2": catalog.generate_table2(enc_k, m, "110")}
            for name, rows in tables.items():
                key = f"{name}/{enc_k}/{m}" + ("/110" if name == "table2" else "")
                for fmt in FORMATS:
                    out[f"{key}/{fmt}"] = _sha(catalog.render_table(rows, fmt))
            out[f"intercept/{enc_k}/{m}"] = _sha(attacks.intercept_enumeration(enc_k, m).to_json())
            for control in (1, 2, 3):
                report = attacks.entangle_measure(enc_k, m, control)
                out[f"entangle/{enc_k}/{m}/{control}"] = _sha(report.to_json())
            for M in OTHER_MARKS if enc_k in SPREAD else ():
                rows = catalog.generate_table2(enc_k, m, M)
                for fmt in FORMATS:
                    out[f"table2/{enc_k}/{m}/{M}/{fmt}"] = _sha(catalog.render_table(rows, fmt))
    for k_guess in range(1, 65):
        for M in (None, *LABELS):
            report = attacks.intercept_wrong_op(1, "110", k_guess, M)
            out[f"wrong/{k_guess}/{M or 'auto'}"] = _sha(report.to_json())
    out.update(_cli_outputs())
    return out


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(manifest(), indent=0) + "\n")
