"""Command-line front end.

Subcommands: ``tables``, ``protocol``, ``attack``, ``sample``.  Exit codes:
0 = success, 1 = protocol reject or table mismatch (a scientific finding),
2 = usage or input error.  All output is deterministic for fixed flags and
seeds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import _jsontext, attacks, catalog, grover, protocol
from .statevec import LABELS

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def non_negative_int(text: str) -> int:
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def cmd_tables(args) -> int:
    M = "110" if args.M is None else args.M
    if args.which == 1:
        if args.M is not None:
            raise ValueError("--M forces the mark of table 2 only")
        rows = catalog.generate_table1(enc_k=args.enc_k, m=args.m)
        reference = catalog.published_table1()
    else:
        rows = catalog.generate_table2(enc_k=args.enc_k, m=args.m, M=M)
        reference = catalog.published_table2()
    rendered = catalog.render_table(rows, args.format)
    default_config = args.enc_k == 1 and args.m == "110" and M == "110"
    diff = catalog.diff_table(rows, reference) if default_config else []
    _emit(rendered, args.out)
    if not default_config:
        print("note: non-default parameters, no published reference to diff against",
              file=sys.stderr)
        return EXIT_OK
    diff_text = _jsontext.dumps({"table": args.which, "mismatching_rows": diff})
    print(diff_text, file=sys.stderr)
    return EXIT_FINDING if diff else EXIT_OK


def cmd_protocol(args) -> int:
    cfg = protocol.load_session_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    result = protocol.run_session(**cfg)
    doc = {
        "verdict": result.verdict,
        "recovered_secret": result.recovered_secret,
        "rounds": [[e.to_dict() for e in t.events] for t in result.transcripts],
    }
    _emit(_jsontext.dumps(doc) + "\n", args.out)
    return EXIT_OK if result.verdict == "accept" else EXIT_FINDING


def _intercept(args) -> attacks.AttackReport:
    if args.k_guess is not None:
        return attacks.intercept_wrong_op(args.k_true, args.m, args.k_guess, M_guess=args.M)
    if args.M is not None:
        raise ValueError("--M forces the mark of a --k-guess decode only")
    return attacks.intercept_enumeration(args.k_true, args.m)


def cmd_attack(args) -> int:
    _emit(args.analysis(args).to_json(), args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    s_k = catalog.initial_state(args.k)
    _, final, dist = grover.collective_op(grover.encode(s_k, args.m), s_k)
    counts = grover.sample(final, args.shots, args.seed)
    doc = {
        "k": args.k,
        "m": args.m,
        "shots": args.shots,
        "seed": args.seed,
        "outcomes": [
            {
                "label": lab,
                "exact_p": float(f"{p:.12g}"),
                "exact_p_3dp": catalog.round3(float(p)),
                "count": counts.counts.get(lab, 0),
                "empirical_p": counts.counts.get(lab, 0) / args.shots,
            }
            for lab, p in zip(LABELS, dist)
        ],
    }
    if args.format == "json":
        _emit(_jsontext.dumps(doc) + "\n", args.out)
    else:
        lines = ["label,exact_p,count,empirical_p"]
        for o in doc["outcomes"]:
            lines.append(f"{o['label']},{o['exact_p']:.12g},{o['count']},{o['empirical_p']:.6f}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groverqss",
        description="Simulate the Grover-based four-party quantum secret-sharing protocol",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="regenerate the published result tables and diff them")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.add_argument("--enc-k", type=int, default=1, dest="enc_k")
    p.add_argument("--m", default="110")
    p.add_argument("--M", default=None, help="forced mark of table 2 (default 110)")
    p.add_argument("--format", choices=("csv", "json", "markdown"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("protocol", help="run a secret-sharing session from a JSON config")
    p.add_argument("config")
    p.add_argument("--seed", type=non_negative_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("attack", help="run one of the four attack analyses")
    p.set_defaults(func=cmd_attack)
    kinds = p.add_subparsers(dest="kind", required=True)
    lie = kinds.add_parser("lie", help="participants misreport their measured bits")
    lie.add_argument("--m", default="110")
    lie.add_argument("--flips", nargs="*", default=None, metavar="P",
                     help="lying participants, e.g. P1 P2")
    lie.set_defaults(analysis=lambda a: attacks.lie_attack(a.m, frozenset(a.flips or ())))
    intercept = kinds.add_parser("intercept", help="decode with a guessed catalog state")
    intercept.add_argument("--k-true", type=int, default=1, dest="k_true")
    intercept.add_argument("--m", default="110")
    intercept.add_argument("--k-guess", type=int, default=None, dest="k_guess")
    intercept.add_argument("--M", default=None, help="forced mark of the --k-guess decode")
    intercept.set_defaults(analysis=_intercept)
    resend = kinds.add_parser("resend", help="intercept-resend detection fractions")
    resend.set_defaults(analysis=lambda a: attacks.intercept_resend_analysis())
    entangle = kinds.add_parser("entangle", help="couple an ancilla with a CNOT, then decode")
    entangle.add_argument("--k-true", type=int, default=1, dest="k_true")
    entangle.add_argument("--m", default="110")
    entangle.add_argument("--control", type=int, default=1)
    entangle.set_defaults(analysis=lambda a: attacks.entangle_measure(a.k_true, a.m, a.control))
    for kind in (lie, intercept, resend, entangle):
        kind.add_argument("--out", default=None)

    p = sub.add_parser("sample", help="shot-sample the decode pipeline for (k, m)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m", default="110")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits with 2 on usage errors already
        return int(e.code) if e.code else EXIT_OK
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
