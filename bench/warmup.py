"""First call into each layer a workload uses, on a fixed input.

Imports nothing but the package, so that ``setup_probe.py`` times the
package and not the benchmark.
"""

from groverqss import attacks, catalog, grover, protocol


def grid():
    rows1 = catalog.generate_table1(1, "110")
    rows2 = catalog.generate_table2(1, "110", "110")
    catalog.render_table(rows1, "csv")
    catalog.render_table(rows2, "csv")
    attacks.intercept_enumeration(1, "110").to_json()
    attacks.entangle_measure(1, "110", 1).to_json()


def sessions():
    protocol.run_session("110", seed=0, measurement_mode="sampled")


def shots():
    encoded = grover.encode(catalog.initial_state(1), "110")
    _, final, _ = grover.collective_op(encoded, catalog.initial_state(1))
    grover.sample(final, 1, 0)


def cli():
    from groverqss import cli

    cli.build_parser().parse_args(["attack", "resend"])


FIRST_CALLS = {"grid": grid, "sessions": sessions, "shots": shots, "cli": cli}
