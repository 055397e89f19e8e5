"""The decode commutes with the symmetries of the catalog.

Flipping a qubit's bit or swapping two qubits permutes the 8 basis indices.
Applied alike to a relative-phase row r (a catalog row) and to the mark m,
each such permutation maps the catalog to itself up to a global phase and
fixes the uniform state that every diffusion of ``decode_relative``
reflects about, so the decode of the image is the image of the decode.
These tests check that on all 512 pairs (r, m) under five generators of the
48 such permutations: the bit flips 100, 010 and 001 and the swaps of
qubits 1-2 and 2-3.  The one exception is the lexicographic choice of M
from a tied phase-1 set, which no permutation respects.
"""

from groverqss.catalog import phase_table
from groverqss.grover import decode_relative
from groverqss.statevec import LABELS, label_to_index


def swap_bits(i, a, b):
    """Index ``i`` with its bits ``a`` and ``b`` exchanged."""
    return i ^ ((1 << a) | (1 << b)) if (i >> a & 1) != (i >> b & 1) else i


#: Each generator as the permutation i -> perm[i] of the basis indices.
GENERATORS = {
    "flip 100": [i ^ 0b100 for i in range(8)],
    "flip 010": [i ^ 0b010 for i in range(8)],
    "flip 001": [i ^ 0b001 for i in range(8)],
    "swap 1-2": [swap_bits(i, 2, 1) for i in range(8)],
    "swap 2-3": [swap_bits(i, 1, 0) for i in range(8)],
}

ROWS = phase_table().tolist()

#: The 512 pairs (row index, mark).
PAIRS = [(j, m) for j in range(64) for m in LABELS]


def image(perm, values):
    """The list whose entry perm[i] is values[i]."""
    out = [None] * 8
    for i, v in enumerate(values):
        out[perm[i]] = v
    return out


def image_labels(perm, labels):
    return sorted(LABELS[perm[label_to_index(label)]] for label in labels)


def exact_step(x, flip):
    """The oracle at index ``flip``, then 4√8 times the reflection about the
    uniform state: the flipped y goes to (Σy)·1 − 4y."""
    y = list(x)
    y[flip] = -y[flip]
    total = sum(y)
    return [total - 4 * v for v in y]


def squared_norms(n):
    return [v.real * v.real + v.imag * v.imag for v in n]


def test_every_image_of_a_catalog_row_is_a_catalog_row_up_to_a_global_phase():
    up_to_phase = {tuple(c * v for v in row) for row in ROWS for c in (1, 1j, -1, -1j)}
    for name, perm in GENERATORS.items():
        for j, row in enumerate(ROWS):
            assert tuple(image(perm, row)) in up_to_phase, (name, j + 1)


def test_phase1_tie_sets_and_probabilities_map_exactly():
    for name, perm in GENERATORS.items():
        for j, m in PAIRS:
            d = decode_relative(ROWS[j], m)
            e = decode_relative(image(perm, ROWS[j]), *image_labels(perm, [m]))
            assert e.phase1_dist == image(perm, d.phase1_dist), (name, j + 1, m)
            assert e.argmax_set == image_labels(perm, d.argmax_set), (name, j + 1, m)


def test_phase2_maps_exactly_under_every_forced_mark():
    for name, perm in GENERATORS.items():
        for j, m in PAIRS:
            n1 = exact_step(ROWS[j], label_to_index(m))
            n1_image = exact_step(image(perm, ROWS[j]), perm[label_to_index(m)])
            for M in range(8):
                p2 = squared_norms(exact_step(n1, M))
                p2_image = squared_norms(exact_step(n1_image, perm[M]))
                assert p2_image == image(perm, p2), (name, j + 1, m, LABELS[M])


def test_auto_mark_breaks_the_symmetry_exactly_on_the_56_three_way_ties():
    broken = set()
    for perm in GENERATORS.values():
        for j, m in PAIRS:
            d = decode_relative(ROWS[j], m)
            e = decode_relative(image(perm, ROWS[j]), *image_labels(perm, [m]))
            if e.final_set != image_labels(perm, d.final_set):
                broken.add((j, m))
    three_way = {(j, m) for j, m in PAIRS if len(decode_relative(ROWS[j], m).argmax_set) == 3}
    assert len(three_way) == 56
    assert broken == three_way
