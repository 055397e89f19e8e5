"""Every table, attack report and CLI output of the manifest keeps its bytes.

``output_manifest.json`` was written by ``output_manifest.py``; a change
that alters any output byte fails here with the first key whose digest
differs.  Regenerate the manifest only for an intended change to an output.

While the manifest is recomputed, each JSON document is also written by
``json.dumps(doc, indent=2, allow_nan=False)`` and must give the same text,
which checks the domain of ``groverqss._jsontext`` on real traffic.
"""

import json

from output_manifest import MANIFEST, manifest


def test_outputs_match_the_manifest_byte_for_byte(checked_json_traffic):
    want = json.loads(MANIFEST.read_text())
    got = manifest()
    assert checked_json_traffic, "no document went through _jsontext.dumps"
    first = next((k for k in [*want, *got] if want.get(k) != got.get(k)), None)
    assert first is None, (
        f"first differing output {first}: manifest {want.get(first)}, now {got.get(first)}"
    )
