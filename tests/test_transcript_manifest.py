"""Every round transcript of the manifest's sessions keeps its exact bytes.

``transcript_manifest.json`` was written by ``transcript_manifest.py``; a
change that alters any transcript byte fails here with the first key whose
digest differs.  Regenerate the manifest only for an intended change to the
transcript format.

While the manifest is recomputed, each JSON document is also written by
``json.dumps(doc, indent=2, allow_nan=False)`` and must give the same text,
which checks the domain of ``groverqss._jsontext`` on real traffic.
"""

import json

from transcript_manifest import MANIFEST, manifest


def test_transcripts_match_the_manifest_byte_for_byte(checked_json_traffic):
    want = json.loads(MANIFEST.read_text())
    got = manifest()
    assert checked_json_traffic, "no document went through _jsontext.dumps"
    first = next((k for k in [*want, *got] if want.get(k) != got.get(k)), None)
    assert first is None, (
        f"first differing round {first}: manifest {want.get(first)}, now {got.get(first)}"
    )
