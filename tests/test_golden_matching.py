"""Golden digests of ``matching disjointness`` and ``matching gi``, in text and JSON.

``matching disjointness`` runs at every 1 <= r <= m <= 11 in three forms:
the summary alone, with ``--dump`` and with ``--rule complement``.  Each
(form, m) pair has one digest over all r and both formats.  The six
``matching gi`` cells are the benchmark's certify cells at input seed 1.
The digests were recorded when every one of these outputs came from the
explicit graph and Hopcroft-Karp, so a matching rule that changes a
printed byte fails here.
"""

import hashlib

from nonnegsets.cli import main

MAX_M = 11
FORMS = {"plain": [], "dump": ["--dump"], "rule": ["--rule", "complement"]}
GI_CELLS = [(12, 8, 4, 11), (12, 8, 4, 15), (13, 8, 4, 3), (13, 8, 4, 9), (14, 10, 4, 7), (14, 10, 4, 9)]

DIGESTS = {
    "plain.m1": "530d0f2a376f88bc08130422c080f5df32d36980c718af79501b2240df735dca",
    "plain.m2": "903b4ac982250bd14cd3a1b7d2821114f8ca33de9ea18f208f804f5728da47c5",
    "plain.m3": "ed0cee087a697408762d72d0c52967393b89ae64c929a3ebd1ee771de77db4cf",
    "plain.m4": "de9e97542b1e27592a84cd7f22901df3545f7d5659b4b3ce85ab321152ed9915",
    "plain.m5": "314a321f137f637dbc8b30950ceec82ad3c29c1ab1982ba46ed03227c18a63b8",
    "plain.m6": "0661e4118e57f02ef1957f26b74c93f3be373d24003f7858ee0281eb0a3c286f",
    "plain.m7": "5934c1895fcc6ac3c6ceca012b324c7e2f934c56382af06a19eef30cabf045cf",
    "plain.m8": "6412e1765a0a581a05921b5e3b3ded8d35c4d5f793552eac30d95f1ce67c88b9",
    "plain.m9": "acf5d97a88f5893ea87860e1fe8b662ede336775e583484fec122f07747a7db8",
    "plain.m10": "e2ca68a19855335cfca1305469b26f3f5471ad43c2ec6c6bf5c6dd85e5227747",
    "plain.m11": "64d24598145e9bd9d37cf6b61e45249da7ae199a44e161cc7eccd600aa136a7a",
    "dump.m1": "9b2661c9130d528b96cf13c2b4056804e923e06266ab55f42163536d42b2daee",
    "dump.m2": "e86f3bc50ed298bff018d76f93be3cc27a322477156003122562fe11a24913e5",
    "dump.m3": "6e40326d5e31797f62b3b58602bd94b7091a0c9a9821b1f11e84b0864e6f51ac",
    "dump.m4": "034078cb69f531c8f7f7784a36fd6268cce17dbb820567786a6a86f67774e7c8",
    "dump.m5": "755c093637a0bb851a07e83072e39d5c3bb0859ee6150add4472b280679a2168",
    "dump.m6": "e984ac132caeae09decdd78ed618c4e1baa204163fe964b09cbc04e39d66f304",
    "dump.m7": "6d4908719473c144f2a2df16d612af83f41fab4db67468becc691126673190cc",
    "dump.m8": "7376b4110934e51d492eb79164773f33908399dcd991239ff59f79c52d35c2fd",
    "dump.m9": "47b1729b94e0ff20280e8dccf627d0bc55d9b1cb8748c83a091b73437c140957",
    "dump.m10": "d9165a4906105f2a082a6600a9fc326c81abee40e01a7f148c4107f42b24d2a1",
    "dump.m11": "ea0e276953659384f75bb8a030316a01342f7d34fa2ea0a285b45600e5dd8bac",
    "rule.m1": "07673e173ea61e0b8220b4b41a9dc6746ad278a19483bf8d76c1c57cfe8722d4",
    "rule.m2": "382aca110483cb2e298b0bcc858df37fca94352315a4e92acdd806dd9d66256d",
    "rule.m3": "bc5fd76e96b1c4e72989c266af87a7b3564f01cda32ca3015f299be26094422d",
    "rule.m4": "81f82c0ed6e69ecded1dbe4bbb1bdbb6d56f3488f6b63b8e7ef9db7dafb14451",
    "rule.m5": "6db407a0390e4bf876e06514849a4795eae82a9370c801916e3152a267aeaa3f",
    "rule.m6": "273a77f376d579338ec1804d23e9955222afb4ccd12222972bc9b03d7ac73208",
    "rule.m7": "223a7923702b3fee91b0d8cd0f0ef8c2e9cb47e892ab25b1525a79100b3026a7",
    "rule.m8": "376fca34fdcc9cfae949b85889cd06bb921f1fe53f0806533e97816708ba4dac",
    "rule.m9": "5d0ec1176bb0abc95360a6529c957bd2045c2e55b409e5c36f1e267701a19d3d",
    "rule.m10": "df7eb58631cd425caf257b44056abf39898a7001f0f364dbb9378cbc402da2c8",
    "rule.m11": "5b41e4a62476d2d4c2bac7e6a0533d357d1a82ae7c2d559f81441f14604388fa",
    "gi.12.8.4.11": "c120126e3d0eaaa5f3c50b1d350b521348e305df92b5967c26dcf112cefee819",
    "gi.12.8.4.15": "d7218371f145d76617828422f9bb97df58c2c4c9c4b447e0c3473d62d88bb2c2",
    "gi.13.8.4.3": "4622638d5c2ce67a275a89a6579ea78bbdbf3ba152f21a22e3d14e94f570e865",
    "gi.13.8.4.9": "520568f794d334a909a6ebe2f3c8ec348beae5ba573610e1f2a5da3cb0ee66a1",
    "gi.14.10.4.7": "73efe641f94666f6be3d306e39a56356f9fec91d66e5b18d88f30cf99e10e3f0",
    "gi.14.10.4.9": "62b66961f431ba1be3087d9723a036f898aea4eb980c2014921620a25f536e5f",
}


def _cases() -> dict[str, list[list[str]]]:
    cases = {}
    for form, extra in FORMS.items():
        for m in range(1, MAX_M + 1):
            cases[f"{form}.m{m}"] = [
                ["matching", "disjointness", "--m", str(m), "--r", str(r), *extra] for r in range(1, m + 1)
            ]
    for n, k, t, pair in GI_CELLS:
        cases[f"gi.{n}.{k}.{t}.{pair}"] = [["matching", "gi", "--n", str(n), "--k", str(k), "--t", str(t), "--pair", str(pair)]]
    return cases


def _digests(capsys) -> dict[str, str]:
    out = {}
    for case, runs in _cases().items():
        digest = hashlib.sha256()
        for argv in runs:
            for fmt in ("text", "json"):
                code = main(["--format", fmt, *argv])
                digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        out[case] = digest.hexdigest()
    return out


def test_matching_outputs_match_recorded_digests(capsys):
    got = _digests(capsys)
    assert set(got) == set(DIGESTS)
    wrong = sorted(key for key in got if got[key] != DIGESTS[key])
    assert not wrong, f"output changed: {wrong}"

