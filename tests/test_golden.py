"""Golden digests of every family-emitting command, in text and JSON.

Each case runs one ``nonnegsets`` command on a fixed input and compares the
SHA-256 of its stdout with a digest recorded before families became plain
masks, so any change to the rendered bytes fails here.
"""

import hashlib
import itertools

import pytest

from nonnegsets.cli import main


def _render(mask: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def _nonneg_text(values: list[int]) -> str:
    """Nonempty nonnegative index sets of ``values``, one per line, descending by mask."""
    masks = [
        sum(1 << i for i in combo)
        for size in range(1, len(values) + 1)
        for combo in itertools.combinations(range(len(values)), size)
        if sum(values[i] for i in combo) >= 0
    ]
    return "# fixed family\n\n" + "\n".join(_render(m) for m in sorted(masks, reverse=True)) + "\n"


SEQUENCES = {
    # extremal (6, 3, 2): one 1, one 0, four -1s
    "seq6": "6 3\n1\n0\n-1\n-1\n-1\n-1\n",
    # twelve integers summing to -1, so k = n - 1 holds
    "seq12": "12 11\n7\n-2\n3\n-5\n1\n0\n-4\n2\n-1\n6\n-9\n1\n",
}

FAMILIES = {
    # extremal (11, 5, 3): 151 cross-bounded sets with two-digit elements
    "fam11": _nonneg_text([2, 0, 0] + [-1] * 8),
    # {2} and {1,3} are disjoint with sizes summing past k = 2
    "broken": "# not cross-bounded\n{1}\n\n{2}\n{1,3}\n",
    "over_cap": "{1}\n{1,2,3}\n",
    "duplicate": "{1}\n{2}\n{1}\n",
}

CASES = {
    "dump6": ["nonneg", "--input", "{seq6}", "--dump"],
    "dump12": ["nonneg", "--input", "{seq12}", "--dump"],
    "shift11": ["ekr", "shift", "--family", "{fam11}", "--k", "5", "--n", "11"],
    "shift_broken": ["ekr", "shift", "--family", "{broken}", "--k", "2"],
    "shift_over_cap": ["ekr", "shift", "--family", "{over_cap}", "--k", "2"],
    "shift_duplicate": ["ekr", "shift", "--family", "{duplicate}", "--k", "2", "--n", "4"],
    "oracle_5_3": ["ekr", "oracle", "--n", "5", "--k", "3"],
    "oracle_6_2": ["ekr", "oracle", "--n", "6", "--k", "2"],
    "theorem3_4_2": ["verify", "--theorem", "3", "--n", "4", "--k", "2"],
    "theorem3_5_3": ["verify", "--theorem", "3", "--n", "5", "--k", "3", "--seed", "7"],
}

# Recorded with the family-as-Subset implementation that preceded mask-native families.
DIGESTS = {
    "dump6.text": "ffcdedca26c6d634d7a6e4f83730e901e2a6db597a0ff3e00db4eab3ab18030f",
    "dump6.json": "26e1b8c23d2280d4494628751124b74996785cb6867025b9d48f80748f78be4b",
    "dump12.text": "b3cbdb76e02673cfc5ef78923d712ec0b058efd6db2a93d68d7aabd79509fbd1",
    "dump12.json": "1affc9d12f7be554875d99bb10b7d2b120a6c6d1d6a33a11a37b294c4e6ae171",
    "shift11.text": "36e971979de91813ba45b1981c573e8668539e4c75fdc0de1a5f6eb3448af40b",
    "shift11.json": "12befa29fbcdca883d20dce2049ec34cb5a6f6ab0e1d3aba550837c92b268220",
    "shift_broken.text": "cc7544cd24b5b4dc4d80eb85b66ee2d77e661be8763a13e5b4b8b768c61154f0",
    "shift_broken.json": "078f85831294b2d9becd4034dc635998d91ad19f4a7d786ee4f3605ac6929f4f",
    "shift_over_cap.text": "b05c4949af2d7d2ce92360046b4537f9a38e016dcd4112bb45bb17ef9147ae50",
    "shift_over_cap.json": "5855e8ed42863e02438605f04d323a4d72f10bd7ba218b6726dc0b32e09c8e44",
    "shift_duplicate.text": "7e30e8156abfdaa0a3d72d674053e30565ff6a2e0ac67b3368ad6d49b4803ee9",
    "shift_duplicate.json": "d329256630a092014a5480c05f1c0cd9e2fc50d08f29f47e840e993ae2e75c5b",
    "oracle_5_3.text": "babde56c3ecdf00c9c7d6f435d21415cc0aabfe6fc0c608912027578a847701f",
    "oracle_5_3.json": "b459c7db1c2f4fc2928b755c48f6e23a4e1322f7ea70cd77a5744670c09e9ffd",
    "oracle_6_2.text": "6481097557c449c33c5f911b1f55023aa2a8343d4f20f5dbb562a67a7814517b",
    "oracle_6_2.json": "1756cbdd9b0670c01e6fdda15707c2dc7cd4400953c4b16d9aec53c91a6c77aa",
    "theorem3_4_2.text": "4ce0f8e70ebbaca5159555ec9594455000212fc7c1b72a12fdc9d502bcb7581f",
    "theorem3_4_2.json": "fe093d0a06ad2604275d8559c83a505bb6577eb72e0fcaf538515ba619ff3be1",
    "theorem3_5_3.text": "f9cfba73916341cc8bdab90f83fd0d6d25154e50bdf239f8cb563a895af37824",
    "theorem3_5_3.json": "0f54f06f798779b7d032df7b2259d9d019f7375f15b3bfe406d8a3934c867c9e",
}


def _digests(tmp_path, capsys) -> dict[str, str]:
    paths = {}
    for name, text in {**SEQUENCES, **FAMILIES}.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    out = {}
    for case, argv in CASES.items():
        argv = [arg.format(**paths) for arg in argv]
        for fmt in ("text", "json"):
            code = main(["--format", fmt, *argv])
            data = f"{code}\n{capsys.readouterr().out}".encode()
            out[f"{case}.{fmt}"] = hashlib.sha256(data).hexdigest()
    return out


def test_family_outputs_match_recorded_digests(tmp_path, capsys):
    got = _digests(tmp_path, capsys)
    assert set(got) == set(DIGESTS)
    wrong = sorted(key for key in got if got[key] != DIGESTS[key])
    assert not wrong, f"output changed: {wrong}"
