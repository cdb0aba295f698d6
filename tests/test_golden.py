"""Golden output bytes of the CLI.

Each case runs one ``fairdiv`` command on inputs written here and pins the
sha256 of the file it writes.  A refactor of the allocators, traces, checks
or adversaries must leave every hash unchanged; a change of output needs a
deliberate update of the pinned value.
"""

import hashlib
import json

import pytest

from fairdiv.cli import main

#: Denominators up to 6; every agent has one good worth exactly 1 (so the
#: all-ones predictions are perfect) and one worth 5/6 before it (so
#: ``--epsilon 1/5`` overrides a good for every agent).
SMALL = [
    ["5/6", "1/2", "0", "1", "1/3", "2/3", "1/6", "0", "1/2", "1/4"],
    ["1/3", "5/6", "1", "0", "1/2", "0", "2/3", "1/6", "0", "1/2"],
    ["0", "5/6", "1/2", "2/3", "1", "1", "0", "1/3", "1/2", "1/6"],
]
#: Prime denominators up to 199, same shape as SMALL.
WIDE = [
    ["97/101", "13/191", "0", "1", "44/97", "101/199", "3/157", "0", "88/89", "17/113"],
    ["7/193", "187/197", "1", "1/173", "0", "59/181", "121/127", "2/149", "0", "31/137"],
    ["0", "11/179", "89/103", "150/151", "1", "5/163", "0", "61/167", "97/139", "3/131"],
]
#: Zero-valued goods, an all-zero row and an agent holding every good.
EDGE = [["1/2", "1/3", "0", "1"], ["0", "0", "0", "0"], ["1/4", "1/4", "1/2", "0"]]
BEST = [["1", "1/2", "1/3", "0", "2/5", "1/7"], ["0", "1/3", "1", "1/2", "1/5", "2/7"],
        ["1/4", "1/4", "1/4", "1", "0", "1/2"]]
CAMPAIGN = {
    "rows": [
        {"construction": "greedy1", "n": 3, "alpha": "1/4"},
        {"construction": "greedy2", "n": 2, "alpha": "1/3"},
        {"construction": "greedy3", "n": 2, "alpha": "1/2", "max_steps": 100000},
        {"construction": "miv-impossibility", "n": 2, "alpha": "1/2", "notion": "mms",
         "allocator": "miv"},
        {"construction": "miv-impossibility", "n": 2, "alpha": "1/3", "allocator": "greedy3"},
        {"construction": "miv-impossibility", "n": 2, "alpha": "1/2", "allocator": "rand",
         "seed": 1, "repetitions": 2},
    ]
}

RULES = {
    "miv": ["--algo", "miv"],
    "miv-eps": ["--algo", "miv", "--epsilon", "1/5"],
    "greedy1": ["--algo", "greedy1"],
    "greedy2": ["--algo", "greedy2"],
    "greedy3": ["--algo", "greedy3"],
    "rand": ["--algo", "rand", "--seed", "7"],
}

CASES = {
    **{f"run-{inst}-{rule}": ["run", *flags, "--instance", "{%s}" % inst]
       for inst in ("small", "wide") for rule, flags in RULES.items()},
    "adversary-greedy1": ["adversary", "--target", "greedy1", "--n", "3", "--alpha", "1/5"],
    "adversary-greedy2": ["adversary", "--target", "greedy2", "--n", "2", "--alpha", "1/3"],
    "adversary-greedy3": ["adversary", "--target", "greedy3", "--n", "2", "--alpha", "2/5"],
    "adversary-greedy3-n3": ["adversary", "--target", "greedy3", "--n", "3", "--alpha", "3/5"],
    "adversary-miv-impossibility": ["adversary", "--target", "miv-impossibility", "--n", "2",
                                    "--alpha", "1/2", "--allocator", "greedy2"],
    "campaign": ["campaign", "--config", "{campaign}"],
    "metrics-small": ["metrics", "--instance", "{small}", "--allocation", "{small_alloc}",
                      "--check", "prop1,ef1,propx"],
    "metrics-edge": ["metrics", "--instance", "{edge}", "--allocation", "{edge_alloc}",
                     "--check", "prop1,ef1,propx"],
    "metrics-small-mms-alpha": ["metrics", "--instance", "{small}", "--allocation",
                                "{small_alloc}", "--check", "prop1,ef1,propx,mms",
                                "--alpha", "1/2"],
    "best-alloc-n3": ["oracle", "--op", "best-alloc", "--instance", "{best}"],
}

GOLDEN = {
    "adversary-greedy1": "1a67dc177304d0d20952955a42ba8eb1fa6502e63a10ba241ec0603056a5a444",
    "adversary-greedy2": "6ecfabb29540a1320ed5d5c3914f5856f5fb4dcda55105ca7be2cdfe31492927",
    "adversary-greedy3": "fbd7eac143dccb142d979b1acd393bb2ca78a1ac4d40def4df8b3993ad3f2d35",
    "adversary-greedy3-n3": "5507909bc89e0566782aa3e3c07648103447fd352c3a6b6c1d2a75ad78af0902",
    "adversary-miv-impossibility": "e4dd0f3b60725d03a16764d049b2022adb1aa03a265c6dae4651e299c9c47e11",
    "best-alloc-n3": "613e8b435475043ada5ff0ca784253a5a22bd22954e151bf35c599a610e98ff0",
    "campaign": "fef31d7c7d9b5bb92e8f947aeebab77f5cebdf322137f7f2d37c39a8188c142f",
    "metrics-edge": "c84f7c305ed1a40a767487b73eda0e183286e331b7c69ddda905df313bfec536",
    "metrics-small": "a3667fe0134fd70483be969e60a1cd523833e91f5c8f5a548c34ac8c016793ef",
    "metrics-small-mms-alpha": "0e57a325fcdca7a2da5ede3fe7a4a2cdb90ca8f206f7bd3f510bf2ae3c3c2df6",
    "run-small-greedy1": "4305c1d30265e18c9447f5ae8163c3b8c11600bcf71ab1834d18fa3c3b1293b4",
    "run-small-greedy2": "216820d3c69ffcae19f403329a1851101a6776cbf89ed0a136e23e66ed127885",
    "run-small-greedy3": "5f37d06f507a35f14057f591f872540eba602a9d0b095e6d686f005360e5643c",
    "run-small-miv": "51591e5d5199c0c03497775502b3b05a02a1b8ad30a2b56e1f9d684d7c80016a",
    "run-small-miv-eps": "526926b868fea3ed3b5c00440579f793380fec513d352035ed0e4e1032a74abd",
    "run-small-rand": "100bbab726a15d17763cafe22d64d3aa795c70afaad7428f65c425e898dddedf",
    "run-wide-greedy1": "913cee6cda4de4f53c8566a46eb448ccc4d0de8482f57dbd4818cc32f6d59915",
    "run-wide-greedy2": "72bd9358e9ee7303cc3c426e4b18a1f40b65bd42a19c83b7ca4705d08e4b4bd5",
    "run-wide-greedy3": "558ff06e88170ed168c6665c4192948129dd35a7c5cacf20b6242d4b3be93fc4",
    "run-wide-miv": "949df9d504d4d00662bb1871e84937be056122af56424e59aaaa08b6672e85e0",
    "run-wide-miv-eps": "358aa310d2663c2d35d4a7c2b1049170655302f6d372d0be4125e22db3539312",
    "run-wide-rand": "f825995eaa8aae7fd94a3fb98751b84c3abb05b0f7ee453951e251835f0fb256",
}


def _write_inputs(tmp_path) -> dict:
    files = {
        "small": {"values": SMALL},
        "wide": {"values": WIDE},
        "edge": {"values": EDGE},
        "best": {"values": BEST},
        "small_alloc": {"owner": [1, 2, 3, 3, 1, 2, 2, 1, 3, 1]},
        "edge_alloc": {"owner": [1, 1, 1, 1]},
        "campaign": CAMPAIGN,
    }
    paths = {}
    for name, payload in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        paths[name] = str(path)
    return paths


def output_digest(case: str, tmp_path) -> str:
    paths = _write_inputs(tmp_path)
    out = tmp_path / f"{case}.out"
    argv = [arg.format(**paths) for arg in CASES[case]] + ["--out", str(out)]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_are_pinned(case, tmp_path):
    assert output_digest(case, tmp_path) == GOLDEN[case]
