"""Golden output hashes: the CLI's artifacts must not drift across refactors.

Each case runs one CLI verb on a small world (20 DOs, 50 steps, seeds 1 and
2) and pins the SHA-256 of every `metrics_seed*.csv`, `manifest.json` and
`summary.json` it writes, keyed by the path relative to `--out`.  Together
the cases cover all twelve registered policies, both arrival modes, both
work modes, the square availability schedule, a per-DO mixed assignment
under `run`, and both output layouts: flat for `run`, one directory per
policy for `compare` and `ablate`.

A hash may change only in a change that names the semantic change it makes
to the simulation's output.  To print the hashes of the code in the working
tree, run

    PYTHONPATH=src:tests python3 tests/test_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from aflsim.policy_baselines import POLICIES
from aflsim.simcli import main

SMALL = {"n_dos": 20, "horizon_T": 50, "seeds": [1, 2]}
SQUARE = {"rho_schedule": {"kind": "square", "period": 7, "low_scale": 0.4}}
MIXED = [sorted(POLICIES)[i % len(POLICIES)] for i in range(SMALL["n_dos"])]

CASES = {
    "run-mixed-auction-threshold-square": (
        "run",
        {"policy": {"assignment": MIXED, "work_mode": "threshold"}, "do_params": SQUARE},
    ),
    "run-lin-rand-demand-round": (
        "run",
        {
            "policy": {"assignment": "lin-rand"},
            "market": {"arrival_mode": "demand-model", "integerization": "round"},
        },
    ),
    "compare-auction-greedy": ("compare", {}),
    "compare-demand-threshold-square": (
        "compare",
        {
            "market": {"arrival_mode": "demand-model"},
            "policy": {"work_mode": "threshold"},
            "do_params": SQUARE,
        },
    ),
    "ablate-auction-threshold": ("ablate", {"policy": {"work_mode": "threshold"}}),
    "ablate-demand-greedy-square": (
        "ablate",
        {"market": {"arrival_mode": "demand-model"}, "do_params": SQUARE},
    ),
}

GOLDEN = {
    "ablate-auction-threshold": {
        "pas-afl/manifest.json":
            "3c711e34503f925c5ac52ea055690b5a3225a304d2877e576f54796574afe289",
        "pas-afl/metrics_seed1.csv":
            "3560f852b2e12e222fffad227452997970db3168cd9efa41c2087d4e2a3dae63",
        "pas-afl/metrics_seed2.csv":
            "b54d1eb1d6c8765ec6417b50e39241af9aec252d645f14f900a0a7930bccd0cf",
        "pas-nopricing-ampp/manifest.json":
            "a9b394d2928a9c9aeaecc9d5571beb2767a7813678bcb79040701534e857072e",
        "pas-nopricing-ampp/metrics_seed1.csv":
            "a298b567e45f1d3d7defd8498325c7efa80a3d6515c9235994baed43dfcf8e4c",
        "pas-nopricing-ampp/metrics_seed2.csv":
            "27fb7e110ddc3118a58869d874cd262b2fa4de35ace1efb6171bf232bf60a753",
        "pas-nopricing-lin/manifest.json":
            "a5f0c0cca4e95f6d25b2001a0523c0a22971273e4f13a21bf721a7fdfd0a81d4",
        "pas-nopricing-lin/metrics_seed1.csv":
            "20349baa7eca596a218bf5887c3bd2a47b93bf058c789260e0109730bb43932e",
        "pas-nopricing-lin/metrics_seed2.csv":
            "bcca2e9b081eb0587b4754862ac819c68db2dbaf52a1b7749f46631edee1a06d",
        "pas-nopricing-rand/manifest.json":
            "c60853d57d4cf6af04f45c7ca5972bc028e4ecbc6eceba7282df5e309c248475",
        "pas-nopricing-rand/metrics_seed1.csv":
            "da9b3b5ce7d31a06c5181e73445ba179c9a84c9b468deafd562b4422684d1879",
        "pas-nopricing-rand/metrics_seed2.csv":
            "dcc0910b5c7ecc70866ac337652323768456b9c73c7f0c8789135dbdee86d959",
        "pas-nosubdel-greedy/manifest.json":
            "102a5cd54f5e08cf7c62f7c26272345e5401bccac27fa9bf72985d321df79814",
        "pas-nosubdel-greedy/metrics_seed1.csv":
            "f695138560340f7150cd26b8ff88db45d81c928580bb5e0756f29c6f46d26a39",
        "pas-nosubdel-greedy/metrics_seed2.csv":
            "551a95efdbcd5ca9284c616125522ad6cc2b3e3e6e7f20e443c6414136f3dd4c",
        "pas-nosubdel-rand/manifest.json":
            "5874968a6ea787d7198a0e75ec0eeda5574852ac57327d95bd2d86998eb073e9",
        "pas-nosubdel-rand/metrics_seed1.csv":
            "cc97348df38c57d8a521d45915406ecd59e7524fe29866b58189085f82953591",
        "pas-nosubdel-rand/metrics_seed2.csv":
            "a20c87855797ac400d96b84130fa4ab886650481b6916ad730e08446254a0eca",
        "summary.json":
            "7e624c518f2829535689227d7dae450986291cfa79d94ba7aaabf43f099ca601",
    },
    "ablate-demand-greedy-square": {
        "pas-afl/manifest.json":
            "100bcd797237dbffcbfbc1b5a7194d5354b723de640bca70479c356b7bd7fc52",
        "pas-afl/metrics_seed1.csv":
            "49f15abbbab0d6d544e0be02ed94307fc407b4cc965d89283d25840769d82fe2",
        "pas-afl/metrics_seed2.csv":
            "303a88cfae51dff8dd8d356c03540cc2c537c29cb5a3c804cb274bd526d03fa4",
        "pas-nopricing-ampp/manifest.json":
            "6c92d9876d632d5476b1340ffb53049deaf24cf42fe9851306f717f997be5b4d",
        "pas-nopricing-ampp/metrics_seed1.csv":
            "4a6eaa36110d18c9b7741d4512cb32a475574810b32644b39c7ea7af4b854769",
        "pas-nopricing-ampp/metrics_seed2.csv":
            "249ef18ff45039a33c553baf8e3a6eefa32de41cf7a42d2df0a4d63029855109",
        "pas-nopricing-lin/manifest.json":
            "8bd1386f730fe03ffa03cb475fa6c4b666b59f4d59f58e7ca78b1aa1c46e1c4a",
        "pas-nopricing-lin/metrics_seed1.csv":
            "ca24689de83715309382181edaa5550f5ca28388e3a10e834e4110281d55452e",
        "pas-nopricing-lin/metrics_seed2.csv":
            "41340b46ee22b322b0f90e02121674b6f7de6c1be12f12efceea1df7f463bd79",
        "pas-nopricing-rand/manifest.json":
            "54d8fb1032e494d2af157afdfe25e104e466fc7c96b39aff46d8ca8494177aba",
        "pas-nopricing-rand/metrics_seed1.csv":
            "362c377c83e688b5200bb32426c3ccb521165db706c303e009062859a758f9a9",
        "pas-nopricing-rand/metrics_seed2.csv":
            "90eec0992825e066560e3e5cb3422517eae2dc86c3f59a998f72df6f57169c13",
        "pas-nosubdel-greedy/manifest.json":
            "f256a6f01f9ffbc7d5d09c8a8e0a5164406f6b29979856e696c1b0242fb8d50b",
        "pas-nosubdel-greedy/metrics_seed1.csv":
            "658cdf66ea02e5fd485765d2ad838a67e002667aac8ba3315476d8e566877245",
        "pas-nosubdel-greedy/metrics_seed2.csv":
            "acba75d650551de4739aa0a8d5376e4dcdbb1385ae5d0271ab75e0c49bcafc92",
        "pas-nosubdel-rand/manifest.json":
            "15460f7350614a5ea2616e64e565ea6c08cb3afbc7c8409665b59135c915c9e3",
        "pas-nosubdel-rand/metrics_seed1.csv":
            "141941f3a64a02d77395ac6e2a4b661dcf5635c2d45edd5fffa72821de90c8fb",
        "pas-nosubdel-rand/metrics_seed2.csv":
            "6d3031a9262e35319ad02d08259da977318be6de6478d2adb03994c1b95144e6",
        "summary.json":
            "8deb6de8317bae3df0729be9cb0fea649ec7929b7e1630ad8ba60a9f57498501",
    },
    "compare-auction-greedy": {
        "ampp-greedy/manifest.json":
            "7415bae7805773417ce04f334cb8ebc55efd84065fe8ba4a29f7f985df91aaaa",
        "ampp-greedy/metrics_seed1.csv":
            "24d08636b4633c030635c6d4edd8e7844bffccb9b7e5a145d3828c0a27b33b52",
        "ampp-greedy/metrics_seed2.csv":
            "5e0dbd8c25997207671cbd498fc088e1ef0751fd94c8fd00e26b80e825678da2",
        "ampp-rand/manifest.json":
            "59808bbc0d56b2c9790a4655369d8b8e682afe98502d9e76a45823ee176dcde4",
        "ampp-rand/metrics_seed1.csv":
            "59ba16c750333b8c8ebcba63a9d5fe6fa6c9ee865c9e70c1e52542b21e7fb1f0",
        "ampp-rand/metrics_seed2.csv":
            "3f73a737b6d21f37c4f991f054549e011725c98a09c448f977c288cd6588dbe4",
        "lin-greedy/manifest.json":
            "2e79998746a75a81f55db6f44b6f6e83bc6135eb4a3bfcc5bb4e40a5b023260f",
        "lin-greedy/metrics_seed1.csv":
            "7ab5a8479a3550193c356d89eb0eb36bf5cc3f9a96761519aa0811c4723bdd0b",
        "lin-greedy/metrics_seed2.csv":
            "d7de979706becec739f151a545c21271f2c98b50698bcc9cb21504e76bbb5971",
        "lin-rand/manifest.json":
            "2cfc90d10e26b4c68bd998f4b27bf6ea74b069a1650a8eabce494880a7866cc9",
        "lin-rand/metrics_seed1.csv":
            "7534faab495ac16ac0d3ee99124483aaf7a0712549ea4eecebf774e711f98c0a",
        "lin-rand/metrics_seed2.csv":
            "3348b5e007ce6f9bdbe68a3c1e394231cdb4da4d274baffa4fbc744b8d22b51d",
        "pas-afl/manifest.json":
            "29a0e0074446a63a1b589608f50e63c4bb32a394bb72dcfc3954eefc7f5737a5",
        "pas-afl/metrics_seed1.csv":
            "231f469904fb7082d25b58d197800e4a91c7803a7149a398d485ade8ec024d72",
        "pas-afl/metrics_seed2.csv":
            "1da9c045754edfb7c80c77a44be49ceab1ecb6e98eab67f14315037ce1d34999",
        "rand-greedy/manifest.json":
            "eb5f35dbf1ce101d0ca6479dceadaaf523c2864e180f8de0e32e473aa9d79d6b",
        "rand-greedy/metrics_seed1.csv":
            "82b28ff7663124056c09b47832a6a330a8c694b6c6993e85139245f0f4dc411a",
        "rand-greedy/metrics_seed2.csv":
            "33e3e1967e0857f6ff896e7bcbfd10bf07e6f4d421fdcdf8227c3496d4f22b4c",
        "rand-rand/manifest.json":
            "7bbc160f50cac04b88cb63595f9dcb621f7b90c28c363fee37ae17b012ffd450",
        "rand-rand/metrics_seed1.csv":
            "d9e43bbc60f07fa653733bae50d7052f3e0495103b2639800ad0d3eed71f9fb0",
        "rand-rand/metrics_seed2.csv":
            "e75787e564767d28e3d75a27e30b297e8d7b09aabcb3a542de511b1f663b3b44",
        "summary.json":
            "b29bc73f343e78341572b5d6f6c0161ab63d7e0ec1850e3219110657ba9e4e6b",
    },
    "compare-demand-threshold-square": {
        "ampp-greedy/manifest.json":
            "38e9c6e75b2f068a665e9e0d6a9211273a6b9ce86ce2e2890b30bdd6d8c9b2e4",
        "ampp-greedy/metrics_seed1.csv":
            "abd0761a19bd3c46054f8c935121c007ee6e52b657c923e64f8963cfb667660f",
        "ampp-greedy/metrics_seed2.csv":
            "9ea44da0c538a243f46a71ded2a3a6e50797091fd1c1b34dbc1808ef19e80579",
        "ampp-rand/manifest.json":
            "d0c062335e884d70c880e23feb9e200fecda4ea9c1be140c0f7aca833dbdd97a",
        "ampp-rand/metrics_seed1.csv":
            "ea3ee6b894169fd4d9f0233c2f5cefed1cc0c09af2c9fc3fb649f09b1d79bfd3",
        "ampp-rand/metrics_seed2.csv":
            "72189b365c400d8860fb74105a449379d4f93f6880d9fe58968aad2f2be37eea",
        "lin-greedy/manifest.json":
            "a205766c2641fcf4e8af356c66dcaba634c76ec5f1608cb1276d49cccee98d02",
        "lin-greedy/metrics_seed1.csv":
            "89c4b6657a5cc46c91ca946a934f444a86e4d64e062522edc08a71601f86fb46",
        "lin-greedy/metrics_seed2.csv":
            "5bef91c991bcc77c048725a35a0d6957dab0d61ecec7f3d6da5d2cd906113d34",
        "lin-rand/manifest.json":
            "f0333f432548c7857aa86b1afce829a9922f237e465587bfca43bc6c16772cb1",
        "lin-rand/metrics_seed1.csv":
            "333306923792977c62affd29cc819f87954622855aae1e1b701ab95d7fc2bf26",
        "lin-rand/metrics_seed2.csv":
            "1c7348332768b9118604f23954478bd22dd1f4d5fbca978b76b4ecd3683493d8",
        "pas-afl/manifest.json":
            "38e5655c2df4fcc54b219ae00556a4861e09f575e537f859d3ee2706352628ce",
        "pas-afl/metrics_seed1.csv":
            "5452cffb84e2d5e7039f07fd905682421cf8d14ea1951614bb9ffedfb5e5c024",
        "pas-afl/metrics_seed2.csv":
            "84f4b0ecd1579c9fbe28c771ff0f88797ec09652905aabf42bcbda61b5b0b366",
        "rand-greedy/manifest.json":
            "2fc4d5de75050e4ad30c421e3548e0d86ccb077599ea998b1b5f2dd4d77b2105",
        "rand-greedy/metrics_seed1.csv":
            "7f9d0dc9b7e8cdd1b9276f88dcb9cb8b3b573b0ecdc5929bd757233f18191214",
        "rand-greedy/metrics_seed2.csv":
            "ba720e1a4a33e5a65e70ba1d38b0c3ec7366f88b812564f645b52ccda1767322",
        "rand-rand/manifest.json":
            "6b26ee537cd1b6ef65e22b79c0d125f96f735789da8e5f91872614f5300931fa",
        "rand-rand/metrics_seed1.csv":
            "3b19b5b4cd839a9ae0e912452700566d6de2b01225d6f430636fe1c26356404c",
        "rand-rand/metrics_seed2.csv":
            "ebebd0378562547c6ab36bcaa71cbaf23d508d75dc31ee91f62f928985227d67",
        "summary.json":
            "8ed2bd4fdf4201f163f7c9c4ecdca260ff84557dc399f5161765563da068947f",
    },
    "run-lin-rand-demand-round": {
        "manifest.json":
            "e97ac7c2c778a971b9896dd90bd3d1cf65e275aec2ee5d8ba15530013988637c",
        "metrics_seed1.csv":
            "6ae3b95810c9777a9d3143d6ca894d07e76156db3190def15a796d49440e80a5",
        "metrics_seed2.csv":
            "818c74a2dfedab11e72b00ac96550ab8156bb12da0f23e02f54ae3a56f5f4059",
        "summary.json":
            "a4fe4667346b66c6f253a126feb8289e9f9125db27a6c4a775a3def982e25075",
    },
    "run-mixed-auction-threshold-square": {
        "manifest.json":
            "5fb8993a9e876d0343a55e03ecca788dfc5f244f5b3ebd819e09cbdb26727e83",
        "metrics_seed1.csv":
            "ea64bfc59accbc6e1ced8484da07924c204d9b80760dd99cbc62a749da1f155d",
        "metrics_seed2.csv":
            "c865854d82ac3507187983ea7a4af0a6768a06a7802936d3e9296747533d8320",
        "summary.json":
            "9b07cf623113660ebe0246d4b253b94ec0844401270d1e1a225b895cdf9d29c9",
    },
}


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Run one case through the CLI and hash every artifact it wrote."""
    verb, overrides = CASES[name]
    config_path = workdir / f"{name}.json"
    config_path.write_text(json.dumps({**SMALL, **overrides}))
    out = workdir / name
    assert main(["--quiet", verb, "--config", str(config_path), "--out", str(out)]) == 0
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_cases_cover_every_policy():
    assert set(MIXED) == set(POLICIES)
    assert {verb for verb, _ in CASES.values()} == {"run", "compare", "ablate"}


@pytest.mark.parametrize("name", list(CASES))
def test_artifacts_match_golden_hashes(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        found = {name: run_case(name, Path(tmp)) for name in CASES}
    json.dump(found, sys.stdout, indent=4, sort_keys=True)
    print()
