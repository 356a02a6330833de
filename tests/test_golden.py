"""Golden output hashes: the CLI's artifacts must not drift across refactors.

Each case runs one CLI verb on a small world (20 DOs, 50 steps, seeds 1 and
2) and pins the SHA-256 of every `metrics_seed*.csv`, `manifest.json` and
`summary.json` it writes, keyed by the path relative to `--out`: every verb
writes one directory per cell, `<policy>/`, and `summary.json` beside them.
For one `run` case and one `compare` case it also runs `plotdata` on that
output and pins its three tables, keyed `plotdata/<file>`.  Together the
cases cover all twelve registered policies, both arrival modes, both work
modes, the square availability schedule, a delegation-depth cap that binds
(a task delegated once may not move again), and a per-DO mixed assignment
under `run`, whose cell is `mixed/`.

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
    "compare-auction-greedy-depth1": ("compare", {"market": {"delegation_depth_max": 1}}),
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
PLOTTED = ("run-lin-rand-demand-round", "compare-auction-greedy")

GOLDEN = {
    "ablate-auction-threshold": {
        "pas-afl/manifest.json":
            "718805272bb1b2ce0ce638344db5aa668d5aa0e34bf74748cccac21764b50ea7",
        "pas-afl/metrics_seed1.csv":
            "3560f852b2e12e222fffad227452997970db3168cd9efa41c2087d4e2a3dae63",
        "pas-afl/metrics_seed2.csv":
            "b54d1eb1d6c8765ec6417b50e39241af9aec252d645f14f900a0a7930bccd0cf",
        "pas-nopricing-ampp/manifest.json":
            "158366df90561ee012ac5f490d3c77920a95d2d2fd0da7fcfbe262540a25c42f",
        "pas-nopricing-ampp/metrics_seed1.csv":
            "a298b567e45f1d3d7defd8498325c7efa80a3d6515c9235994baed43dfcf8e4c",
        "pas-nopricing-ampp/metrics_seed2.csv":
            "27fb7e110ddc3118a58869d874cd262b2fa4de35ace1efb6171bf232bf60a753",
        "pas-nopricing-lin/manifest.json":
            "76b87de433329bcbfda9547e5c9e8e0058d47cd94d2d8f1f651611c8d83a4905",
        "pas-nopricing-lin/metrics_seed1.csv":
            "20349baa7eca596a218bf5887c3bd2a47b93bf058c789260e0109730bb43932e",
        "pas-nopricing-lin/metrics_seed2.csv":
            "bcca2e9b081eb0587b4754862ac819c68db2dbaf52a1b7749f46631edee1a06d",
        "pas-nopricing-rand/manifest.json":
            "16b0b796a2e516490dedb9890fa58822a365db4b833a652a8605dec79575d898",
        "pas-nopricing-rand/metrics_seed1.csv":
            "da9b3b5ce7d31a06c5181e73445ba179c9a84c9b468deafd562b4422684d1879",
        "pas-nopricing-rand/metrics_seed2.csv":
            "dcc0910b5c7ecc70866ac337652323768456b9c73c7f0c8789135dbdee86d959",
        "pas-nosubdel-greedy/manifest.json":
            "0a17a2bccbe4a7126bb818fa7e50a47960bc91ca4b3e9ec45d4b30b693e6cd0e",
        "pas-nosubdel-greedy/metrics_seed1.csv":
            "f695138560340f7150cd26b8ff88db45d81c928580bb5e0756f29c6f46d26a39",
        "pas-nosubdel-greedy/metrics_seed2.csv":
            "551a95efdbcd5ca9284c616125522ad6cc2b3e3e6e7f20e443c6414136f3dd4c",
        "pas-nosubdel-rand/manifest.json":
            "bd2e94f46c1a6ecb96d2b588335f49b3d1a5f04ea789ba655ed3b4458179d68e",
        "pas-nosubdel-rand/metrics_seed1.csv":
            "cc97348df38c57d8a521d45915406ecd59e7524fe29866b58189085f82953591",
        "pas-nosubdel-rand/metrics_seed2.csv":
            "a20c87855797ac400d96b84130fa4ab886650481b6916ad730e08446254a0eca",
        "summary.json":
            "7e624c518f2829535689227d7dae450986291cfa79d94ba7aaabf43f099ca601",
    },
    "ablate-demand-greedy-square": {
        "pas-afl/manifest.json":
            "7878ee7fdada3d99f9bdef38ca02d40d846ded6d95193e9b32215ba3cc2e825f",
        "pas-afl/metrics_seed1.csv":
            "49f15abbbab0d6d544e0be02ed94307fc407b4cc965d89283d25840769d82fe2",
        "pas-afl/metrics_seed2.csv":
            "303a88cfae51dff8dd8d356c03540cc2c537c29cb5a3c804cb274bd526d03fa4",
        "pas-nopricing-ampp/manifest.json":
            "dac72bc781249b3314396c1de6e65ef88c54321059cee25c28b094307464cef2",
        "pas-nopricing-ampp/metrics_seed1.csv":
            "4a6eaa36110d18c9b7741d4512cb32a475574810b32644b39c7ea7af4b854769",
        "pas-nopricing-ampp/metrics_seed2.csv":
            "249ef18ff45039a33c553baf8e3a6eefa32de41cf7a42d2df0a4d63029855109",
        "pas-nopricing-lin/manifest.json":
            "ccebf718d1c2022ec6fbb0870210baed2e25d71af86b440bb663d1064c5a6c12",
        "pas-nopricing-lin/metrics_seed1.csv":
            "ca24689de83715309382181edaa5550f5ca28388e3a10e834e4110281d55452e",
        "pas-nopricing-lin/metrics_seed2.csv":
            "41340b46ee22b322b0f90e02121674b6f7de6c1be12f12efceea1df7f463bd79",
        "pas-nopricing-rand/manifest.json":
            "1ce2354434f82acdfaa2fa37356333399e80a9203bff1ff45dd391ae0a1ddc6c",
        "pas-nopricing-rand/metrics_seed1.csv":
            "362c377c83e688b5200bb32426c3ccb521165db706c303e009062859a758f9a9",
        "pas-nopricing-rand/metrics_seed2.csv":
            "90eec0992825e066560e3e5cb3422517eae2dc86c3f59a998f72df6f57169c13",
        "pas-nosubdel-greedy/manifest.json":
            "2730f73832695e141742c6b56cf02210e2ab0e61490332dff28c1e37a620e39b",
        "pas-nosubdel-greedy/metrics_seed1.csv":
            "658cdf66ea02e5fd485765d2ad838a67e002667aac8ba3315476d8e566877245",
        "pas-nosubdel-greedy/metrics_seed2.csv":
            "acba75d650551de4739aa0a8d5376e4dcdbb1385ae5d0271ab75e0c49bcafc92",
        "pas-nosubdel-rand/manifest.json":
            "0d31da8b085db687d41bcd1373458f150ee508c9c5ae130da819e19cb8e201c6",
        "pas-nosubdel-rand/metrics_seed1.csv":
            "141941f3a64a02d77395ac6e2a4b661dcf5635c2d45edd5fffa72821de90c8fb",
        "pas-nosubdel-rand/metrics_seed2.csv":
            "6d3031a9262e35319ad02d08259da977318be6de6478d2adb03994c1b95144e6",
        "summary.json":
            "8deb6de8317bae3df0729be9cb0fea649ec7929b7e1630ad8ba60a9f57498501",
    },
    "compare-auction-greedy": {
        "ampp-greedy/manifest.json":
            "019c2c2260b7af42fda6fb9e872cf76fe17dc70836effdf5811e708f591c51e0",
        "ampp-greedy/metrics_seed1.csv":
            "24d08636b4633c030635c6d4edd8e7844bffccb9b7e5a145d3828c0a27b33b52",
        "ampp-greedy/metrics_seed2.csv":
            "5e0dbd8c25997207671cbd498fc088e1ef0751fd94c8fd00e26b80e825678da2",
        "ampp-rand/manifest.json":
            "1716ca5d30955dfacd4e15ed762cf3f6f17441c916333471dd9da6d2685c50d3",
        "ampp-rand/metrics_seed1.csv":
            "59ba16c750333b8c8ebcba63a9d5fe6fa6c9ee865c9e70c1e52542b21e7fb1f0",
        "ampp-rand/metrics_seed2.csv":
            "3f73a737b6d21f37c4f991f054549e011725c98a09c448f977c288cd6588dbe4",
        "lin-greedy/manifest.json":
            "7e7a9095afc6cb630b64efd0faff494a04f0c40e4e6c76039cc433e639b0fad0",
        "lin-greedy/metrics_seed1.csv":
            "7ab5a8479a3550193c356d89eb0eb36bf5cc3f9a96761519aa0811c4723bdd0b",
        "lin-greedy/metrics_seed2.csv":
            "d7de979706becec739f151a545c21271f2c98b50698bcc9cb21504e76bbb5971",
        "lin-rand/manifest.json":
            "0e10b9a85096ac2cb567075c71a61793ce0f9eba4bb4e3744e225e28a847835f",
        "lin-rand/metrics_seed1.csv":
            "7534faab495ac16ac0d3ee99124483aaf7a0712549ea4eecebf774e711f98c0a",
        "lin-rand/metrics_seed2.csv":
            "3348b5e007ce6f9bdbe68a3c1e394231cdb4da4d274baffa4fbc744b8d22b51d",
        "pas-afl/manifest.json":
            "832f03708d453d5fb0803cc8ab11510eabd18ba277abfc5cbec2de2411a5c6ae",
        "pas-afl/metrics_seed1.csv":
            "231f469904fb7082d25b58d197800e4a91c7803a7149a398d485ade8ec024d72",
        "pas-afl/metrics_seed2.csv":
            "1da9c045754edfb7c80c77a44be49ceab1ecb6e98eab67f14315037ce1d34999",
        "plotdata/backlog_vs_time.csv":
            "a67c6ae3ef5b173e81dcac45d67d33e4364faccf5fa86eb0a0c793ac98637f95",
        "plotdata/policy_comparison.csv":
            "6de9968fcdc39e98a4355f5bc7c568f8e443caa3070ac9b98d4bd39f320281c0",
        "plotdata/utility_vs_time.csv":
            "3fe14554d60ea438453d2cff539cc2d172262f72702b5155ba8a1a6dd7ff4564",
        "rand-greedy/manifest.json":
            "9d3f299ee05f2348958f17f72a90db490af74a291c4490f9fad02619daf1da79",
        "rand-greedy/metrics_seed1.csv":
            "82b28ff7663124056c09b47832a6a330a8c694b6c6993e85139245f0f4dc411a",
        "rand-greedy/metrics_seed2.csv":
            "33e3e1967e0857f6ff896e7bcbfd10bf07e6f4d421fdcdf8227c3496d4f22b4c",
        "rand-rand/manifest.json":
            "a8187b450a2f87e0feecdbc046a1a590510b864409eddc8328c08f679e7ba41e",
        "rand-rand/metrics_seed1.csv":
            "d9e43bbc60f07fa653733bae50d7052f3e0495103b2639800ad0d3eed71f9fb0",
        "rand-rand/metrics_seed2.csv":
            "e75787e564767d28e3d75a27e30b297e8d7b09aabcb3a542de511b1f663b3b44",
        "summary.json":
            "b29bc73f343e78341572b5d6f6c0161ab63d7e0ec1850e3219110657ba9e4e6b",
    },
    "compare-auction-greedy-depth1": {
        "ampp-greedy/manifest.json":
            "23e9ce1a514710795ec4dd31907963c31d37f78800891219efb335e6b7f34547",
        "ampp-greedy/metrics_seed1.csv":
            "cd21a96079dcc8d966f6458e9aa016c5f3b4c20964b535f176f3eb436b9d4a5c",
        "ampp-greedy/metrics_seed2.csv":
            "3b24867fe242864819e8b7de0aa2e9b4ae96d35dad5700d6873e31bd81cf40fd",
        "ampp-rand/manifest.json":
            "7a493446bc8c4907b17228f480101e9e646a0ccc654185a2ba199ee593a66b26",
        "ampp-rand/metrics_seed1.csv":
            "59ba16c750333b8c8ebcba63a9d5fe6fa6c9ee865c9e70c1e52542b21e7fb1f0",
        "ampp-rand/metrics_seed2.csv":
            "3f73a737b6d21f37c4f991f054549e011725c98a09c448f977c288cd6588dbe4",
        "lin-greedy/manifest.json":
            "6473cd8f946b0a40799ac62ac9ddbf2b18c989fe3f09f7678349a6aff4faf23c",
        "lin-greedy/metrics_seed1.csv":
            "7ab5a8479a3550193c356d89eb0eb36bf5cc3f9a96761519aa0811c4723bdd0b",
        "lin-greedy/metrics_seed2.csv":
            "d7de979706becec739f151a545c21271f2c98b50698bcc9cb21504e76bbb5971",
        "lin-rand/manifest.json":
            "13feb4f22056152d19fae97d06cb8314adb420c1268a8d5f47f5d6d3b637b422",
        "lin-rand/metrics_seed1.csv":
            "7534faab495ac16ac0d3ee99124483aaf7a0712549ea4eecebf774e711f98c0a",
        "lin-rand/metrics_seed2.csv":
            "3348b5e007ce6f9bdbe68a3c1e394231cdb4da4d274baffa4fbc744b8d22b51d",
        "pas-afl/manifest.json":
            "bb4446029cb22edccd28aec8a6f9986d6e97492a98f5d38b12c02e82232a0bf2",
        "pas-afl/metrics_seed1.csv":
            "231f469904fb7082d25b58d197800e4a91c7803a7149a398d485ade8ec024d72",
        "pas-afl/metrics_seed2.csv":
            "1da9c045754edfb7c80c77a44be49ceab1ecb6e98eab67f14315037ce1d34999",
        "rand-greedy/manifest.json":
            "6dc30558a9e35c3b74cbc94d1ce4c6f355e15b3727274829f672645b0e85fe5e",
        "rand-greedy/metrics_seed1.csv":
            "2b952423c2a3d144e0df49cf40c1835be1238c97fd669fd9fce3e58b653c25f9",
        "rand-greedy/metrics_seed2.csv":
            "8fdac9208a6237c915ea9bc6f6e1f076bb6518c8968a0165441ef251fed73166",
        "rand-rand/manifest.json":
            "81c17759a99dc7e9eb78022da9c2cd643f5c621011d106a1c3a0f01d3c7e7eca",
        "rand-rand/metrics_seed1.csv":
            "d9e43bbc60f07fa653733bae50d7052f3e0495103b2639800ad0d3eed71f9fb0",
        "rand-rand/metrics_seed2.csv":
            "3ea3d1e5a0139ce9312b6dd13ae271f02d34e0184aa74db7b9164e2877f79ac0",
        "summary.json":
            "b00f1d1e1bc4170f6b4ca6da105535e4148f5e5d6f406e5020fd9e361e44f151",
    },
    "compare-demand-threshold-square": {
        "ampp-greedy/manifest.json":
            "bbe558529ff58ea185bb4429b30ad1cc34624f901448eddaa9f18626ad9978d2",
        "ampp-greedy/metrics_seed1.csv":
            "abd0761a19bd3c46054f8c935121c007ee6e52b657c923e64f8963cfb667660f",
        "ampp-greedy/metrics_seed2.csv":
            "9ea44da0c538a243f46a71ded2a3a6e50797091fd1c1b34dbc1808ef19e80579",
        "ampp-rand/manifest.json":
            "ae1a3a81d6075836eea0567abf3e7ea8e72568c9c36629a16485bc851dbe1ea1",
        "ampp-rand/metrics_seed1.csv":
            "ea3ee6b894169fd4d9f0233c2f5cefed1cc0c09af2c9fc3fb649f09b1d79bfd3",
        "ampp-rand/metrics_seed2.csv":
            "72189b365c400d8860fb74105a449379d4f93f6880d9fe58968aad2f2be37eea",
        "lin-greedy/manifest.json":
            "bae3fad2606551a9df2370a78c1467179c472195aa6e863a830fde6ebccfc1ce",
        "lin-greedy/metrics_seed1.csv":
            "89c4b6657a5cc46c91ca946a934f444a86e4d64e062522edc08a71601f86fb46",
        "lin-greedy/metrics_seed2.csv":
            "5bef91c991bcc77c048725a35a0d6957dab0d61ecec7f3d6da5d2cd906113d34",
        "lin-rand/manifest.json":
            "1d6129024830400d46f11e1586e6d6862ed52d5c8a685d30e01814178a716533",
        "lin-rand/metrics_seed1.csv":
            "333306923792977c62affd29cc819f87954622855aae1e1b701ab95d7fc2bf26",
        "lin-rand/metrics_seed2.csv":
            "1c7348332768b9118604f23954478bd22dd1f4d5fbca978b76b4ecd3683493d8",
        "pas-afl/manifest.json":
            "81232d72b65aad9a3e7c02437bb593afb513c6f22536ccba6a313ccc7d270357",
        "pas-afl/metrics_seed1.csv":
            "5452cffb84e2d5e7039f07fd905682421cf8d14ea1951614bb9ffedfb5e5c024",
        "pas-afl/metrics_seed2.csv":
            "84f4b0ecd1579c9fbe28c771ff0f88797ec09652905aabf42bcbda61b5b0b366",
        "rand-greedy/manifest.json":
            "25ef9b6478280cd948cd0e0ab55794fcface960b266005f4e4a9701774cd4d85",
        "rand-greedy/metrics_seed1.csv":
            "7f9d0dc9b7e8cdd1b9276f88dcb9cb8b3b573b0ecdc5929bd757233f18191214",
        "rand-greedy/metrics_seed2.csv":
            "ba720e1a4a33e5a65e70ba1d38b0c3ec7366f88b812564f645b52ccda1767322",
        "rand-rand/manifest.json":
            "c90d02a94bae055789bbb3a559ffd260e46e37f023b74169f845c17c520dc0bf",
        "rand-rand/metrics_seed1.csv":
            "3b19b5b4cd839a9ae0e912452700566d6de2b01225d6f430636fe1c26356404c",
        "rand-rand/metrics_seed2.csv":
            "ebebd0378562547c6ab36bcaa71cbaf23d508d75dc31ee91f62f928985227d67",
        "summary.json":
            "8ed2bd4fdf4201f163f7c9c4ecdca260ff84557dc399f5161765563da068947f",
    },
    "run-lin-rand-demand-round": {
        "lin-rand/manifest.json":
            "75042f903aa0668de9781fb418de80f5821f4fc6d002f01bc5bb64825085d9a7",
        "lin-rand/metrics_seed1.csv":
            "6ae3b95810c9777a9d3143d6ca894d07e76156db3190def15a796d49440e80a5",
        "lin-rand/metrics_seed2.csv":
            "818c74a2dfedab11e72b00ac96550ab8156bb12da0f23e02f54ae3a56f5f4059",
        "plotdata/backlog_vs_time.csv":
            "839f3dc89e1927767748147cb7745b27e09199cff15c75bc2b3544db64faf35c",
        "plotdata/policy_comparison.csv":
            "a9428263ebebcc377f7b1671dee89f7fe619b9fcd6dc0a41b492d10a5c028c89",
        "plotdata/utility_vs_time.csv":
            "ae91844a098656df1bf1abda1400ce671c5d4f6eb3d391f960a39dc9b53b4a85",
        "summary.json":
            "a4fe4667346b66c6f253a126feb8289e9f9125db27a6c4a775a3def982e25075",
    },
    "run-mixed-auction-threshold-square": {
        "mixed/manifest.json":
            "fafac433ec6b700b29d1b5a54d5e8585132b92375179e91ae3913f6c428a6dc2",
        "mixed/metrics_seed1.csv":
            "ea64bfc59accbc6e1ced8484da07924c204d9b80760dd99cbc62a749da1f155d",
        "mixed/metrics_seed2.csv":
            "c865854d82ac3507187983ea7a4af0a6768a06a7802936d3e9296747533d8320",
        "summary.json":
            "9780a06e6b9dc7dc2bdc5b7fb4bc912cd1dc282ed85da37f411ab3f5fc7cd581",
    },
}


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Run one case through the CLI and hash every artifact it wrote."""
    verb, overrides = CASES[name]
    config_path = workdir / f"{name}.json"
    config_path.write_text(json.dumps({**SMALL, **overrides}))
    out = workdir / name
    assert main(["--quiet", verb, "--config", str(config_path), "--out", str(out)]) == 0
    hashes = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    if name in PLOTTED:
        plots = workdir / f"{name}-plotdata"
        assert main(["--quiet", "plotdata", "--runs", str(out), "--out", str(plots)]) == 0
        for path in sorted(plots.iterdir()):
            hashes[f"plotdata/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


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
