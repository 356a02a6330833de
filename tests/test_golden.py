"""Golden output hashes: the CLI's artifacts must not drift across refactors.

Each case runs one CLI verb on a small world (20 DOs, 50 steps, seeds 1 and
2) and pins the SHA-256 of every `metrics_seed*.csv`, `manifest.json` and
`summary.json` it writes, keyed by the path relative to `--out`.  For one
flat `run` case and one per-policy `compare` case it also runs `plotdata` on
that output and pins its three tables, keyed `plotdata/<file>`.  Together
the cases cover all twelve registered policies, both arrival modes, both
work modes, the square availability schedule, a delegation-depth cap that
binds (a task delegated once may not move again), a per-DO mixed assignment
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
            "b67e840c7a584a4fe7a7630a003fc342d8c142eba968cf6b1a40952334345677",
        "pas-afl/metrics_seed1.csv":
            "3560f852b2e12e222fffad227452997970db3168cd9efa41c2087d4e2a3dae63",
        "pas-afl/metrics_seed2.csv":
            "b54d1eb1d6c8765ec6417b50e39241af9aec252d645f14f900a0a7930bccd0cf",
        "pas-nopricing-ampp/manifest.json":
            "029200097ad3413d700c2b499e432ec74f0442536dbb9893c9f36f556c2db791",
        "pas-nopricing-ampp/metrics_seed1.csv":
            "a298b567e45f1d3d7defd8498325c7efa80a3d6515c9235994baed43dfcf8e4c",
        "pas-nopricing-ampp/metrics_seed2.csv":
            "27fb7e110ddc3118a58869d874cd262b2fa4de35ace1efb6171bf232bf60a753",
        "pas-nopricing-lin/manifest.json":
            "c5c38a837264c6afc09594b16d6b84de265d888ad6ab288282c218aa7752af87",
        "pas-nopricing-lin/metrics_seed1.csv":
            "20349baa7eca596a218bf5887c3bd2a47b93bf058c789260e0109730bb43932e",
        "pas-nopricing-lin/metrics_seed2.csv":
            "bcca2e9b081eb0587b4754862ac819c68db2dbaf52a1b7749f46631edee1a06d",
        "pas-nopricing-rand/manifest.json":
            "72985f09d5db8042cfa37c00217d5a6b9df3b4cd428276ad1146e2bc7e869f69",
        "pas-nopricing-rand/metrics_seed1.csv":
            "da9b3b5ce7d31a06c5181e73445ba179c9a84c9b468deafd562b4422684d1879",
        "pas-nopricing-rand/metrics_seed2.csv":
            "dcc0910b5c7ecc70866ac337652323768456b9c73c7f0c8789135dbdee86d959",
        "pas-nosubdel-greedy/manifest.json":
            "c7bbe926736ec09884a3bcd02f46a528e3584cec50165490ba86fafdf0015404",
        "pas-nosubdel-greedy/metrics_seed1.csv":
            "f695138560340f7150cd26b8ff88db45d81c928580bb5e0756f29c6f46d26a39",
        "pas-nosubdel-greedy/metrics_seed2.csv":
            "551a95efdbcd5ca9284c616125522ad6cc2b3e3e6e7f20e443c6414136f3dd4c",
        "pas-nosubdel-rand/manifest.json":
            "ba50ef5ad7a345cf14e141ff20c75a92b8744ea98df85abc23e9bba12b104440",
        "pas-nosubdel-rand/metrics_seed1.csv":
            "cc97348df38c57d8a521d45915406ecd59e7524fe29866b58189085f82953591",
        "pas-nosubdel-rand/metrics_seed2.csv":
            "a20c87855797ac400d96b84130fa4ab886650481b6916ad730e08446254a0eca",
        "summary.json":
            "7e624c518f2829535689227d7dae450986291cfa79d94ba7aaabf43f099ca601",
    },
    "ablate-demand-greedy-square": {
        "pas-afl/manifest.json":
            "d52d53336cb293b4ccff97ecceeed51c61f912b92ce6db696fee2bec791e2ee1",
        "pas-afl/metrics_seed1.csv":
            "49f15abbbab0d6d544e0be02ed94307fc407b4cc965d89283d25840769d82fe2",
        "pas-afl/metrics_seed2.csv":
            "303a88cfae51dff8dd8d356c03540cc2c537c29cb5a3c804cb274bd526d03fa4",
        "pas-nopricing-ampp/manifest.json":
            "558750706f2968f93411dca7ba2eb48fa8a743bbadb600519b198bae76f99060",
        "pas-nopricing-ampp/metrics_seed1.csv":
            "4a6eaa36110d18c9b7741d4512cb32a475574810b32644b39c7ea7af4b854769",
        "pas-nopricing-ampp/metrics_seed2.csv":
            "249ef18ff45039a33c553baf8e3a6eefa32de41cf7a42d2df0a4d63029855109",
        "pas-nopricing-lin/manifest.json":
            "f128868c157ce4d0565a45976f5c7ab133a23231577e20cbab6896e4bc6a3e73",
        "pas-nopricing-lin/metrics_seed1.csv":
            "ca24689de83715309382181edaa5550f5ca28388e3a10e834e4110281d55452e",
        "pas-nopricing-lin/metrics_seed2.csv":
            "41340b46ee22b322b0f90e02121674b6f7de6c1be12f12efceea1df7f463bd79",
        "pas-nopricing-rand/manifest.json":
            "b22c417bb54e533ed2afd56bf8809528d7cea8857c41336b8b2c8bf0a6dd8831",
        "pas-nopricing-rand/metrics_seed1.csv":
            "362c377c83e688b5200bb32426c3ccb521165db706c303e009062859a758f9a9",
        "pas-nopricing-rand/metrics_seed2.csv":
            "90eec0992825e066560e3e5cb3422517eae2dc86c3f59a998f72df6f57169c13",
        "pas-nosubdel-greedy/manifest.json":
            "e3e56aec7db767188313f304b7f3cc6257f946d1332b912c91ed94814d045044",
        "pas-nosubdel-greedy/metrics_seed1.csv":
            "658cdf66ea02e5fd485765d2ad838a67e002667aac8ba3315476d8e566877245",
        "pas-nosubdel-greedy/metrics_seed2.csv":
            "acba75d650551de4739aa0a8d5376e4dcdbb1385ae5d0271ab75e0c49bcafc92",
        "pas-nosubdel-rand/manifest.json":
            "6a725b55c699ed3c36366f9a06e6adbc3fd4bc3a2a9ac2075d77ee96d71b5ee3",
        "pas-nosubdel-rand/metrics_seed1.csv":
            "141941f3a64a02d77395ac6e2a4b661dcf5635c2d45edd5fffa72821de90c8fb",
        "pas-nosubdel-rand/metrics_seed2.csv":
            "6d3031a9262e35319ad02d08259da977318be6de6478d2adb03994c1b95144e6",
        "summary.json":
            "8deb6de8317bae3df0729be9cb0fea649ec7929b7e1630ad8ba60a9f57498501",
    },
    "compare-auction-greedy": {
        "ampp-greedy/manifest.json":
            "c84801e34bb244b0e447378b91c126288854959c224b8c03c5a7a9895ea7cfee",
        "ampp-greedy/metrics_seed1.csv":
            "24d08636b4633c030635c6d4edd8e7844bffccb9b7e5a145d3828c0a27b33b52",
        "ampp-greedy/metrics_seed2.csv":
            "5e0dbd8c25997207671cbd498fc088e1ef0751fd94c8fd00e26b80e825678da2",
        "ampp-rand/manifest.json":
            "033ec55a95954eb30f24e19775ff3378bf9ca72fc8f27f9f8d62f932cced0c11",
        "ampp-rand/metrics_seed1.csv":
            "59ba16c750333b8c8ebcba63a9d5fe6fa6c9ee865c9e70c1e52542b21e7fb1f0",
        "ampp-rand/metrics_seed2.csv":
            "3f73a737b6d21f37c4f991f054549e011725c98a09c448f977c288cd6588dbe4",
        "lin-greedy/manifest.json":
            "78b39ae8450be1c920b58685820da3fd2d2a44a33982d6692cb8e9f6d2ff32ed",
        "lin-greedy/metrics_seed1.csv":
            "7ab5a8479a3550193c356d89eb0eb36bf5cc3f9a96761519aa0811c4723bdd0b",
        "lin-greedy/metrics_seed2.csv":
            "d7de979706becec739f151a545c21271f2c98b50698bcc9cb21504e76bbb5971",
        "lin-rand/manifest.json":
            "83fef5b7e3da2d2bf905164f577420c22b1b2c506c64b2b4bc7331edf1d44a8d",
        "lin-rand/metrics_seed1.csv":
            "7534faab495ac16ac0d3ee99124483aaf7a0712549ea4eecebf774e711f98c0a",
        "lin-rand/metrics_seed2.csv":
            "3348b5e007ce6f9bdbe68a3c1e394231cdb4da4d274baffa4fbc744b8d22b51d",
        "pas-afl/manifest.json":
            "338c73bb98427637e1f929d17dcc18e271f7825ae8f5bbcf3ce99d796c4fdcf0",
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
            "6efcf9895db8035654c34af6f28903c77fb28903393f4fbbdd994d93cffc35bf",
        "rand-greedy/metrics_seed1.csv":
            "82b28ff7663124056c09b47832a6a330a8c694b6c6993e85139245f0f4dc411a",
        "rand-greedy/metrics_seed2.csv":
            "33e3e1967e0857f6ff896e7bcbfd10bf07e6f4d421fdcdf8227c3496d4f22b4c",
        "rand-rand/manifest.json":
            "46fc11f103863b3321390db9345ad9d94b3d7af14038d37740901fb8a3fe3458",
        "rand-rand/metrics_seed1.csv":
            "d9e43bbc60f07fa653733bae50d7052f3e0495103b2639800ad0d3eed71f9fb0",
        "rand-rand/metrics_seed2.csv":
            "e75787e564767d28e3d75a27e30b297e8d7b09aabcb3a542de511b1f663b3b44",
        "summary.json":
            "b29bc73f343e78341572b5d6f6c0161ab63d7e0ec1850e3219110657ba9e4e6b",
    },
    "compare-auction-greedy-depth1": {
        "ampp-greedy/manifest.json":
            "13891f022d4cd6e088feb715afdf2b0022eed55a07d3c21eee62795ffecdf03e",
        "ampp-greedy/metrics_seed1.csv":
            "cd21a96079dcc8d966f6458e9aa016c5f3b4c20964b535f176f3eb436b9d4a5c",
        "ampp-greedy/metrics_seed2.csv":
            "3b24867fe242864819e8b7de0aa2e9b4ae96d35dad5700d6873e31bd81cf40fd",
        "ampp-rand/manifest.json":
            "04e7bd0c6c09621ecd28ca678cdf33c28246b59d5cdc79ed5e541471db5fc960",
        "ampp-rand/metrics_seed1.csv":
            "59ba16c750333b8c8ebcba63a9d5fe6fa6c9ee865c9e70c1e52542b21e7fb1f0",
        "ampp-rand/metrics_seed2.csv":
            "3f73a737b6d21f37c4f991f054549e011725c98a09c448f977c288cd6588dbe4",
        "lin-greedy/manifest.json":
            "dfb7bb2234e45e061634d309be281a3a0c811be0a1c979c369dade01aba488a0",
        "lin-greedy/metrics_seed1.csv":
            "7ab5a8479a3550193c356d89eb0eb36bf5cc3f9a96761519aa0811c4723bdd0b",
        "lin-greedy/metrics_seed2.csv":
            "d7de979706becec739f151a545c21271f2c98b50698bcc9cb21504e76bbb5971",
        "lin-rand/manifest.json":
            "911006d457bd3ee1cd9d6bbc9ce0d19d6518201ccce4108c61b3e53ebc172e82",
        "lin-rand/metrics_seed1.csv":
            "7534faab495ac16ac0d3ee99124483aaf7a0712549ea4eecebf774e711f98c0a",
        "lin-rand/metrics_seed2.csv":
            "3348b5e007ce6f9bdbe68a3c1e394231cdb4da4d274baffa4fbc744b8d22b51d",
        "pas-afl/manifest.json":
            "cdf06fc56a1f88a80efccf031cfefe90cfd74adccd9defecf41886c3a6d349e5",
        "pas-afl/metrics_seed1.csv":
            "231f469904fb7082d25b58d197800e4a91c7803a7149a398d485ade8ec024d72",
        "pas-afl/metrics_seed2.csv":
            "1da9c045754edfb7c80c77a44be49ceab1ecb6e98eab67f14315037ce1d34999",
        "rand-greedy/manifest.json":
            "9194cdcb779468884d4f2fff0ecf6654be16c57bd9012baf6c8f225d7e1835af",
        "rand-greedy/metrics_seed1.csv":
            "2b952423c2a3d144e0df49cf40c1835be1238c97fd669fd9fce3e58b653c25f9",
        "rand-greedy/metrics_seed2.csv":
            "8fdac9208a6237c915ea9bc6f6e1f076bb6518c8968a0165441ef251fed73166",
        "rand-rand/manifest.json":
            "e0ed956618ceb1208c5eb3e751ccd02f3eccfbfe11612dab20720e01cf15a4d0",
        "rand-rand/metrics_seed1.csv":
            "d9e43bbc60f07fa653733bae50d7052f3e0495103b2639800ad0d3eed71f9fb0",
        "rand-rand/metrics_seed2.csv":
            "3ea3d1e5a0139ce9312b6dd13ae271f02d34e0184aa74db7b9164e2877f79ac0",
        "summary.json":
            "b00f1d1e1bc4170f6b4ca6da105535e4148f5e5d6f406e5020fd9e361e44f151",
    },
    "compare-demand-threshold-square": {
        "ampp-greedy/manifest.json":
            "3e763b9facaecb8b39da8712e7c999eaa4efffcb23a597472017f73d8f3a05cd",
        "ampp-greedy/metrics_seed1.csv":
            "abd0761a19bd3c46054f8c935121c007ee6e52b657c923e64f8963cfb667660f",
        "ampp-greedy/metrics_seed2.csv":
            "9ea44da0c538a243f46a71ded2a3a6e50797091fd1c1b34dbc1808ef19e80579",
        "ampp-rand/manifest.json":
            "a850bad2aa2399f60585b40b4478071585d280f1b452dba00a3547341d677c03",
        "ampp-rand/metrics_seed1.csv":
            "ea3ee6b894169fd4d9f0233c2f5cefed1cc0c09af2c9fc3fb649f09b1d79bfd3",
        "ampp-rand/metrics_seed2.csv":
            "72189b365c400d8860fb74105a449379d4f93f6880d9fe58968aad2f2be37eea",
        "lin-greedy/manifest.json":
            "a9650e046d97c7589a7b57411e92ebc32497f905600dfdf7dcc8a17f60a7ea77",
        "lin-greedy/metrics_seed1.csv":
            "89c4b6657a5cc46c91ca946a934f444a86e4d64e062522edc08a71601f86fb46",
        "lin-greedy/metrics_seed2.csv":
            "5bef91c991bcc77c048725a35a0d6957dab0d61ecec7f3d6da5d2cd906113d34",
        "lin-rand/manifest.json":
            "0b7e58303c8a41bbfcb3dd7a3e414f0d614e051946840da3a6c9446dbf92737e",
        "lin-rand/metrics_seed1.csv":
            "333306923792977c62affd29cc819f87954622855aae1e1b701ab95d7fc2bf26",
        "lin-rand/metrics_seed2.csv":
            "1c7348332768b9118604f23954478bd22dd1f4d5fbca978b76b4ecd3683493d8",
        "pas-afl/manifest.json":
            "b18a0449557aadae4f64f0f2276ed09e9d42c9d523f9801b0b9bfce27c908a9b",
        "pas-afl/metrics_seed1.csv":
            "5452cffb84e2d5e7039f07fd905682421cf8d14ea1951614bb9ffedfb5e5c024",
        "pas-afl/metrics_seed2.csv":
            "84f4b0ecd1579c9fbe28c771ff0f88797ec09652905aabf42bcbda61b5b0b366",
        "rand-greedy/manifest.json":
            "33ef499db6626684a15a62d4dc0cf580070260dd918aa25af5521100a2b23cac",
        "rand-greedy/metrics_seed1.csv":
            "7f9d0dc9b7e8cdd1b9276f88dcb9cb8b3b573b0ecdc5929bd757233f18191214",
        "rand-greedy/metrics_seed2.csv":
            "ba720e1a4a33e5a65e70ba1d38b0c3ec7366f88b812564f645b52ccda1767322",
        "rand-rand/manifest.json":
            "b6be245aff5798304229d1954a658ebc12aceb24ddd6c215055bc24b3a994713",
        "rand-rand/metrics_seed1.csv":
            "3b19b5b4cd839a9ae0e912452700566d6de2b01225d6f430636fe1c26356404c",
        "rand-rand/metrics_seed2.csv":
            "ebebd0378562547c6ab36bcaa71cbaf23d508d75dc31ee91f62f928985227d67",
        "summary.json":
            "8ed2bd4fdf4201f163f7c9c4ecdca260ff84557dc399f5161765563da068947f",
    },
    "run-lin-rand-demand-round": {
        "manifest.json":
            "dd1b4d238627b403d1ebcd8703ff98a98a9a5bf1870e079582ba55cf3e624001",
        "metrics_seed1.csv":
            "6ae3b95810c9777a9d3143d6ca894d07e76156db3190def15a796d49440e80a5",
        "metrics_seed2.csv":
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
        "manifest.json":
            "e5b7ee8e1ccf71044565068d924bf18ecf6b88c44c770275b288408ef7514762",
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
