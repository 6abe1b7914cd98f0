"""Every command's output bytes, pinned.

Each case runs one command in its own directory under a temporary root,
replaces that root with a fixed token, and compares the sha256 of stdout and
of each report file it writes, and the exit code, with digests recorded from
a known-good run.  The cache directory is not pinned: its file carries its own
format marker.  On a mismatch the assertion prints every case's digests, so a
deliberate change of output can be re-pinned from the failure message.
"""

import hashlib
from pathlib import Path

from qkclab.cli import main

TOKEN = "<root>"

CENSUS = ("census", "--n", "2", "--c", "1", "--max-len", "12")
SUBADD = ("subadd", "--n", "1", "--max-len", "16")

CASES = {
    "census-standard": CENSUS,
    "census-rotated": (*CENSUS, "--rotated"),
    "census-standard-cached": (*CENSUS, "--cache-dir", "{root}/cache"),
    "census-rotated-cached": (*CENSUS, "--rotated", "--cache-dir", "{root}/cache"),
    "consistency": ("consistency", "--n", "2", "--max-len", "12"),
    "subadd-rot-empty": (*SUBADD, "--px", "7:24", "--py", "1:1"),
    "subadd-x-rot": (*SUBADD, "--px", "7:20", "--py", "7:24"),
    "subadd-empty-n2": ("subadd", "--px", "1:1", "--py", "1:1", "--max-len", "12",
                        "--n", "2"),
    "estimate-exact": ("estimate", "--classical", "00", "--n", "2", "--max-len", "12"),
    "estimate-exact-out": ("estimate", "--classical", "01", "--n", "2", "--max-len", "12",
                           "--out", "{root}/estimate.json"),
    "estimate-conditional": ("estimate", "--classical", "1", "--n", "1", "--max-len", "12",
                             "--conditional", "7:20"),
    "estimate-target-program": ("estimate", "--target-program", "7:24", "--n", "1",
                                "--max-len", "10"),
    "estimate-no-finite": ("estimate", "--classical", "1", "--n", "1", "--max-len", "1"),
    "estimate-sampled": ("estimate", "--classical", "00", "--n", "2", "--max-len", "12",
                         "--sampled", "--seed", "7"),
    "encode": ("encode", "--gates", "X:0,CNOT:0:1,ROT:1,PHASE:0,CALLC", "--n", "2"),
    "decode": ("decode", "--program", "7:20", "--n", "1"),
    "decode-undecodable": ("decode", "--bits", "0101010", "--n", "2",
                           "--out", "{root}/decoded.json"),
    "enumerate": ("enumerate", "--max-len", "12", "--n", "2", "--limit", "20"),
    "kplan": ("kplan", "--n", "4", "--alpha", "0.01", "--epsilon", "0.25"),
    "usage-census-negative-c": ("census", "--c", "-1", "--n", "1", "--max-len", "6"),
    "usage-subadd-undecodable": ("subadd", "--px", "1:0", "--py", "1:1"),
    "usage-decode-not-bits": ("decode", "--bits", "2", "--n", "1"),
}

PINNED = {
    "census-standard": {
        "rc": 0,
        "stdout": "015002bff2f7ded90845f9be1ce13c2b080570f00f2e67bfc533cc537243d4c5",
        "files": {
            "out/census-pf1-standard-n2-c1-len12.csv":
                "0440bd7cfaaea6984451187038ffd55e4e8ddb272bf0fb9cac0ee0b45423a25b",
            "out/census-pf1-standard-n2-c1-len12.json":
                "2cc002770548c309fd01607445aea0d8664738cfe2035fcc77b1ddf5055d0b5c",
            "out/census-pf1-standard-n2-c1-len12.manifest.json":
                "2c2a92a9497b1aa0c3979a2a0b8412e20c463365ed66344d400957a0d5be1c78",
        },
    },
    "census-rotated": {
        "rc": 0,
        "stdout": "bd2578907a1a141235d171503e7f0801ed66dee8e7c49e651efd0db49da9db8e",
        "files": {
            "out/census-pf1-rotated-n2-c1-len12.csv":
                "493d6253da69ca000f6fee65622a1b954d3224a858420846eccdda770c4f1eb4",
            "out/census-pf1-rotated-n2-c1-len12.json":
                "122004a2ad96f5ba8a6d0ca20f73aadedcd193dd8f10af28983b4554e0bdec37",
            "out/census-pf1-rotated-n2-c1-len12.manifest.json":
                "e45f9b1872d72d00cc62a381d987e449b3532b0603d4f367c6be4c0d951a3360",
        },
    },
    "census-standard-cached": {
        "rc": 0,
        "stdout": "015002bff2f7ded90845f9be1ce13c2b080570f00f2e67bfc533cc537243d4c5",
        "files": {
            "out/census-pf1-standard-n2-c1-len12.csv":
                "0440bd7cfaaea6984451187038ffd55e4e8ddb272bf0fb9cac0ee0b45423a25b",
            "out/census-pf1-standard-n2-c1-len12.json":
                "c516a149a96cf411dd0e2e0e0515a2679ff6a9a1be76755bdf55ab968628b2a0",
            "out/census-pf1-standard-n2-c1-len12.manifest.json":
                "a385e6561f17eb90f7772eb9cbb2f93cdbe0f60cc8fa692bc848d25de6391cf2",
        },
    },
    "census-rotated-cached": {
        "rc": 0,
        "stdout": "bd2578907a1a141235d171503e7f0801ed66dee8e7c49e651efd0db49da9db8e",
        "files": {
            "out/census-pf1-rotated-n2-c1-len12.csv":
                "493d6253da69ca000f6fee65622a1b954d3224a858420846eccdda770c4f1eb4",
            "out/census-pf1-rotated-n2-c1-len12.json":
                "2dc29f6e1641ce65dcdecebaa09dd7addc2ff71bf9c619e2b6ce9b5cb517900c",
            "out/census-pf1-rotated-n2-c1-len12.manifest.json":
                "1c063a0770b0b56d024f2a9babc2404d1f53623ed9add41bec89b545b31b4d96",
        },
    },
    "consistency": {
        "rc": 0,
        "stdout": "bc79c00f86e8b3204428c3a5ae757956d629f5ed07e1e1ae03bd856acec3db7f",
        "files": {
            "out/consistency-pf1-n2-len12.csv":
                "9d817bb3474a3f3d136f10c64657378b89b8b1a673a2ac824b8f9202fca4e530",
            "out/consistency-pf1-n2-len12.json":
                "2aa03c5b76279d678da3f99c8163081bfe643c49388a6862caea7b2ecbb4f2db",
            "out/consistency-pf1-n2-len12.manifest.json":
                "fd3c26dcd6f0851b729b43cdd1eef5f74d3fc71b9005f3563701c07ae5099bdd",
        },
    },
    "subadd-rot-empty": {
        "rc": 0,
        "stdout": "0bc897622d73342593603f492a306a87a5f8754e85332bbacdac5c99a009e519",
        "files": {
            "out/subadd-pf1-n1-len16-7x24-1x1.csv":
                "c9d1090f6d6963f1dc5ec82e564ff0f536a2be1603dd265647a609ee5c8ece5b",
            "out/subadd-pf1-n1-len16-7x24-1x1.json":
                "00549c12d106ff40030b256df416614437a31030107204ea4283db68f53717aa",
            "out/subadd-pf1-n1-len16-7x24-1x1.manifest.json":
                "52a3f9d0fdf5b86eeee1718edf2ebc2e37db1f4058e9373dacf03f3fc026ba45",
        },
    },
    "subadd-x-rot": {
        "rc": 0,
        "stdout": "349b3a47eb10461f51bfce949395313224ae7e3aa95c8bfca8b21b0c5bd8ea9f",
        "files": {
            "out/subadd-pf1-n1-len16-7x20-7x24.csv":
                "47b964d4aee5a19ab852053e9f2790e7b690ce5e23f20a95a703317db7beeca0",
            "out/subadd-pf1-n1-len16-7x20-7x24.json":
                "d75e1a81e674251449bb564aa663113b4cdd7c7b837313d5258817d50335d29f",
            "out/subadd-pf1-n1-len16-7x20-7x24.manifest.json":
                "032ae429469e46f79722abab83124a02b08348645d5c07c7494ec0c4c0281c82",
        },
    },
    "subadd-empty-n2": {
        "rc": 0,
        "stdout": "2b534986c93b5315aea3a8903a760f11c17400b4940238973663743e4e33c8e4",
        "files": {
            "out/subadd-pf1-n2-len12-1x1-1x1.csv":
                "7ebe60abc432bc01d7a3a59870d7898106a9cb79586e97f978935ad2b76d39ff",
            "out/subadd-pf1-n2-len12-1x1-1x1.json":
                "551367bafaba06fb98d877ec6b93b5e1a2aa4a2c938a030c0db6f0934afd527c",
            "out/subadd-pf1-n2-len12-1x1-1x1.manifest.json":
                "9ead946069dfdf639f436b3a896e205a6ccc8504b288f049d8d8acd3470632f0",
        },
    },
    "estimate-exact": {
        "rc": 0,
        "stdout": "442ea5e0c387d317881793872dd4f84a2ddb73052c76eabc82fc18580d652c02",
        "files": {},
    },
    "estimate-exact-out": {
        "rc": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "estimate.json":
                "eb4b715ec856c2ae9579e154c52b6a3f59e36c55a8a488d87e09d8ddb2b96257",
        },
    },
    "estimate-conditional": {
        "rc": 0,
        "stdout": "b08fb4f5e78821c89f8744e493336343c5120f8084f9e2421cd0ed433cc4e584",
        "files": {},
    },
    "estimate-target-program": {
        "rc": 0,
        "stdout": "a5990d8059ca59c86983cb8d97406bdb21c1dc8333c24a57a71f457dc9801cbf",
        "files": {},
    },
    "estimate-no-finite": {
        "rc": 3,
        "stdout": "862c3f2d979d706badcc860a746137e8377f4a7cb953aef36ade7aadc76b02ef",
        "files": {},
    },
    "estimate-sampled": {
        "rc": 0,
        "stdout": "1d6e45c38c8f427f3f8d357f75261a943f6e90c3581f9286b6ac8ae02a21c85a",
        "files": {},
    },
    "encode": {
        "rc": 0,
        "stdout": "bb9e0ce647eaac72b986ce2251007e41874abc361a7830be2dfdeaab4e1c4333",
        "files": {},
    },
    "decode": {
        "rc": 0,
        "stdout": "0678c9b9f7ad0bc916065a3c901ad4772051b1e49e83391f28a8f788eedfa4e4",
        "files": {},
    },
    "decode-undecodable": {
        "rc": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "decoded.json":
                "5498675de1ae3bcfe04cf0744e884cbdf216ac5faedd4ebe4b2569b26c375549",
        },
    },
    "enumerate": {
        "rc": 0,
        "stdout": "0165593da1054acd404577e64ea50d3763e8ad6153925d3e4fb6766c7a94cc23",
        "files": {},
    },
    "kplan": {
        "rc": 0,
        "stdout": "d73022a8e2a2b41ac53c1a1ee9bd1d6d9fdcc13633ea040483643c31627bccbc",
        "files": {},
    },
    "usage-census-negative-c": {
        "rc": 2,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "usage-subadd-undecodable": {
        "rc": 2,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "usage-decode-not-bits": {
        "rc": 2,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(argv, root: Path, capsys) -> dict:
    root.mkdir()
    argv = [arg.replace("{root}", str(root)) for arg in argv]
    rc = main([*argv, "--out-dir", str(root / "out")])
    out = capsys.readouterr().out
    written = {
        path.relative_to(root).as_posix(): sha(path.read_text().replace(str(root), TOKEN))
        for path in sorted(root.rglob("*"))
        if path.is_file() and "cache" not in path.relative_to(root).parts
    }
    return {"rc": rc, "stdout": sha(out.replace(str(root), TOKEN)), "files": written}


def test_every_command_writes_its_pinned_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QKCLAB_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    found = {case: run_case(argv, tmp_path / case, capsys) for case, argv in CASES.items()}
    assert found == PINNED, found
