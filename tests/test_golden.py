"""Golden outputs: the CLI writes the same bytes for a fixed set of configs.

Each case runs ``bmnet simulate`` and ``bmnet evolve`` in process on one
small config (N = 200, dt = 0.01, t_end = 5, snapshots at 0, 1 and 5,
fits of LN, IGa and GIGa at 5 with B = 9) and compares the SHA-256 of
every file the command writes, ``manifest.json`` included.  The cases
cover every dynamics kind (complete, ring z = 0.1, small-world
p_sw = 0.05, mean-field, effective-field gamma = 0.5) under both
schemes, plus one ``gaussian:0.1`` initial state.  ``bmnet convergence``
is pinned for both schemes at 200 paths.

The hashes were recorded with numpy 2.4.6 and scipy 1.17.1 on Python
3.11.7, before the two stepping loops of the engine were merged into
one; the merge left every byte unchanged.  Another numpy or scipy
release may round differently and change them.  A change that alters a
random stream or a float summation order changes them by design: it
must bump ``cli.FORMAT_VERSION`` and record them again.
"""

import hashlib

import pytest

from bmnet import cli

CONFIG = """\
[model]
sigma2 = 0.05
J = 0.1

[dynamics]
{dynamics}

[run]
N = 200
dt = 0.01
t_end = 5
snapshot_times = 0, 1, 5
scheme = {scheme}
init = {init}
seed = 7

[fit]
families = LN, IGa, GIGa
fit_times = 5
bootstrap_B = 9
"""

DYNAMICS = {
    "complete": "kind = complete",
    "ring": "kind = ring\nz = 0.1",
    "smallworld": "kind = smallworld\np_sw = 0.05",
    "meanfield": "kind = meanfield",
    "eft": "kind = eft\ngamma_eft = 0.5",
}

CASES = {f"{kind}-{scheme}": (kind, scheme, "ones")
         for kind in DYNAMICS for scheme in ("milstein", "taylor15")}
CASES["smallworld-milstein-gaussian"] = ("smallworld", "milstein",
                                         "gaussian:0.1")

# sha256sum-style lines: <hash>  <case>/<command>/<file>
GOLDEN_TEXT = """\
009edf56bf291ed55a08f1e4f8e7a72b4b71db58ca023c6a4f8c17b22b9731f5  complete-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  complete-milstein/simulate/snapshot_t0.0.csv
facde6a173132654846263c43ee4ef50b5b0524dad920bcc57833b73728fe071  complete-milstein/simulate/snapshot_t1.0.csv
f4f0cf2356b78887938252ebcee26e6a358d2658ee4dacc5c2eee0774d662c81  complete-milstein/simulate/snapshot_t5.0.csv
43c1f6efa08dd42d416864ccd8d6d9aa09ee17c20dcf74b5c2ce6893ae1e2fbe  complete-milstein/evolve/evolution.csv
7e0bec84b0301f161e1c71514ed582fdefec1c77d26070ff03cf1d63b63fa024  complete-milstein/evolve/manifest.json
ccbb5eaeefb6212d41eaaefc18c10b0df0c39ac25fe614d9806cee52c2073522  complete-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  complete-taylor15/simulate/snapshot_t0.0.csv
1c6998280f1fa04aaa22bb9a3a9b2dab41ed8edce15b51f411c22a991f14727e  complete-taylor15/simulate/snapshot_t1.0.csv
55dd7bcfab088ed41c19148044796110c22b8e5b04195945006584bd9ad9a159  complete-taylor15/simulate/snapshot_t5.0.csv
fefc0d42d2473e1b25ac57a2484bd68a8d583472a72951cb78971c2c108363d9  complete-taylor15/evolve/evolution.csv
b98aefaff47b6db66bbd61082bbfa32eea8940245a2e85dd62ce517502b19857  complete-taylor15/evolve/manifest.json
c6d0ab130c149739ef1d577d784b50fc415ac63c30b447792221c88b90035bdd  ring-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  ring-milstein/simulate/snapshot_t0.0.csv
8676319fc85bff46980f046f9fd9a3546fe7cf1d0d7fec1cdfad144135942b4e  ring-milstein/simulate/snapshot_t1.0.csv
36ba9a21c20a5456cfb327cbe2b002cfd387c3f1248a23df068fcc7d75782b85  ring-milstein/simulate/snapshot_t5.0.csv
b212d25decfc826f52020643c0f6550a8b63e3ddfbe138d504401ca096fc960d  ring-milstein/evolve/evolution.csv
4707647c2888e367e54c14e07bf1865d834ea982de45b9c120e8d53d31cefb57  ring-milstein/evolve/manifest.json
77d60dbe0db9af49d58a0c6243bc6161347f09c3e4df79c2b354ce5733cd8eec  ring-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  ring-taylor15/simulate/snapshot_t0.0.csv
9bc02228c58ddc2df6123dd4b32a3c2db53df0f770c12862cb0150bf26ef6a1e  ring-taylor15/simulate/snapshot_t1.0.csv
e88d17d984708ae2d08924b9348c7bbbfc30d8dd499b64040553acdf1eaaa369  ring-taylor15/simulate/snapshot_t5.0.csv
0f49378eadb15f218d23c26e30bee4f6b263debd270a27312153852e66344f8a  ring-taylor15/evolve/evolution.csv
b61dff1dcfaa7f4a05033045af1d32e76e651199a0ea7c840f76e26a242e106d  ring-taylor15/evolve/manifest.json
6310bcad157ef8f0f11b317e8a22bc27572ac960f0fce05815ef9aaee3ff8545  smallworld-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  smallworld-milstein/simulate/snapshot_t0.0.csv
2f656a5ad6f58b61822172d4b7e92812d76035f90cb10f5c0101f227cd5fd141  smallworld-milstein/simulate/snapshot_t1.0.csv
b1cedb353cb459367c57ae80f4d67d82171f854065617ca1ca3dfa5c29b4c969  smallworld-milstein/simulate/snapshot_t5.0.csv
e3153e3a84eddb6bf14cfc41866eec0513deca7cb8dbc79cddcf3ac45184d221  smallworld-milstein/evolve/evolution.csv
acc7d62d8837ba75235dde9f41cec6da1573ae7a0790c21069515f57a6f43bfd  smallworld-milstein/evolve/manifest.json
de8bc7a6128429309ce1f1100ff4f6de3d627b10ee95aa0fa6ccd5af376d516f  smallworld-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  smallworld-taylor15/simulate/snapshot_t0.0.csv
3b257ec1ef438b129904de107d824f66f3fa3c68224d2f34bbb97373c893084d  smallworld-taylor15/simulate/snapshot_t1.0.csv
c08b853c010c3a8b5b7516422cb1985ddea0e943d18e7053d8b2771e98da5c4f  smallworld-taylor15/simulate/snapshot_t5.0.csv
a9983f4e71ee475588865b8f15570e70f263722db956f246ec58020e85505f02  smallworld-taylor15/evolve/evolution.csv
7c30c393991d387964633431601b745290a855fc3c6f4ef736a887bcde817a5a  smallworld-taylor15/evolve/manifest.json
62a917a46cc99e334a812b7826d47d287024b09691150747f61f78e08b99ee77  meanfield-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  meanfield-milstein/simulate/snapshot_t0.0.csv
02c7c37c1a7f42abdf6b37ec5ab01da4220885c975aa274043ae11639e0f99d2  meanfield-milstein/simulate/snapshot_t1.0.csv
84ab2705eb8fe2b26c116c4656ad6e68a65904211fef417181aa6d8f5b9ac225  meanfield-milstein/simulate/snapshot_t5.0.csv
5b108a26a0291afc0bdf2bcc12f89deb244873b2ea68a4412a2dc107b1a1c659  meanfield-milstein/evolve/evolution.csv
dfd1b144eb0e4c6f745e2fe8fc2669dea76850a3506b63643640de44d7a21c7d  meanfield-milstein/evolve/manifest.json
d976ad99ddab078db1fc465dbd1789b9b38ab759ba8ae247e666ba15e9302800  meanfield-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  meanfield-taylor15/simulate/snapshot_t0.0.csv
0b2a416aaf9d1bca9389c64709aa3af558b4103f235bc9e872df0ea410249995  meanfield-taylor15/simulate/snapshot_t1.0.csv
ea0c1b0966a7191661dd5c9c5e0f8a28904a2793b8c52d2a74114134d91c6f0d  meanfield-taylor15/simulate/snapshot_t5.0.csv
13fc6d131c2ab2d56c8fcb203d6d8df0a7dd740777b79bfdd8544de6fb7597a1  meanfield-taylor15/evolve/evolution.csv
719d08fe5189a5273219040d31c6f0d359d6faaa43bee55313a8e2267e95611f  meanfield-taylor15/evolve/manifest.json
261b7212e351f4563ab82f57b4b129e61c64dc2d2eb0588f08aedc87995c2b0e  eft-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  eft-milstein/simulate/snapshot_t0.0.csv
80c95ae5f3c9bbb156ada48828cc3e1b28f173dd9add5e9587816346b90f5e92  eft-milstein/simulate/snapshot_t1.0.csv
7299be1c0f7498318ac2a0fc24ad29de10c13792cf5cfbd383bd13e99d28d53c  eft-milstein/simulate/snapshot_t5.0.csv
ad7c471b50a10383b01190118fe4e4623672011f91cf891f5e67df92762c85fb  eft-milstein/evolve/evolution.csv
dd424123d293fd0c9e5e5c1aab6bf8eca4b28d6ee43522065e845bc913ac3dbd  eft-milstein/evolve/manifest.json
806d5cf07756da4e6b682e3af82f020205ecdde6a60accd73301026d7432f63a  eft-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  eft-taylor15/simulate/snapshot_t0.0.csv
3ac981f085ea38ba4c6e1fd085b498349846af19dbccf664b42b6217e534e9d9  eft-taylor15/simulate/snapshot_t1.0.csv
e52fe1f6ef0c82bcc74e6254e257167f887a47b95297d4920553e4db68fc6690  eft-taylor15/simulate/snapshot_t5.0.csv
9d6306b86c3dffcbaa286f7a86f305fac82a0fd702d31497294af73f3eb9e916  eft-taylor15/evolve/evolution.csv
c4603bd186fe56a28a5f891a02557f934e132f22aa24f17eb99ace8e41a806e6  eft-taylor15/evolve/manifest.json
33c225dad406bba9aaf2f8dd0930808fb9de5adc1f00869c6e3d6e28d37311ae  smallworld-milstein-gaussian/simulate/manifest.json
cb7558f6c3984ee22b506f20fca40c24282ef197485c7446a0eea1cfa71a9a80  smallworld-milstein-gaussian/simulate/snapshot_t0.0.csv
20cb7e273b48ca64ec1014bc46b4cdc38f07a0e86a47308579f437116290d9f2  smallworld-milstein-gaussian/simulate/snapshot_t1.0.csv
06663701ac60045343e08f9b24d76281203d91b3c1ec2cdee5819fe473aac1a0  smallworld-milstein-gaussian/simulate/snapshot_t5.0.csv
9daabe1c5f6b27d389a3d2e08366d57d79265fd7154a808520dfb65dc37ac5f8  smallworld-milstein-gaussian/evolve/evolution.csv
2471057e7a480f71a7057818ac5fd0a72c6a8b08f88543bf7eadd1fa872a3ed7  smallworld-milstein-gaussian/evolve/manifest.json
bf97e220c5e62c506f18fe6b08dd7a7f44646d1636fc45e75ae409e48eb8f6d7  convergence-milstein/convergence/convergence_milstein.json
c67b114a043a138dd9314503928911787c9dd80683e2a5f342339ab5721504c1  convergence-taylor15/convergence/convergence_taylor15.json
"""


def _golden() -> dict:
    table = {}
    for line in GOLDEN_TEXT.splitlines():
        digest, key = line.split()
        run, name = key.rsplit("/", 1)
        table.setdefault(run, {})[name] = digest
    return table


GOLDEN = _golden()


def _hashes(out_dir) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("command", ["simulate", "evolve"])
@pytest.mark.parametrize("case", list(CASES))
def test_cli_outputs_unchanged(tmp_path, case, command):
    kind, scheme, init = CASES[case]
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG.format(dynamics=DYNAMICS[kind], scheme=scheme,
                                  init=init))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    assert _hashes(out) == GOLDEN[f"{case}/{command}"]


@pytest.mark.parametrize("scheme", ["milstein", "taylor15"])
def test_convergence_output_unchanged(tmp_path, scheme):
    out = tmp_path / "out"
    assert cli.main(["convergence", "--scheme", scheme, "--paths", "200",
                     "--out", str(out)]) == 0
    assert _hashes(out) == GOLDEN[f"convergence-{scheme}/convergence"]
