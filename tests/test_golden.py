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

At format version 4 the GIGa exponent search became a Newton solve on
the profile score, which moved the GIGa rows of every
``evolve/evolution.csv``.  Only those files and the ``manifest.json``
files, which all carry ``format_version``, were recorded again; every
``snapshot_*.csv`` and both ``convergence_*.json`` hashes are the
earlier ones, unchanged.
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
3d4a5ec77eceb9a05e0729a54cab2bba9333b1fd98a517793f31929b181be937  complete-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  complete-milstein/simulate/snapshot_t0.0.csv
facde6a173132654846263c43ee4ef50b5b0524dad920bcc57833b73728fe071  complete-milstein/simulate/snapshot_t1.0.csv
f4f0cf2356b78887938252ebcee26e6a358d2658ee4dacc5c2eee0774d662c81  complete-milstein/simulate/snapshot_t5.0.csv
0326139e7ceadae7ea0fd5ed77d4f48c16249d6429923c6edcf1d9ffe52adbb8  complete-milstein/evolve/evolution.csv
7d41a94b06b6953a425c041403ce19098b02ac2b664daebeac250f30ddc3a9be  complete-milstein/evolve/manifest.json
7c484f7f2f656321707e32845ab86f755eefe7ce9376bc9a1cac7fe3a4441eba  complete-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  complete-taylor15/simulate/snapshot_t0.0.csv
1c6998280f1fa04aaa22bb9a3a9b2dab41ed8edce15b51f411c22a991f14727e  complete-taylor15/simulate/snapshot_t1.0.csv
55dd7bcfab088ed41c19148044796110c22b8e5b04195945006584bd9ad9a159  complete-taylor15/simulate/snapshot_t5.0.csv
e1214c79fc8c09e8230a16cdecc9dfe2e1952890baef478a3d97a905725b8f6f  complete-taylor15/evolve/evolution.csv
210d5930bd9ea07172e04eb40ef7953ad99d0c41b478f84e09e82ac58ad9f797  complete-taylor15/evolve/manifest.json
71d67ba505d51f2220c72c0594abd84ab703ee21629b262edf52ff873e4cf804  ring-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  ring-milstein/simulate/snapshot_t0.0.csv
8676319fc85bff46980f046f9fd9a3546fe7cf1d0d7fec1cdfad144135942b4e  ring-milstein/simulate/snapshot_t1.0.csv
36ba9a21c20a5456cfb327cbe2b002cfd387c3f1248a23df068fcc7d75782b85  ring-milstein/simulate/snapshot_t5.0.csv
6eb3a038f72e7d858ec9d54ed8df8af6d34f3d3b9f29f5468689865074141c55  ring-milstein/evolve/evolution.csv
1afd28f7eaf46d78a2b58e834fa4257b152679a1766305556bcf8d2dca02ab75  ring-milstein/evolve/manifest.json
b176dd1d66c9174864a7ed0c67e546815a83a42dd49bb1cf780d444bc4a1ac7a  ring-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  ring-taylor15/simulate/snapshot_t0.0.csv
9bc02228c58ddc2df6123dd4b32a3c2db53df0f770c12862cb0150bf26ef6a1e  ring-taylor15/simulate/snapshot_t1.0.csv
e88d17d984708ae2d08924b9348c7bbbfc30d8dd499b64040553acdf1eaaa369  ring-taylor15/simulate/snapshot_t5.0.csv
8986c1265e017d000a7b9bd54b9ff469bde8ee3f622740a7e2c3300a6ae4494c  ring-taylor15/evolve/evolution.csv
12fb1f7222f6a88f190ca8e1ee339e57442e07d95701cdc052bebedc876ddbc5  ring-taylor15/evolve/manifest.json
5b44ab107915e5148d252cd5e8c66aa6ae4a93fbfffbe1ecc90d6888623636a5  smallworld-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  smallworld-milstein/simulate/snapshot_t0.0.csv
2f656a5ad6f58b61822172d4b7e92812d76035f90cb10f5c0101f227cd5fd141  smallworld-milstein/simulate/snapshot_t1.0.csv
b1cedb353cb459367c57ae80f4d67d82171f854065617ca1ca3dfa5c29b4c969  smallworld-milstein/simulate/snapshot_t5.0.csv
e4bd98ee5273926c37312638d792f031825fccccaf9d43cb7e03969d2cc094d3  smallworld-milstein/evolve/evolution.csv
4e872488656bc7ae7b41e4f80c7a156239e5c79a8c8602c19b9d755fa9a09825  smallworld-milstein/evolve/manifest.json
1da4b09eeb8e219122b438e08816b586f0777b569a2714f68eb2a6587a2c6d00  smallworld-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  smallworld-taylor15/simulate/snapshot_t0.0.csv
3b257ec1ef438b129904de107d824f66f3fa3c68224d2f34bbb97373c893084d  smallworld-taylor15/simulate/snapshot_t1.0.csv
c08b853c010c3a8b5b7516422cb1985ddea0e943d18e7053d8b2771e98da5c4f  smallworld-taylor15/simulate/snapshot_t5.0.csv
269d6b7c83949b19ecfabe0743364844d35e32fbedf2357b96599dbde1c084dc  smallworld-taylor15/evolve/evolution.csv
e14d892be7364ed2e7ede64599efede0b1dc4b5d515950f3f006c89eeeb2bb2a  smallworld-taylor15/evolve/manifest.json
21d5ead78e1c87615d01d7346589af0014a359e7e8c9fa7cca9d1ab16773cebe  meanfield-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  meanfield-milstein/simulate/snapshot_t0.0.csv
02c7c37c1a7f42abdf6b37ec5ab01da4220885c975aa274043ae11639e0f99d2  meanfield-milstein/simulate/snapshot_t1.0.csv
84ab2705eb8fe2b26c116c4656ad6e68a65904211fef417181aa6d8f5b9ac225  meanfield-milstein/simulate/snapshot_t5.0.csv
b64b5a98b2ab740e4d6eb7e5bbebf84dc095dcfa8d7353e58e1c6ecc0305be0c  meanfield-milstein/evolve/evolution.csv
6cd17b583f0651a51fbb2d89eef7f1cb6f72784ba1bf39a4db4782d693bbd9d3  meanfield-milstein/evolve/manifest.json
7e7aeb9d3148d6915a3460bc88914f0f01dfa06da4f3d9a81fc06b10846a8061  meanfield-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  meanfield-taylor15/simulate/snapshot_t0.0.csv
0b2a416aaf9d1bca9389c64709aa3af558b4103f235bc9e872df0ea410249995  meanfield-taylor15/simulate/snapshot_t1.0.csv
ea0c1b0966a7191661dd5c9c5e0f8a28904a2793b8c52d2a74114134d91c6f0d  meanfield-taylor15/simulate/snapshot_t5.0.csv
b423e3fa69ca76ed362f7584a801359d85d04a2858f4ffadcc96480ceb3b06f2  meanfield-taylor15/evolve/evolution.csv
97caa3abc5d0c17d5e6f4a6a19fc93d4e64474e6b29bacf57173d33fa58e550a  meanfield-taylor15/evolve/manifest.json
441f117d9e5fee7c0d76b6e03f3f2f963daa3d0110059300b0cc660edc9fe87a  eft-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  eft-milstein/simulate/snapshot_t0.0.csv
80c95ae5f3c9bbb156ada48828cc3e1b28f173dd9add5e9587816346b90f5e92  eft-milstein/simulate/snapshot_t1.0.csv
7299be1c0f7498318ac2a0fc24ad29de10c13792cf5cfbd383bd13e99d28d53c  eft-milstein/simulate/snapshot_t5.0.csv
537da80e72fe2323d75f8928f52bc5b58e68bd6b568c5cf460c1d450fd79fd20  eft-milstein/evolve/evolution.csv
ceedf828a7c10cba6dc00ca02d858bd4bfc022918d88e55feda2584957c0ea8b  eft-milstein/evolve/manifest.json
0eab9cca7f395c874525148703c6e2c400894328281ecdf5cb57c220e3a8ea17  eft-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  eft-taylor15/simulate/snapshot_t0.0.csv
3ac981f085ea38ba4c6e1fd085b498349846af19dbccf664b42b6217e534e9d9  eft-taylor15/simulate/snapshot_t1.0.csv
e52fe1f6ef0c82bcc74e6254e257167f887a47b95297d4920553e4db68fc6690  eft-taylor15/simulate/snapshot_t5.0.csv
be6f65736b80d86c677b58489a4cc00375d055fb0bab6d884b458ebc4d1ce07c  eft-taylor15/evolve/evolution.csv
2963ecac0fb2d0bb4ed990d1bdb00bc6928f677a403dc0f13705f2543cfab8c2  eft-taylor15/evolve/manifest.json
dea76065ee32963eaaa5d8f2019a6bd1642034dc623fde64814cbbdd6aaec98d  smallworld-milstein-gaussian/simulate/manifest.json
cb7558f6c3984ee22b506f20fca40c24282ef197485c7446a0eea1cfa71a9a80  smallworld-milstein-gaussian/simulate/snapshot_t0.0.csv
20cb7e273b48ca64ec1014bc46b4cdc38f07a0e86a47308579f437116290d9f2  smallworld-milstein-gaussian/simulate/snapshot_t1.0.csv
06663701ac60045343e08f9b24d76281203d91b3c1ec2cdee5819fe473aac1a0  smallworld-milstein-gaussian/simulate/snapshot_t5.0.csv
a3a5bf0a37719b9b82ee2c2cadf995caa76c9569197b59873c71645cb6735a32  smallworld-milstein-gaussian/evolve/evolution.csv
caffe0f2793aa40ad9fd8e231734681cdb907b6ca3c5fb6dcbe6a86f69b2ff6e  smallworld-milstein-gaussian/evolve/manifest.json
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
