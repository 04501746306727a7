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

At format version 5 the order-1.5 Taylor step became one Jacobian
product of c w dZ + (dt^2/2) f and an update factored by w and by f,
which moved every Taylor output in about the 15th digit.  The Taylor
``snapshot_t1.0.csv``, ``snapshot_t5.0.csv`` and ``evolution.csv``
files, ``convergence_taylor15.json`` (it steps the scheme at J = 0) and
every ``manifest.json`` were recorded again.  Every Milstein snapshot
and ``evolution.csv``, and ``convergence_milstein.json``, kept its hash.

To print the current hashes in the format of ``GOLDEN_TEXT``, run

    PYTHONPATH=src python tests/test_golden.py
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
51d43561234f6503fd69c9463c873066916ebd848415f2965da0aa4953f16d1d  complete-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  complete-milstein/simulate/snapshot_t0.0.csv
facde6a173132654846263c43ee4ef50b5b0524dad920bcc57833b73728fe071  complete-milstein/simulate/snapshot_t1.0.csv
f4f0cf2356b78887938252ebcee26e6a358d2658ee4dacc5c2eee0774d662c81  complete-milstein/simulate/snapshot_t5.0.csv
0326139e7ceadae7ea0fd5ed77d4f48c16249d6429923c6edcf1d9ffe52adbb8  complete-milstein/evolve/evolution.csv
f34b995f0015360452fd0aeee52514a5a87abbbfde90f70b8576980a0bf477c0  complete-milstein/evolve/manifest.json
b0dfd1375f9feb8a082023e6023fbcb2b2402b757224ead0361602f2713340b0  complete-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  complete-taylor15/simulate/snapshot_t0.0.csv
f0577fc8d69ee32f8b66643649f28c6eb1f42f4d1ad9c05be0bfbd238c8a75f9  complete-taylor15/simulate/snapshot_t1.0.csv
7293e161f2bb8e2dc38e4eece6a0a52a15341575fd46287e98f8129bfe64b6e4  complete-taylor15/simulate/snapshot_t5.0.csv
afad93b1d3ee9e42fa839b82513b871d7a030f067093239c2d9aac0bec895423  complete-taylor15/evolve/evolution.csv
335dac6c27c3a5bef19059a0dcbb597548cfe8cc7add89eee18a46689f02e35f  complete-taylor15/evolve/manifest.json
411db17aa2b754447157913dea68ece6892abdf206d66efb72858c29dcf74472  ring-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  ring-milstein/simulate/snapshot_t0.0.csv
8676319fc85bff46980f046f9fd9a3546fe7cf1d0d7fec1cdfad144135942b4e  ring-milstein/simulate/snapshot_t1.0.csv
36ba9a21c20a5456cfb327cbe2b002cfd387c3f1248a23df068fcc7d75782b85  ring-milstein/simulate/snapshot_t5.0.csv
6eb3a038f72e7d858ec9d54ed8df8af6d34f3d3b9f29f5468689865074141c55  ring-milstein/evolve/evolution.csv
f9604a2f487d519dd3e1d9de51f953a3e68e92ec322b1a1549acdd779ca05c7c  ring-milstein/evolve/manifest.json
7984f8c9b03ccd4b11a922d8e545afc4f4fa4d36755c4989b9b9922756d796c4  ring-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  ring-taylor15/simulate/snapshot_t0.0.csv
5143e0f6aab99c540f47689f514eeb2c98317d2b58f92d3903f118a8709217dc  ring-taylor15/simulate/snapshot_t1.0.csv
06cd5f17e6dcad680f411fba9b17465b4c929228ae61b1f2d1442806d4bbd7ee  ring-taylor15/simulate/snapshot_t5.0.csv
c8429bedd4ea74ad65e46a21e0ca4766faa07865895c6155eb88c47814aa6aec  ring-taylor15/evolve/evolution.csv
a07170360c5eb0a42d4c2c71d71366aefc9e684d81c2c85ce9cd42b575f9f5ea  ring-taylor15/evolve/manifest.json
28986b324e702eef39c906b51201710ea6992aae6c621619c27488e09ed14e6f  smallworld-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  smallworld-milstein/simulate/snapshot_t0.0.csv
2f656a5ad6f58b61822172d4b7e92812d76035f90cb10f5c0101f227cd5fd141  smallworld-milstein/simulate/snapshot_t1.0.csv
b1cedb353cb459367c57ae80f4d67d82171f854065617ca1ca3dfa5c29b4c969  smallworld-milstein/simulate/snapshot_t5.0.csv
e4bd98ee5273926c37312638d792f031825fccccaf9d43cb7e03969d2cc094d3  smallworld-milstein/evolve/evolution.csv
fd04dd29102d186da3ffdd2630d36346eb990ee3a881d88f0e0d3fd75954b572  smallworld-milstein/evolve/manifest.json
b8271b64c36e8e7750c14e9efd7c8fd787be64e3ddd5800cbefe1f580e04f2cd  smallworld-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  smallworld-taylor15/simulate/snapshot_t0.0.csv
558df7db415831ce109586d1111354549dc6cb2031293e1965e48b96d806e2ed  smallworld-taylor15/simulate/snapshot_t1.0.csv
39015799745512fd4988a686721f88b4fe89f96b91448444462ab08c6d8aab3d  smallworld-taylor15/simulate/snapshot_t5.0.csv
0d45ac20302a329dcb2d777135791878f2dce30e54c9ac60652dae714806d9fd  smallworld-taylor15/evolve/evolution.csv
6c34d3d322476e4469293d2c1dded4ff8135b681c98999edef3a6e6d1f6c6f45  smallworld-taylor15/evolve/manifest.json
837456324cbeb837ef12c9a8f94198a1981fe9626db492b74183b907ada57b34  meanfield-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  meanfield-milstein/simulate/snapshot_t0.0.csv
02c7c37c1a7f42abdf6b37ec5ab01da4220885c975aa274043ae11639e0f99d2  meanfield-milstein/simulate/snapshot_t1.0.csv
84ab2705eb8fe2b26c116c4656ad6e68a65904211fef417181aa6d8f5b9ac225  meanfield-milstein/simulate/snapshot_t5.0.csv
b64b5a98b2ab740e4d6eb7e5bbebf84dc095dcfa8d7353e58e1c6ecc0305be0c  meanfield-milstein/evolve/evolution.csv
feef4cae4bbc577db713ccaa596ff4a46563994403804600e9dd5188f9e7f84a  meanfield-milstein/evolve/manifest.json
dec370faee6026a15ae3ed5f5b4b79b80804076f2408e7e3f08d444657eec18e  meanfield-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  meanfield-taylor15/simulate/snapshot_t0.0.csv
ad195a7e0f68cbeba3f1e04480cc19afe7c8d144f880b223ec1b9ebce52d46ee  meanfield-taylor15/simulate/snapshot_t1.0.csv
a15ea335c507944ba248f6967ced79d99a0d60fcfa01972d95d4956c555c6351  meanfield-taylor15/simulate/snapshot_t5.0.csv
a0a88d059673d92b4ccf6a3979b79b81068850fb16a04f3e4c259aad8a7f4619  meanfield-taylor15/evolve/evolution.csv
86a31b5c038332800b31d70e783cbf1b8f709bf0e4309ed973007d152f9f035d  meanfield-taylor15/evolve/manifest.json
344a5c71070523a6030f8d37229a7ab1fcdcc1e1482e82dd23c48dc606f5aaea  eft-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  eft-milstein/simulate/snapshot_t0.0.csv
80c95ae5f3c9bbb156ada48828cc3e1b28f173dd9add5e9587816346b90f5e92  eft-milstein/simulate/snapshot_t1.0.csv
7299be1c0f7498318ac2a0fc24ad29de10c13792cf5cfbd383bd13e99d28d53c  eft-milstein/simulate/snapshot_t5.0.csv
537da80e72fe2323d75f8928f52bc5b58e68bd6b568c5cf460c1d450fd79fd20  eft-milstein/evolve/evolution.csv
9f5aa9400ef62ba0884535fbe4b994abebf1e64e19eb0d7c2b877a9940a9c5f4  eft-milstein/evolve/manifest.json
dedf7d3fe167c164407a6d7c6ec9ab3d9b8d40bca8a4d2ef4cd975d7788ac3ff  eft-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  eft-taylor15/simulate/snapshot_t0.0.csv
026ccbb3b2d945d0b42d77294a6be3fa6460d3c45e4a4d818f39b1d03bcb57ec  eft-taylor15/simulate/snapshot_t1.0.csv
7d5e316cefd3328cd25229593cc50e28cf9586de8b06b39bff267c3fa756ed37  eft-taylor15/simulate/snapshot_t5.0.csv
1f2bf7880e1b408d6e3040b58d24a3d13f86da91726245e3cb9d2fb8c01ef1f0  eft-taylor15/evolve/evolution.csv
bb5721678eb488649e5547e2edb9ffb76e9adf7bdf85021ff25caa51b138f261  eft-taylor15/evolve/manifest.json
db199877c21fb84304bf9e7713c0adb6fde71fe1af323cc371e8bb59dc12f0ff  smallworld-milstein-gaussian/simulate/manifest.json
cb7558f6c3984ee22b506f20fca40c24282ef197485c7446a0eea1cfa71a9a80  smallworld-milstein-gaussian/simulate/snapshot_t0.0.csv
20cb7e273b48ca64ec1014bc46b4cdc38f07a0e86a47308579f437116290d9f2  smallworld-milstein-gaussian/simulate/snapshot_t1.0.csv
06663701ac60045343e08f9b24d76281203d91b3c1ec2cdee5819fe473aac1a0  smallworld-milstein-gaussian/simulate/snapshot_t5.0.csv
a3a5bf0a37719b9b82ee2c2cadf995caa76c9569197b59873c71645cb6735a32  smallworld-milstein-gaussian/evolve/evolution.csv
e257a5874f168fa3a8f49b04715476136cb3340a24b106d8f4354cdedcb5c0a5  smallworld-milstein-gaussian/evolve/manifest.json
bf97e220c5e62c506f18fe6b08dd7a7f44646d1636fc45e75ae409e48eb8f6d7  convergence-milstein/convergence/convergence_milstein.json
09092dc80be30673ec52ec737423dafc749b2cef07220a6ef2408d2f037e97be  convergence-taylor15/convergence/convergence_taylor15.json
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


def _run(tmp_path, case, command) -> dict:
    """Hashes of what ``bmnet <command>`` writes for one golden case."""
    out = tmp_path / "out"
    if command == "convergence":
        args = ["--scheme", case.split("-", 1)[1], "--paths", "200"]
    else:
        kind, scheme, init = CASES[case]
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG.format(dynamics=DYNAMICS[kind], scheme=scheme,
                                      init=init))
        args = ["--config", str(path)]
    assert cli.main([command, *args, "--out", str(out)]) == 0
    return _hashes(out)


@pytest.mark.parametrize("command", ["simulate", "evolve"])
@pytest.mark.parametrize("case", list(CASES))
def test_cli_outputs_unchanged(tmp_path, case, command):
    assert _run(tmp_path, case, command) == GOLDEN[f"{case}/{command}"]


@pytest.mark.parametrize("scheme", ["milstein", "taylor15"])
def test_convergence_output_unchanged(tmp_path, scheme):
    case = f"convergence-{scheme}"
    assert _run(tmp_path, case, "convergence") == \
        GOLDEN[f"{case}/convergence"]


if __name__ == "__main__":
    # print the current hashes in GOLDEN_TEXT's format, to re-record them;
    # what the commands themselves print goes to stderr
    import contextlib
    import sys
    import tempfile
    from pathlib import Path

    runs = [(case, command) for case in CASES
            for command in ("simulate", "evolve")]
    runs += [(f"convergence-{s}", "convergence")
             for s in ("milstein", "taylor15")]
    for case, command in runs:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(sys.stderr):
            hashes = _run(Path(tmp), case, command)
        for name, digest in hashes.items():
            print(f"{digest}  {case}/{command}/{name}")
