"""Golden outputs: the CLI writes the same bytes for a fixed set of configs.

Each case runs ``bmnet simulate`` and ``bmnet evolve`` in process on one
small config (N = 200, dt = 0.01, t_end = 5, snapshots at 0, 1 and 5,
fits of LN, IGa and GIGa at 5 with B = 9) and compares the SHA-256 of
every file the command writes, ``manifest.json`` included.  The cases
cover every dynamics kind (complete, ring z = 0.1, small-world
p_sw = 0.05, mean-field, effective-field gamma = 0.5) under both
schemes, plus one ``gaussian:0.1`` initial state.  ``bmnet convergence``
is pinned for both schemes at 200 paths, and ``bmnet reproduce`` for
figure 2 (histogram mode, small-world Milstein: N = 60, B = 9,
t_end = 500, so the figure's times 1 and 500) and figure 5 (evolution
mode, four EFT runs: N = 40, B = 5, t_end = 1, so time 1), both at seed
3.  The figure-5 hashes were recorded at format version 6, and its
manifest again at 7; the figure-2 hashes were recorded at 7.  Every
figure's plan is pinned as well: the SHA-256 of the JSON list of
``[label, config_to_text(config)]`` that ``cli.build_figure_plan`` gives
at N = 1000, dt = 0.01, B = 99, seed 0 and the figure's full t_end,
which fixes each run's label, swept value, scheme and times.
``bmnet theta`` is pinned at its defaults and at J = 0.2, sigma2 = 0.05;
its table was recorded at format version 7.

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

At format version 6 the Milstein step became w m + dt f, with the noise
factor m = (1 - sigma^2 dt) + dB (c + sigma^2 dB) computed per block of
steps, which moved every Milstein output in about the 15th digit.  The
Milstein ``snapshot_t1.0.csv``, ``snapshot_t5.0.csv`` and
``evolution.csv`` files, ``convergence_milstein.json`` and every
``manifest.json`` were recorded again.  Every Taylor snapshot and
``evolution.csv``, and ``convergence_taylor15.json``, kept its hash,
the small-world ones too: the small-world coupling became one product
with a degree slot in each adjacency row, which sums in the same order.

At format version 7 the complete graph applies the mean-field law
J (wbar - w) through the function of the mean-field dynamics, so every
complete-graph file equals the mean-field file of its scheme.  The
complete ``snapshot_t1.0.csv``, ``snapshot_t5.0.csv`` and
``evolution.csv`` files and every ``manifest.json``, whose contents
differ only in ``format_version``, were recorded again; every other
file kept its hash.

To print the current hashes in the format of ``GOLDEN_TEXT``, run

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json

import pytest

from bmnet import cli
from bmnet.config import config_to_text

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
# reduced sizes of the pinned ``reproduce`` runs, by figure
REPRODUCE = {
    2: dict(N=60, bootstrap_b=9, seed=3, t_end=500.0),
    5: dict(N=40, bootstrap_b=5, seed=3, t_end=1.0),
}

# options of the pinned ``theta`` tables, by case
THETA = {
    "theta-default": [],
    "theta-J0.2": ["--J", "0.2", "--sigma2", "0.05"],
}

GOLDEN_TEXT = """\
e9ba750f5e41a048e36f1a1664571cc08fa1257ab9f9dd23253709049d924ae4  complete-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  complete-milstein/simulate/snapshot_t0.0.csv
69534f7b6017fd7a430c0ecafb6dcccd6cac647cc4fd18b9aee538b043a985ed  complete-milstein/simulate/snapshot_t1.0.csv
0c806059ed86ac0bb4ca8230055fc451d03f050d9caed7f02fe7d41e221d19c7  complete-milstein/simulate/snapshot_t5.0.csv
55c9d73e3b1dcfdbf903199022e57a675bb06014f2d17ae9be0b23a18b620adb  complete-milstein/evolve/evolution.csv
72684d7f524c1afe617fbd2329e27881ccd79a78db7f79844671dfdbb9078f62  complete-milstein/evolve/manifest.json
3808cc6af7ecc160285e0a20cdc57eb5a876a21462cd0d2e64209348d91724dc  complete-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  complete-taylor15/simulate/snapshot_t0.0.csv
ad195a7e0f68cbeba3f1e04480cc19afe7c8d144f880b223ec1b9ebce52d46ee  complete-taylor15/simulate/snapshot_t1.0.csv
a15ea335c507944ba248f6967ced79d99a0d60fcfa01972d95d4956c555c6351  complete-taylor15/simulate/snapshot_t5.0.csv
a0a88d059673d92b4ccf6a3979b79b81068850fb16a04f3e4c259aad8a7f4619  complete-taylor15/evolve/evolution.csv
7debc15ce4de3f876a2bcbd3a5837be270e0e3eb95453a46fa2abecb71fd3da3  complete-taylor15/evolve/manifest.json
0f9f1be00d1201657e84769dffd74ae33fd5f6409ef0b0a701b9c2ab3a180512  ring-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  ring-milstein/simulate/snapshot_t0.0.csv
d0bc47c6c8f3e51d1ed6854428baa5c777deabaab12ec24e9196d527c105f54b  ring-milstein/simulate/snapshot_t1.0.csv
236f6bda7843e0b410758f0630a7b858789eefb6b0cc9dc8c4b1f2cc0f0d82a7  ring-milstein/simulate/snapshot_t5.0.csv
997c11e9a07fdcc24a734cc8d582000d424c81bc44ddb8387ba9e947a28eca33  ring-milstein/evolve/evolution.csv
cac05a7bd189f400722f7a7f45ba6c8a85e4ce3bf164ff240d5e6ac1aabf5a4d  ring-milstein/evolve/manifest.json
9a9687a97a861ad8e8dc3263dd2227f385622d4d53be3943213965f6ef3c9807  ring-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  ring-taylor15/simulate/snapshot_t0.0.csv
5143e0f6aab99c540f47689f514eeb2c98317d2b58f92d3903f118a8709217dc  ring-taylor15/simulate/snapshot_t1.0.csv
06cd5f17e6dcad680f411fba9b17465b4c929228ae61b1f2d1442806d4bbd7ee  ring-taylor15/simulate/snapshot_t5.0.csv
c8429bedd4ea74ad65e46a21e0ca4766faa07865895c6155eb88c47814aa6aec  ring-taylor15/evolve/evolution.csv
6faa753f3896529e5abe7d7fad689002da800adb40d863bbdc8ea958b3dde4d5  ring-taylor15/evolve/manifest.json
e146a29b81d4d8f58c201c6d3de9546f272bdcd33a098af06942e4cab08eed1f  smallworld-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  smallworld-milstein/simulate/snapshot_t0.0.csv
7c6b2323484dea0148837b0b514ff0753e9f7a2b89b8695747df9be9548e8f5b  smallworld-milstein/simulate/snapshot_t1.0.csv
5659c80596ff4fd20e045e86ac8071430fa29c609f1acd4bc502ab85c3686126  smallworld-milstein/simulate/snapshot_t5.0.csv
6bec17a094eddbb53ba3f4c76c8a1e7b7f9660ac5957983965fe42cd67cb340b  smallworld-milstein/evolve/evolution.csv
ed5111d3384368d90ffc85c6a70fb37ae7381506c6bd7164145494f22a91c4e3  smallworld-milstein/evolve/manifest.json
f2a559c534a23acf6cd47aa9056b0d9432dff1210a1c2f408e2d5ae667d0c9cd  smallworld-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  smallworld-taylor15/simulate/snapshot_t0.0.csv
558df7db415831ce109586d1111354549dc6cb2031293e1965e48b96d806e2ed  smallworld-taylor15/simulate/snapshot_t1.0.csv
39015799745512fd4988a686721f88b4fe89f96b91448444462ab08c6d8aab3d  smallworld-taylor15/simulate/snapshot_t5.0.csv
0d45ac20302a329dcb2d777135791878f2dce30e54c9ac60652dae714806d9fd  smallworld-taylor15/evolve/evolution.csv
d5d9a75605c92c8f1c4e38249f15e34e3ad757397af4854aaaa216030492f490  smallworld-taylor15/evolve/manifest.json
1503fe3e6205d74f70da4ae9a3f4b331a7ae21d731c0eeb1dccafc8a05eaf0d8  meanfield-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  meanfield-milstein/simulate/snapshot_t0.0.csv
69534f7b6017fd7a430c0ecafb6dcccd6cac647cc4fd18b9aee538b043a985ed  meanfield-milstein/simulate/snapshot_t1.0.csv
0c806059ed86ac0bb4ca8230055fc451d03f050d9caed7f02fe7d41e221d19c7  meanfield-milstein/simulate/snapshot_t5.0.csv
55c9d73e3b1dcfdbf903199022e57a675bb06014f2d17ae9be0b23a18b620adb  meanfield-milstein/evolve/evolution.csv
d4880cb347d8d16b7c20dbbf1fefaa67bf1aa63e21c6fd4510944e663769b3da  meanfield-milstein/evolve/manifest.json
d30c9defebeececa9f0fc37389f256ecfdc7fe84ef8fd898acd19a4322354ea0  meanfield-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  meanfield-taylor15/simulate/snapshot_t0.0.csv
ad195a7e0f68cbeba3f1e04480cc19afe7c8d144f880b223ec1b9ebce52d46ee  meanfield-taylor15/simulate/snapshot_t1.0.csv
a15ea335c507944ba248f6967ced79d99a0d60fcfa01972d95d4956c555c6351  meanfield-taylor15/simulate/snapshot_t5.0.csv
a0a88d059673d92b4ccf6a3979b79b81068850fb16a04f3e4c259aad8a7f4619  meanfield-taylor15/evolve/evolution.csv
75fd19449c4d3ffe28171907b22c1b8ab479ffbcc55634c9f3b91e80b071ffeb  meanfield-taylor15/evolve/manifest.json
3fe9beadedc091740825bf24627469c9d7245a9946e484a22e28289adf047b0e  eft-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  eft-milstein/simulate/snapshot_t0.0.csv
92d5ba3421d8a1bc4f71d1dbd20a1c3dc1dfe9619f367d3d995c04c84d5f7e51  eft-milstein/simulate/snapshot_t1.0.csv
51dcfef8be8aeb100b3fda09ad031753ce48700b879bbef80504310f2005cfc0  eft-milstein/simulate/snapshot_t5.0.csv
e6a0dc00b99f7583088f14b562e2f4a0fede8f75cd3f71e14109adc6b0cb3d20  eft-milstein/evolve/evolution.csv
513f5ed68692c8ec7a5f691965d7bbaf6e2f74966cc39bf10f5a641067dc9422  eft-milstein/evolve/manifest.json
a145da3c8b738c624d1cc564ad5a0488373e279677b9997da3767ae4e87f0412  eft-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  eft-taylor15/simulate/snapshot_t0.0.csv
026ccbb3b2d945d0b42d77294a6be3fa6460d3c45e4a4d818f39b1d03bcb57ec  eft-taylor15/simulate/snapshot_t1.0.csv
7d5e316cefd3328cd25229593cc50e28cf9586de8b06b39bff267c3fa756ed37  eft-taylor15/simulate/snapshot_t5.0.csv
1f2bf7880e1b408d6e3040b58d24a3d13f86da91726245e3cb9d2fb8c01ef1f0  eft-taylor15/evolve/evolution.csv
db6c1a1ad9f98fe15cc6fcad1e475ee09cb7d4b7fef45987d7c36a4bb9dda270  eft-taylor15/evolve/manifest.json
05f540ecef7f40e093650b9a9b80cfc96b818f060a61019ec491be1e3bdbe024  smallworld-milstein-gaussian/simulate/manifest.json
cb7558f6c3984ee22b506f20fca40c24282ef197485c7446a0eea1cfa71a9a80  smallworld-milstein-gaussian/simulate/snapshot_t0.0.csv
3170fbab7cef747eb59507b72dc1eec6f5999591e7f234253d8c9328b5e15660  smallworld-milstein-gaussian/simulate/snapshot_t1.0.csv
bc68a59476102e80d37b03efd1b0a2026cb6df60c0dd613034464294b74b2283  smallworld-milstein-gaussian/simulate/snapshot_t5.0.csv
ed187ea83c6dc8846844ebb598f40abddd05669a38ab6e697a55e818f9a0fc88  smallworld-milstein-gaussian/evolve/evolution.csv
23235c801fa1dd29afc184a4007bdd477ae20dd624442f60a44c9fffed0b490c  smallworld-milstein-gaussian/evolve/manifest.json
ede9ec5c705ebd763ba764c913703216dded4448ecffb8dba28971c4b19d7ed1  convergence-milstein/convergence/convergence_milstein.json
09092dc80be30673ec52ec737423dafc749b2cef07220a6ef2408d2f037e97be  convergence-taylor15/convergence/convergence_taylor15.json
8c9196edfc16a8cfd41d9d1bb1457dbf947c48a8ea586e1a5881dba2affc832e  fig2/reproduce/evolution_rann_p0.003.csv
02be2496a52a7ed1781b93dd6d62a1842f1ab157ceacf1e7b813a9c2988bdd63  fig2/reproduce/gof_rann_p0.003.json
511c489aca1a8dd36b7e083aee8db413cc7da59acda29b4000a793e1909d646a  fig2/reproduce/hist_rann_p0.003_t1.0.csv
7e03358d126ff50f4d3a76d9e9abac1d413032ae9c0a91a91ddaedb16cacaede  fig2/reproduce/hist_rann_p0.003_t500.0.csv
3545d1f57f3fa202c0a1ba90e02794ec35ab0b2ac371e8278807c8df2724f4f3  fig2/reproduce/manifest.json
e426be53d9490c22c1217fcb31324e78f5a1be6cea42113aa77ac07eae6bdbe0  fig5/reproduce/evolution_eft_g0.4.csv
16b3698d55a6b9c415e8ed58e371812978214ccf2f0145b5dc566e8282684b76  fig5/reproduce/evolution_eft_g0.5.csv
b36467de382541a7d9c00111275baff23c3457c807f87415f336f443c850dc85  fig5/reproduce/evolution_eft_g0.6.csv
f3103ba19acb3569629cc2fc426d3ccff4c6e4477dc33025d6dbb494afe374e6  fig5/reproduce/evolution_eft_g0.8.csv
57817b0c00b88cd0f3060775dec9f89823d4d4f9b9f0d7f249acfef75f7cc786  fig5/reproduce/manifest.json
6e5f3276bb349643d12bc8e3b53652d96ae439042f6e9a1fd61c3ef8357464af  fig1/plan/runs
3bca2db36df0ad369eba1a6068e8e8e7d31c1e8106aba46b0ea4f57bbd478958  fig2/plan/runs
4bac678b720f9d418037702c156b2aa28aa39ba81472b2cc5efeec76113cd1b7  fig3/plan/runs
4719c36c8e42eb1e1021f49973a89bb0c3e76206ff9dec72b05559fa86bfb29a  fig4/plan/runs
53f65166f9d7ecddd17b622dc03efbcf1f3073c4471b41aebddfc548c6cd5974  fig5/plan/runs
94d65a0f1c8727ddf3082a3027073990cc6ed40db249b74de40311cf4970133b  theta-default/theta/theta_table.csv
d859ead8aad82708fe87f5f3dd7cf60e87207f2b6363ca088834a71dbf2b9364  theta-J0.2/theta/theta_table.csv
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
    if command == "plan":
        plan = cli.build_figure_plan(int(case.removeprefix("fig")), N=1000,
                                     dt=0.01, bootstrap_b=99, seed=0)
        text = json.dumps([[label, config_to_text(c)] for label, c in plan])
        return {"runs": hashlib.sha256(text.encode()).hexdigest()}
    if command == "reproduce":
        figure = int(case.removeprefix("fig"))
        assert cli.cmd_reproduce(figure, out_dir=str(out), dt=0.01,
                                 **REPRODUCE[figure]) == 0
        return _hashes(out / case)
    if command == "theta":
        args = THETA[case]
    elif command == "convergence":
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


@pytest.mark.parametrize("figure", list(REPRODUCE))
def test_reproduce_output_unchanged(tmp_path, figure):
    case = f"fig{figure}"
    assert _run(tmp_path, case, "reproduce") == GOLDEN[f"{case}/reproduce"]


@pytest.mark.parametrize("figure", [1, 2, 3, 4, 5])
def test_figure_plan_unchanged(tmp_path, figure):
    case = f"fig{figure}"
    assert _run(tmp_path, case, "plan") == GOLDEN[f"{case}/plan"]


@pytest.mark.parametrize("case", list(THETA))
def test_theta_output_unchanged(tmp_path, case):
    assert _run(tmp_path, case, "theta") == GOLDEN[f"{case}/theta"]


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
    runs += [(f"fig{figure}", "reproduce") for figure in REPRODUCE]
    runs += [(f"fig{figure}", "plan") for figure in range(1, 6)]
    runs += [(case, "theta") for case in THETA]
    for case, command in runs:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(sys.stderr):
            hashes = _run(Path(tmp), case, command)
        for name, digest in hashes.items():
            print(f"{digest}  {case}/{command}/{name}")
