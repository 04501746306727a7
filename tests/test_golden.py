"""Golden outputs: the CLI writes the same bytes for a fixed set of configs.

Each case runs ``bmnet simulate`` and ``bmnet evolve`` in process on one
small config (N = 200, dt = 0.01, t_end = 5, snapshots at 0, 1 and 5,
fits of LN, IGa and GIGa at 5 with B = 9) and compares the SHA-256 of
every file the command writes, ``manifest.json`` included.  The cases
cover every dynamics kind (complete, ring z = 0.1, small-world
p_sw = 0.05, mean-field, effective-field gamma = 0.5) under both
schemes, plus one ``gaussian:0.1`` initial state.  Five of these cases
run again at sigma2 = 0.1 (ring Taylor, small-world, mean-field and
effective-field Milstein, and the ``gaussian:0.1`` one), with every file
but the manifest pinned.  ``bmnet convergence``
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

At format version 8 a run steps with the sigma2 its config writes:
``ModelParams`` holds sigma2 and derives sigma, where it held sigma and
squared it back, and 0.05 does not survive a square root and its
square.  The EFT Taylor step also takes the drift's derivative from the
drift f at w, (1 - g) (f + J w) / w - J, not from a power of w.  Every
file of the sigma2 = 0.05 cases that a step reaches was recorded again:
each ``snapshot_t1.0.csv``, ``snapshot_t5.0.csv`` and
``evolution.csv``, both ``convergence_*.json`` (the study steps and
solves at sigma2 = 0.05), and every other reproduce output but figure
2's histogram at time 1, for sigma2 rounding; eft-taylor15's for the
derivative as well; and every ``manifest.json`` for ``format_version``.
Every ``snapshot_t0.0.csv``, the figure-2 histogram at time 1, the
figure plans and the ``theta`` tables kept their hashes.  The sigma2 =
0.1 cases were recorded at format version 7, before the change, and
kept their hashes through it: 0.1 survives a square root and its
square, so only sigma2 rounding and the EFT Taylor derivative move
bytes.

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
sigma2 = {sigma2}
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

CASES = {f"{kind}-{scheme}": (kind, scheme, "ones", 0.05)
         for kind in DYNAMICS for scheme in ("milstein", "taylor15")}
CASES["smallworld-milstein-gaussian"] = ("smallworld", "milstein",
                                         "gaussian:0.1", 0.05)

# five cases again at sigma2 = 0.1, which survives a square root and its
# square; their manifests, which carry format_version, are not pinned
EXACT_SIGMA2_CASES = {
    f"{case}-s0.1": (*CASES[case][:3], 0.1)
    for case in ("ring-taylor15", "smallworld-milstein", "meanfield-milstein",
                 "eft-milstein", "smallworld-milstein-gaussian")}

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
c879699c1fd0f637d500262f9afd2609e81cfb01d14739c10116f040a939ee37  complete-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  complete-milstein/simulate/snapshot_t0.0.csv
3e0293dcaf8a530587445c439f99ecb98e9527efb68768575f9c03eb05beb735  complete-milstein/simulate/snapshot_t1.0.csv
ece99b1800513afa17c7e07d3cc04705cfb7638cd14782bdd8784789696d5df8  complete-milstein/simulate/snapshot_t5.0.csv
fabedbff788c41d7a7cb4e8f75214443c928bd6d1ec077c8d61903b5c8ff6578  complete-milstein/evolve/evolution.csv
a1e0ac1e73104cd165dbe634f7d37a61415cd390b13c1b059938a3a6396b9251  complete-milstein/evolve/manifest.json
5f3443046a5959acaf0d3959b27fc4ad6026f926cb8421ed089cc10a0ba02488  complete-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  complete-taylor15/simulate/snapshot_t0.0.csv
ea5880b1dd043a78a6bf9ad5ade6450b965a6d1a38727df0b11d8e83da9aef2f  complete-taylor15/simulate/snapshot_t1.0.csv
372e5b869537a49f83c7661d46452e75756d3895c835cab54c490189289e5580  complete-taylor15/simulate/snapshot_t5.0.csv
8d799c2793e5f33fbabb7fbca22b45921837c49a5466b2215eef1672a0a6815c  complete-taylor15/evolve/evolution.csv
032bb1704ad19372df2304f2c2188e99ba9c5328dabe1cd80553201f6dd7f25e  complete-taylor15/evolve/manifest.json
b569b454e5b7cb6fb34f1f23e05e93d0865f03b4ab50ce17a00ede2da0f9e873  ring-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  ring-milstein/simulate/snapshot_t0.0.csv
12533e71fda2e7632bd732a93d5babc4342787b417746cb5a49751e09cdea033  ring-milstein/simulate/snapshot_t1.0.csv
f37f6d6e495a9e9d7dce3cc2861dffb00bf801d40f3aa3d1298e00250784ab80  ring-milstein/simulate/snapshot_t5.0.csv
e91e5192852b78e9c55994b4b2c3b4d1c0eed2c25f69583b2088c549a1679cb8  ring-milstein/evolve/evolution.csv
b7f8daab34cf71c821a882fef90d68e6ecbfb6238d22735665ca541d5ded72d4  ring-milstein/evolve/manifest.json
95e903135f926746be8476d4a9b3ca2c23d581cb880a460e931f2e689fdfca38  ring-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  ring-taylor15/simulate/snapshot_t0.0.csv
abd21f1f0575820b31a989b257a21bbf493e0a5828c5e58a61adf6c403082e14  ring-taylor15/simulate/snapshot_t1.0.csv
7feddbba78f2b1c3847c86e5d06b68a14e56b924291f01ae7ff2d4782752f795  ring-taylor15/simulate/snapshot_t5.0.csv
aab2b5b9485151d4ff907ad434b2f8c61f08cdf9ee2d41f9e85adda878aea702  ring-taylor15/evolve/evolution.csv
bb714a048cfe3262d7fa2abece73d9a9aacfaf171ba850df1402bfb5291f1955  ring-taylor15/evolve/manifest.json
6778acc241a042d1f940a7d68dc1e6e346978410e1e05f3522977a7a72f07642  smallworld-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  smallworld-milstein/simulate/snapshot_t0.0.csv
2c01a9a211c263f390ddd14d826c1e00dbd09cc6948674e629970d91faf20f80  smallworld-milstein/simulate/snapshot_t1.0.csv
aebc43002d3bfeccb5f980c0bd4d0e0b5d513652440facef8379ccc73de58b0a  smallworld-milstein/simulate/snapshot_t5.0.csv
48c502144806e1588a6cbd4cb48bebfff6ad6ff13e0870cf56bab84f2cbe2a04  smallworld-milstein/evolve/evolution.csv
f02bf8378cef36e824ea8e1fe9af6d05d3d859c8fe319c4c64ceabe5b3833b21  smallworld-milstein/evolve/manifest.json
bf64ba21284099ba805728d1f501ae5fbd7938711a96cbc9184b63582806b3f6  smallworld-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  smallworld-taylor15/simulate/snapshot_t0.0.csv
c15e2e78034085ec197455740b829a0985a10882fb4699230ee042d23e0b4860  smallworld-taylor15/simulate/snapshot_t1.0.csv
48370c346ad53a99b6d29d767142e6187f83855e7da2c3bf8a511534803321c2  smallworld-taylor15/simulate/snapshot_t5.0.csv
424bb8d4904ed3bf079206ee85a385f8a818fc6b7c886a177846ef97e1e13bd7  smallworld-taylor15/evolve/evolution.csv
c0a296912584725abfb88a5cae310d8f67c9ce4326c551d20bb6b923192dc984  smallworld-taylor15/evolve/manifest.json
15abb7ddff6addbe121b3dab7d296acc68ff8d63a7f2f98dfefbbc9ba92b3a50  meanfield-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  meanfield-milstein/simulate/snapshot_t0.0.csv
3e0293dcaf8a530587445c439f99ecb98e9527efb68768575f9c03eb05beb735  meanfield-milstein/simulate/snapshot_t1.0.csv
ece99b1800513afa17c7e07d3cc04705cfb7638cd14782bdd8784789696d5df8  meanfield-milstein/simulate/snapshot_t5.0.csv
fabedbff788c41d7a7cb4e8f75214443c928bd6d1ec077c8d61903b5c8ff6578  meanfield-milstein/evolve/evolution.csv
d7cfe713015cd72ef012e62e45885e97227c50c53ee9111d129f4cc89138d3fc  meanfield-milstein/evolve/manifest.json
702fac0d73a3951b12f12bbcd3a10bd59439c43cacf5128d5a8911e3ffa6c069  meanfield-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  meanfield-taylor15/simulate/snapshot_t0.0.csv
ea5880b1dd043a78a6bf9ad5ade6450b965a6d1a38727df0b11d8e83da9aef2f  meanfield-taylor15/simulate/snapshot_t1.0.csv
372e5b869537a49f83c7661d46452e75756d3895c835cab54c490189289e5580  meanfield-taylor15/simulate/snapshot_t5.0.csv
8d799c2793e5f33fbabb7fbca22b45921837c49a5466b2215eef1672a0a6815c  meanfield-taylor15/evolve/evolution.csv
9ef1554a38152ad4d190924c7c4e23cf1decb81f27b5fc22d564c403b70fb212  meanfield-taylor15/evolve/manifest.json
484ca2d48679a8212ea8798f6f209683ba9387bba066b97a359df9ceb0351c7d  eft-milstein/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  eft-milstein/simulate/snapshot_t0.0.csv
62d72b0e570d3ec4fa28f708bedada3aee3e20d0b708fa46fc7b9a8985093274  eft-milstein/simulate/snapshot_t1.0.csv
03a234f8c9c44e869ef7296a8493f7bd7a269c3e48c1cdc5a2d58669b58a4b31  eft-milstein/simulate/snapshot_t5.0.csv
37756d6ec339e500d136fcbc58a4eab66f99c93d3acd03a3ce28aafbdbd5425e  eft-milstein/evolve/evolution.csv
f8211fa6aecbf2382d605b55b0e14b5a61e806d8d5e0df08278f26f3b4e9b21d  eft-milstein/evolve/manifest.json
1bd65ffc03d52912bc4207bb843e3df6fca66cd6025dc5bc1ac3b506f6ecb080  eft-taylor15/simulate/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  eft-taylor15/simulate/snapshot_t0.0.csv
a4f14d20f0a3a3a408eba0db103cab15286602800c4daaadfd2c91069a4c1fc9  eft-taylor15/simulate/snapshot_t1.0.csv
5b866fdeb3280e5b32c47d30ef9a391af7ffd6b022857ef141a4827f3bfe82fb  eft-taylor15/simulate/snapshot_t5.0.csv
93fc532c22ed61c8f53527c45d6486172add767096cd640968514b494cc8b58b  eft-taylor15/evolve/evolution.csv
f35c5d2255c888d72656955167b41acee0196c331ae59f6b195506722e8306e6  eft-taylor15/evolve/manifest.json
f8df6dc3cf16409ce849e3c093894ffbfe7732031aead631b93c7cfeb80e9c57  smallworld-milstein-gaussian/simulate/manifest.json
cb7558f6c3984ee22b506f20fca40c24282ef197485c7446a0eea1cfa71a9a80  smallworld-milstein-gaussian/simulate/snapshot_t0.0.csv
a60e3cc0fecc4c0dfb830a9fdff806b8fe33db85c83af8a22783d3da99fbadeb  smallworld-milstein-gaussian/simulate/snapshot_t1.0.csv
32afe7fd259b4be1ef78032ac4f1c96fae2d4e7b221f513efedb2a736b7c5d49  smallworld-milstein-gaussian/simulate/snapshot_t5.0.csv
e0746813254dfd46daa9891bc0940464eb8882ea4b99557e954f7f15ffc26a92  smallworld-milstein-gaussian/evolve/evolution.csv
fe45568901b05b07b97e0a767f650ca1970ea0badb8c17212b73a1e06f262419  smallworld-milstein-gaussian/evolve/manifest.json
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  ring-taylor15-s0.1/simulate/snapshot_t0.0.csv
15b4f6c551a94b98f5182bd4c702500f59cde2aa31ca45a9aec92e726e6942a4  ring-taylor15-s0.1/simulate/snapshot_t1.0.csv
d63e22649f77e55789380662a31128e16cf51e2f67442ac9adac5ce81c68f751  ring-taylor15-s0.1/simulate/snapshot_t5.0.csv
f77f8e40b25525fb260667368f2f30440d9e483cd38a7d27b3836ce87513b6cc  ring-taylor15-s0.1/evolve/evolution.csv
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  smallworld-milstein-s0.1/simulate/snapshot_t0.0.csv
395c6f82687a97804dce7a1f8f28d842f2a0733dd438ef86d3b050c31a292221  smallworld-milstein-s0.1/simulate/snapshot_t1.0.csv
35aee2e9d7878db172d2c4f55a33cd547a26179822970c4721ea407f3c8dbc2f  smallworld-milstein-s0.1/simulate/snapshot_t5.0.csv
78431e0877558470fbfe3b37a75d52c2995c0efc97410732d172df232e2b3df8  smallworld-milstein-s0.1/evolve/evolution.csv
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  meanfield-milstein-s0.1/simulate/snapshot_t0.0.csv
50fce05825e9fb5dc32d775cc8f4eceb7f7711736bcb164803e139d211671f4a  meanfield-milstein-s0.1/simulate/snapshot_t1.0.csv
b2b32896c65495a7338201024fbb6880bd07034b5397db0614df95989cf1870e  meanfield-milstein-s0.1/simulate/snapshot_t5.0.csv
342bf14f05605d72e6a3b9de58ad433e9b9b818659977ef0f1a1a3d2741c3787  meanfield-milstein-s0.1/evolve/evolution.csv
7f19869735ba019ab832de06ff3f5683bf2fc731b37ae1423029baa5a1761ec5  eft-milstein-s0.1/simulate/snapshot_t0.0.csv
5a3c525177422a2f693416a30848383fa1bdddeebed974c6136342d1df0bc259  eft-milstein-s0.1/simulate/snapshot_t1.0.csv
8318244daf78fef0fd8e9b3583da744884dea382cc5f7c3c8e9fe350c3227272  eft-milstein-s0.1/simulate/snapshot_t5.0.csv
ec2321851a8d0564ff09b9e7dcb7bc17e066e5f59dab83f5e59f26ccb56fdde4  eft-milstein-s0.1/evolve/evolution.csv
cb7558f6c3984ee22b506f20fca40c24282ef197485c7446a0eea1cfa71a9a80  smallworld-milstein-gaussian-s0.1/simulate/snapshot_t0.0.csv
fecaf45dc17303d2e519bc8f8d73eb890c860bd5f2a81b4f8b658199c2731e02  smallworld-milstein-gaussian-s0.1/simulate/snapshot_t1.0.csv
4df1f95376f48cbb561377f16180c1366f293691d322e4014aab5abd1679e6c4  smallworld-milstein-gaussian-s0.1/simulate/snapshot_t5.0.csv
296f2b3644ca6dacbf978dbad4a8e2989d2367d1270c25332a0f174ec0f53986  smallworld-milstein-gaussian-s0.1/evolve/evolution.csv
9d74b44ba6ccb78b93acc620e6c87e3a45b5d3fb0ac41dc377d53c5d5f2e24ed  convergence-milstein/convergence/convergence_milstein.json
1f36d754aeade40c76a97ac8463aa5d1502808d37af21da01d7dfc1adbea1262  convergence-taylor15/convergence/convergence_taylor15.json
2dd47e22abdb548b099a56834bd4f515917375bd70bad35e1072af1747bc7f3b  fig2/reproduce/evolution_rann_p0.003.csv
06be25d42b634c81a34c20f013f085999f043757ff1fe8909f1b625024abb622  fig2/reproduce/gof_rann_p0.003.json
511c489aca1a8dd36b7e083aee8db413cc7da59acda29b4000a793e1909d646a  fig2/reproduce/hist_rann_p0.003_t1.0.csv
71bd547a2e370d1943bb429472e5f4689ee782644b2bcd26fb093e2764bc60c6  fig2/reproduce/hist_rann_p0.003_t500.0.csv
7316236870ac1b7640a966d614a128e87a1722d6186a878c38257dcaa349e30c  fig2/reproduce/manifest.json
3940b88679cace0340654220ba5617303fcedcb2daba3892969009a64ce9a9c2  fig5/reproduce/evolution_eft_g0.4.csv
2746446e5377b73db38919a83e43b6c3232410a0a2cc4373fb9834fb02f3e4b5  fig5/reproduce/evolution_eft_g0.5.csv
b6d33ed46e1e26c2139b1c1fb4785655910b940356fcdc5cffdbeac4ce466def  fig5/reproduce/evolution_eft_g0.6.csv
aba9b097019c2b693787ea468ce170ba03e14945fbcfbfb6cfee31bc71b51094  fig5/reproduce/evolution_eft_g0.8.csv
a4c62b0580d562045af044d3f483fa3c1c31eab15397a3b36236090ea97e8d0e  fig5/reproduce/manifest.json
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
        kind, scheme, init, sigma2 = {**CASES, **EXACT_SIGMA2_CASES}[case]
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG.format(dynamics=DYNAMICS[kind], scheme=scheme,
                                      init=init, sigma2=sigma2))
        args = ["--config", str(path)]
    assert cli.main([command, *args, "--out", str(out)]) == 0
    return _hashes(out)


@pytest.mark.parametrize("command", ["simulate", "evolve"])
@pytest.mark.parametrize("case", list(CASES))
def test_cli_outputs_unchanged(tmp_path, case, command):
    assert _run(tmp_path, case, command) == GOLDEN[f"{case}/{command}"]


@pytest.mark.parametrize("command", ["simulate", "evolve"])
@pytest.mark.parametrize("case", list(EXACT_SIGMA2_CASES))
def test_outputs_at_exact_sigma2_unchanged(tmp_path, case, command):
    hashes = _run(tmp_path, case, command)
    del hashes["manifest.json"]
    assert hashes == GOLDEN[f"{case}/{command}"]


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

    runs = [(case, command) for case in {**CASES, **EXACT_SIGMA2_CASES}
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
        if case in EXACT_SIGMA2_CASES:
            del hashes["manifest.json"]
        for name, digest in hashes.items():
            print(f"{digest}  {case}/{command}/{name}")
