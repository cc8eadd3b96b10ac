"""Golden trajectories: SHA-256 digests of the iterates, the CSV bytes and
the summary floats (17 significant digits) of short stride-1 runs.

The cases cover every algorithm under every noise family on the quadratic,
the hybrid with and without bias correction and with pre-sign dither, the
logistic and MLP problems, and the step-decay schedule. A change to the
arithmetic of a step rule, or to the order of its random draws, changes a
digest, so a refactor of the step rules must leave this table untouched.

`MULTI_SEED_GOLDEN` pins the same three digests for `run_seeds` over three
seeds, one of which diverges in the middle of the run, and
`SUITE_GOLDEN` pins the reports of a small theorem suite and of switch
suites over dithered, bias-corrected, step-decayed, logistic and diverging
configs and a t-grid with its edge cases, so that a change to how seeds
and configs are run together is checked bitwise too.

To print the table for the current code (only after a deliberate change of
trajectories): `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from signopt.checks import _theorem_base_config
from signopt.config import ExperimentConfig, OptimizerSpec, ProblemSpec, RunSpec
from signopt.harness import (emit_csv, run_seeds, run_single,
                             run_switch_suite, run_theorem_suite)
from signopt.problems import NOISE_FAMILIES

STEPS = 60
SEED = 0

QUADRATIC_OPTIMIZERS = {
    "sgd": {"algorithm": "sgd", "lr": 0.05},
    "signsgd": {"algorithm": "signsgd", "delta": 0.05},
    "signsgdm": {"algorithm": "signsgdm", "delta": 0.05},
    "dithered-pre": {"algorithm": "dithered", "delta": 0.05, "alpha": 0.1,
                     "dither_mode": "pre"},
    "dithered-post": {"algorithm": "dithered", "delta": 0.05, "alpha": 0.1,
                      "dither_mode": "post"},
    "hybrid": {"algorithm": "hybrid", "delta": 0.05, "eta": 0.9,
               "t_switch": 30.0},
    "hybrid-bias-corrected": {"algorithm": "hybrid", "delta": 0.05,
                              "eta": 0.9, "t_switch": 30.0,
                              "lambda_bias_correction": True},
    "hybrid-pre": {"algorithm": "hybrid", "delta": 0.05, "eta": 0.9,
                   "t_switch": 30.0, "alpha": 0.1, "dither_mode": "pre"},
}


def _problem(kind, family):
    if kind == "quadratic":
        return ProblemSpec(kind="quadratic", dim=5,
                           lipschitz=(0.5, 1.0, 2.0, 3.0, 4.0), x_opt=(0.0,),
                           x0=(1.0,), noise_family=family, sigma=(0.5,))
    if kind == "logistic":
        return ProblemSpec(kind="logistic", dim=6, n_points=40,
                           dataset_seed=3, x0=(0.0,), noise_family=family,
                           sigma=(0.5,))
    return ProblemSpec(kind="mlp", layer_widths=(2, 4, 1), n_points=40,
                       dataset_seed=3, x0=(0.3,), noise_family=family,
                       sigma=(0.5,))


def _config(kind, family, optimizer, **run):
    return ExperimentConfig(
        problem=_problem(kind, family),
        optimizer=OptimizerSpec(**optimizer),
        run=RunSpec(steps=STEPS, batch_size=2, seeds=(SEED,),
                    record_stride=1, **run))


def _cases():
    cases = {}
    for family in NOISE_FAMILIES:
        for name, optimizer in QUADRATIC_OPTIMIZERS.items():
            cases[f"quadratic-{family}-{name}"] = _config("quadratic", family,
                                                          optimizer)
    cases["logistic-hybrid-pre"] = _config(
        "logistic", "gaussian", QUADRATIC_OPTIMIZERS["hybrid-pre"])
    cases["logistic-dithered-post"] = _config(
        "logistic", "laplace", QUADRATIC_OPTIMIZERS["dithered-post"])
    cases["mlp-hybrid"] = _config("mlp", "uniform",
                                  QUADRATIC_OPTIMIZERS["hybrid"])
    cases["mlp-dithered-pre"] = _config(
        "mlp", "gaussian", QUADRATIC_OPTIMIZERS["dithered-pre"])
    cases["decay-sgd"] = _config("quadratic", "gaussian",
                                 QUADRATIC_OPTIMIZERS["sgd"],
                                 decay_every=20, decay_factor=0.5)
    cases["decay-hybrid-pre"] = _config("quadratic", "gaussian",
                                        QUADRATIC_OPTIMIZERS["hybrid-pre"],
                                        decay_every=20, decay_factor=0.5)
    return cases


CASES = _cases()


def _fmt(value):
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def trajectory_digests(cfg, workdir):
    """(iterates, CSV bytes, summary floats) SHA-256 hex digests."""
    rec = run_single(cfg, SEED, collect_iterates=True)
    csv_path = Path(workdir) / "run.csv"
    emit_csv(rec, csv_path)
    summary = "\n".join(f"{key}={_fmt(value)}"
                        for key, value in sorted(rec.summary().items())
                        if key != "wall_time")
    return (hashlib.sha256(np.stack(rec.iterates).tobytes()).hexdigest(),
            hashlib.sha256(csv_path.read_bytes()).hexdigest(),
            hashlib.sha256(summary.encode()).hexdigest())


GOLDEN = {
    'decay-hybrid-pre': (
        '84d8d5a55bcba40a1a3dfe0bf324f29b8b69a31468b0a79d88596111504189a5',
        '54a42a7ce4a10f5d1929cdf465629a6b8115569a0669e06cc7e2eaa2f0782436',
        'dbdb6a7d636b894d55faceb5eec5547e7864a9cdf528b5365023a714fc7c1410'),
    'decay-sgd': (
        'e2e4811aeaf12dce6a126547ea01bab909fbca0f003c4ece1a0f7f7dd821d5be',
        '4a81d33fd080b4c7da1918af3923b3b7fdae4e4c44579c5cb2bf7f29ab59948d',
        '40c64cfa82f04b183c1c275d6a6fa0480602d57866b823b2509e64218c4d3501'),
    'logistic-dithered-post': (
        'be3dff97f527f7ae4ddb14cb97a9c4d19a3a3d329c2266462db2df20c904c85e',
        '2a1d11edf8559a0d386328bf5e86b955832c0b35c578d298fcd6a5d7045ef3ea',
        'd70b1285ba67d54664ab66f0a0302f4cf20c7fbb62df208a5eeb7be66c1a1fdc'),
    'logistic-hybrid-pre': (
        '4325dfbd0825fe1e8200a1bd99bcba52ea722acf2c85cce7dc2236e3fbbfaf35',
        '3befa2a8584b097463f08946bc98cfb80633c4cbae412516add306a169458720',
        'a5d21dc4c7fc41ff11b76a49e2396c4349257e7ce7c94387c0cde31c8efd90bd'),
    'mlp-dithered-pre': (
        '34068c36fcd739d8972890a6a56c3c530984934d1be3d8c78d491fea6e70e96b',
        'cfd704979a9191d3d3ebf2aba2ba97991925bfb0f874aa8a10d8494de1b10ded',
        '5a3a7a92c101c16f0d290aea8a4fc5930383835d2f46140143670632ca86fbd0'),
    'mlp-hybrid': (
        'a5f05e51e59acd0221c3161467473287ce9fa49d685abfb6614776a51f691bc1',
        'e01186fd2c3d33a2c48a1635fb2cbdd21f0e8a9c07756e6a18bd7056f1c6cb6c',
        '132f735c8ca031d7fd12d406474f34333ebf1564a94a058114bc93fb7592cfc8'),
    'quadratic-asymmetric-bimodal-dithered-post': (
        '4155f1c69ea5cdac03137f971a71038c55ca4aab58590fd0bf973bbdf94dfacd',
        'c5495a2b5ffce5e7cbe28a826d8b1c48537977e2cd694df66379b0ab719c65cf',
        '1afa88b9a266bb87a1bb581e668a6c8d0c704cff765c161bb5e219e1f3773c19'),
    'quadratic-asymmetric-bimodal-dithered-pre': (
        '2e4b0abae6c349931e254c619becd441ce07751fb01fb34e5395228a60c90c1d',
        '7b90200126f02d302fc0bcbdb3551cf5df1a2abb834aa7ff8a153a857e38d443',
        '4dc113e758af939aab532d4656c395d9ba6ea90bba1509079b43ec72bd18eceb'),
    'quadratic-asymmetric-bimodal-hybrid': (
        '8b9bb9a95bd890e4718c6aa3791c5f4046545fde1d245938cead2f5e38269ad6',
        '660ae74c4be981a1cb7102d9e1a88d4c7a7ac8310aef588346fa19317280e100',
        '4849c519eb324cd8099b4b3daac32329adaa7ed0e9a732c3a56cf9af66cb2c2e'),
    'quadratic-asymmetric-bimodal-hybrid-bias-corrected': (
        '162541e91f491fcbd8008a1c84493d1ee00b1f5976b875fdf5fa3356a17fcd47',
        '0fe4789c37a588629bc9e1ee09be7cad79413ab17b1a5cce231d88265bfbaec9',
        'b72f0e5f159c9befef320a48004de7c9391911944bde0236d55dffb2c0dd6107'),
    'quadratic-asymmetric-bimodal-hybrid-pre': (
        '943c0dd258ad4382974b87f462543e4cc7ba6776a81ee814c6ff17db70807c3d',
        'fc51e73351733782efe3ef9436f5ee510ca4e74c7bb6d4d0ea84b4cc3eb06e7a',
        '17f6336e216ecce650eed763a34151ed41392c867566ed830ba1e7c13f2f320f'),
    'quadratic-asymmetric-bimodal-sgd': (
        '72b9d32317b13f9265b46c5e2ed509cf6d9aead2e89ab674bd16cd432af4cb34',
        '744bf5a0b779b5c964a5712650a6a0dc3ab7d3d4edd8bbd7443eb49b3223e1a2',
        '4f47ed4474a0866573ced4a0420a15a18a7a088b71db087ac14df9b0dcac0094'),
    'quadratic-asymmetric-bimodal-signsgd': (
        '1a696328900fb9e6ac9d2fafc95323254504409dd2171324dd893561c5b9bda2',
        'f1e95f6e6e67983fa06a0252500aaf824b592eaf89a38de37a1705bd6469bcd1',
        'db90dd1741a42ced30f7aaf49edfae0329f897a6fbb5c76d4cf7fce51b9ed7dd'),
    'quadratic-asymmetric-bimodal-signsgdm': (
        '4462017346e2733c5e8361cfce229b85af7a4d1d5fa01e56062fa5b13d598fc4',
        'e349756c43cbb75f3945faf199001d2335f5de611855f95929be909e89bfac17',
        '984a2740a91b3a41c15f9865f70f440b67094516e7f5984a3890235dd51652d4'),
    'quadratic-gaussian-dithered-post': (
        'a7a169a4967ae1c9ec56092424688932511395a95076926c7eb13d345ddf68d0',
        'a61101a856ee8a2918046a8d6848d913352e62722ae3f031d6d713a78fbcadb2',
        '143af2f8c1728187cca2af769af60cc9d6907dc6766a0934b826eb4a701291ff'),
    'quadratic-gaussian-dithered-pre': (
        '75256d8cdbffce694edf467ee366319fbcf5ee51f1d391fa2db3de1f4adffa7a',
        '30357568d4c08de523720916fec217810569b9c4913f0503798b441fd10fc7c8',
        '052c5cebdf971fc5e0d915a4ce1001c8b82aadbdc72d8f3b9b6281f23168e411'),
    'quadratic-gaussian-hybrid': (
        'bb6452e12511874863462a6815a4586433cca9b808cd705c7e9a1bf34bb5aed1',
        '8a98bffd9b38e9b3319c889b902dad3fd45d4ec937983f2c612519c8ea77d5a0',
        '0c12d9e5a3397acf02d8af47998c5436ce309aae90e8e3de74972597a41a75f9'),
    'quadratic-gaussian-hybrid-bias-corrected': (
        'e838ea9bd80fc3d2da450c80d8ccf80bed838b12cdeabe598b71c1d2ff536391',
        'd029e559871ead27b1cf1b67307f0010fda38434cb68831360b06ce5edb45047',
        'b7a38a13d28931bd9d3cdaee11381ff6bef71d468e947afbbc62ad30c168f664'),
    'quadratic-gaussian-hybrid-pre': (
        '8f47fa81bfd38c1343998106b961d7d8e070d65817b419d73b91d0dd55aad57b',
        '8e74558f2ed7de6f814c4ee0e34977860914785aff9a0ce3dae7ad0254c23413',
        'a4adcf832a7a05f3ed9766a0339c40cbf8a11b92a0483aac12ce2c619cbb23da'),
    'quadratic-gaussian-sgd': (
        '049b430eac0686cfea45535b7a1ad263602028d3a8463b85487e0ea2b056a784',
        '2dfef703995eb8e1a3c74e253d97ab46f17679de88736defc241f45000048e82',
        '195e46530121a96d4012f1fc4c63d1d5ef8e7882f9920bc9bb3a25519940d249'),
    'quadratic-gaussian-signsgd': (
        'dc91cb3685a00570230190972f69b1cf1a29512a84cf4983329c06fb8d9ecb49',
        'b19e72a39bde60309cb3a98715c3fc87c2b7fe26227c395bb4e53813f4f60865',
        '32ba9c1eb151de18e6db34440cf47db9a3f705a592ef63bf18b1074e9a8e8ce1'),
    'quadratic-gaussian-signsgdm': (
        'e182f6c73d27ebd1a759cd0f2fccb88b7a663766e051670a146cd1d8a0de6fd5',
        'fcc45884990dd05b458f6d691d03a23fdafeec78521cd8c021803e4d63a63ba8',
        '4e58a3893b8ce45092e85a4d89cc8f86b892f8d17ede1db8b69fa6cb918150fa'),
    'quadratic-laplace-dithered-post': (
        '79bb58b5cd39143382464eac15654ff7926fdf7c0a2b85ff1d476850fa4596a4',
        '10c367744e1c7b7265002a812f2f7a7454aa238788f93fb4192e0662757c31b5',
        '13ce268c661a30b90df4e1e0346e6e1dd64a557df5485dc2705f460537bc9cad'),
    'quadratic-laplace-dithered-pre': (
        'c973c4d7b62f4a35509172e9b6f4df4f5146f0bc571bf6479b7aedecb1764178',
        'f70b9f25ab1b929e78c1d05c9a33ce0bb735602797e1c580cc292c80ac256a3a',
        '1b6a1938c8de73baba666f239994fdf74a895a0df0388c6dddceb5dd82c1cd13'),
    'quadratic-laplace-hybrid': (
        '300bae18ab089b32e09364116ce84e291e97e81d36a55965c9e87fd5811e93e7',
        'ce663e98fe2b49bde846c9663895f875b665f7e13511a9e0e9a179d3b19226cf',
        'a616b3119e07af1205386a14cdd679d101fb25a02fb716851ea741385a90470f'),
    'quadratic-laplace-hybrid-bias-corrected': (
        'cda646b80b3db9ae9c0075a9367ff5a111ad2cbc3a52cf9d106f5b7d87ffe710',
        '1352a265206b553bfb76b7fe19a64830415ca6c114f382aac5f3bbe1f8e424e6',
        'cfd52a05518832608541089b4ef0c12e2fa4bb54c52bdbd648f971a5d5a97744'),
    'quadratic-laplace-hybrid-pre': (
        'f2571fdfd4bd26e0ccb11c6bd2d74ec0209bd5d5e754cda604c1719eea2a7cc0',
        'f26a4ae2345b18d63deb2748376da444da506121dee0c4b6a6e7266d555115fe',
        'af32e2d8fb23edfbdef073b425197dec45132c20cf6ab9688e3c909a2ec14943'),
    'quadratic-laplace-sgd': (
        'fcc17021beacb9038986316f884fa58c1e4c12c3d4c0866cfb47ea4915cb0d99',
        'f2fc5220d6e3c8877e8e083cce8bf031c71c7410386e9591a1ef695ade91374d',
        'd69dee666e5bfc76831be11f4cbb8df5380f458de44f3493ab66262248fd7155'),
    'quadratic-laplace-signsgd': (
        '8f9b9ffd30cfb2a217b120a6e83c6ab068daf2d39e92b2612b72242573fd3fe3',
        '2f61677a40019eb89064df1b41d415493a825f0fb6941402203ef0bb3d79c213',
        '9a61aa2cd298da7e5da9aa2c2633d6c501b836451b031a90c3589524e651a63a'),
    'quadratic-laplace-signsgdm': (
        '2f3bd1f2fc4e2ae0cf35e6d3894c24cc2930560eb6140084095b734ac642a843',
        'e50862668520feebc8b2bd905fc3b75b738239e8aa5f11bf52c467aa402c4914',
        '6720d83704ccca7dba17d95d65a78aac211b14905b24acdfb6889f6a71f6f01e'),
    'quadratic-uniform-dithered-post': (
        '9dd654eb616c051f5210cf565d437c648c6e9ddcf0412fe455968dbee9e88e9e',
        '50e687ad37fe37884a2431ef4c4d1945d96535316d5579496ee6bdde87d05439',
        '031318227cfeca95d37ef0403f04c0370fd46b1929c2118e69b08d6f79a38af8'),
    'quadratic-uniform-dithered-pre': (
        '13288a1d8d74069d11b3baf039b3646d86ae682f58091c89858af888ab0a82cd',
        'c1267a3d080601e0a4370acb0cd8eb2046aad3087d9e07ba67ddf20097bebebc',
        'be2c53474b1bcedd4106c4990553f41dbca8dfdebd45c31caac3a62f7218353d'),
    'quadratic-uniform-hybrid': (
        '8a0d78ff1d0333ae32a36e62b588c7548d1453de2b2d032a514fc4a952b6fe19',
        '592fa1e0fd4bdf8cfce865b145aa55ae7c10aa5c5b676f852fb2c19baf850e5b',
        '5a25e6a99cf71145424ac6eb2dca5be5d2b60eaaab31b81485c3282ce1fea9c9'),
    'quadratic-uniform-hybrid-bias-corrected': (
        'b007d0c5a8defdecc1f791a0ce27d06abcbbb2eca2dfa15929ac95b14b6df06b',
        '60dfbdc41a52b4231ea771eba91b4f962387be181a480047f292385d61045fb8',
        '4a2a454d8aaf8faf75a98b3edb8fe71bc0c0a431142cdc164c4403c20f3dd4bd'),
    'quadratic-uniform-hybrid-pre': (
        'f4fcb972bb2e0255a7aa57b78039d4cce74683e9520439c798dad3e7c5440a9c',
        '0ee503e0bc49d3ea8e53c9a3c74ebb96f97957baa045906032e27fbcda864570',
        'e7ff5fba94807272616baa0eb2bac201f180dd36369229bd182d725aa706852d'),
    'quadratic-uniform-sgd': (
        'de08fc4659466f92bfecc47f936bae0428b829c40871bf023403d0d49c71d7ca',
        '9dfc8f09ba8bd8b20a7ffd91d59405227d42c5314a4d6f15aedd1ac1c88b1e06',
        '928906821c7a812ad580759461fd5c457c8ab0cb0c17795a10b2d50a1eef1848'),
    'quadratic-uniform-signsgd': (
        '20500c95f8e54311a0093d205326cc0596b165f1d3f4ec35f8d8334490f81901',
        '3caf1a0a99677f037e1ec61473849c8f2db3e83d243c6e99c317c618e83580bd',
        '662ce0cc0f38cb2ef688754c47e855f14a52a82b712ae5403706ad1c4527ae91'),
    'quadratic-uniform-signsgdm': (
        '925d41b43582264640ccdb8069ad7e241102fbb5f8be2f134a82a0ac3c965fca',
        '6abe2152b08e57ee374a81df7053cceecf3003cb5e554094e1953c88071d0fd9',
        '6b39826631c507553cfeff592472b42d5b3ff7647b228d5d15e9f7352f2928a5'),
}


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden_digests(name, tmp_path):
    iterates, csv, summary = trajectory_digests(CASES[name], tmp_path)
    expected = GOLDEN[name]
    assert iterates == expected[0], "iterates changed"
    assert csv == expected[1], "CSV bytes changed"
    assert summary == expected[2], "summary floats changed"


# -- several seeds at once ----------------------------------------------------

# Each multi-seed run starts just below the overflow of f, with oracle noise
# that swamps the gradient, so that a seed's random walk may overflow f in
# the middle of the run. The quadratic's curvature is scaled down so that
# ||g||^2 stays finite and the calibrated lambda of the hybrid is not 0. The
# noise scale and the seeds of each case are chosen so that exactly one of
# its three seeds diverges.
BIG_X0 = {"quadratic": 4e158, "logistic": 5e153, "mlp": 1e307}
QUADRATIC_CURVATURE_SCALE = 1e-10
DELTA_FRACTION = {"quadratic": 0.01, "logistic": 0.01, "mlp": 0.03}

MULTI_SEED_CASES = {
    "quadratic-gaussian-sgd": (1e151, (0, 2, 5)),
    "quadratic-gaussian-signsgd": (1e151, (0, 1, 2)),
    "quadratic-gaussian-signsgdm": (1e151, (0, 2, 3)),
    "quadratic-gaussian-dithered-pre": (1e151, (0, 2, 3)),
    "quadratic-gaussian-dithered-post": (1e151, (0, 2, 3)),
    "quadratic-gaussian-hybrid": (1e151, (0, 2, 3)),
    "quadratic-gaussian-hybrid-bias-corrected": (1e151, (0, 2, 3)),
    "quadratic-gaussian-hybrid-pre": (1e151, (0, 2, 3)),
    "quadratic-uniform-sgd": (1e151, (0, 1, 3)),
    "quadratic-uniform-signsgd": (1e151, (0, 1, 3)),
    "quadratic-uniform-signsgdm": (1e151, (0, 1, 3)),
    "quadratic-uniform-dithered-pre": (1e151, (0, 1, 3)),
    "quadratic-uniform-dithered-post": (1e151, (0, 1, 3)),
    "quadratic-uniform-hybrid": (1e151, (0, 1, 3)),
    "quadratic-uniform-hybrid-bias-corrected": (1e151, (0, 1, 3)),
    "quadratic-uniform-hybrid-pre": (1e151, (0, 1, 3)),
    "quadratic-laplace-sgd": (1e151, (0, 1, 9)),
    "quadratic-laplace-signsgd": (1e151, (0, 1, 3)),
    "quadratic-laplace-signsgdm": (1e151, (0, 1, 2)),
    "quadratic-laplace-dithered-pre": (1e151, (0, 1, 2)),
    "quadratic-laplace-dithered-post": (1e151, (0, 1, 2)),
    "quadratic-laplace-hybrid": (1e151, (0, 5, 16)),
    "quadratic-laplace-hybrid-bias-corrected": (1e151, (0, 5, 16)),
    "quadratic-laplace-hybrid-pre": (1e151, (0, 5, 16)),
    "quadratic-asymmetric-bimodal-sgd": (1e151, (0, 1, 2)),
    "quadratic-asymmetric-bimodal-signsgd": (3.4e149, (0, 2, 3)),
    "quadratic-asymmetric-bimodal-signsgdm": (1e151, (0, 9, 10)),
    "quadratic-asymmetric-bimodal-dithered-pre": (1e151, (0, 9, 10)),
    "quadratic-asymmetric-bimodal-dithered-post": (1e151, (0, 9, 10)),
    "quadratic-asymmetric-bimodal-hybrid": (1e150, (0, 1, 2)),
    "quadratic-asymmetric-bimodal-hybrid-bias-corrected": (1e150, (0, 1, 2)),
    "quadratic-asymmetric-bimodal-hybrid-pre": (1e150, (0, 1, 2)),
    "logistic-hybrid-pre": (1e153, (0, 1, 8)),
    "logistic-dithered-post": (3e153, (0, 1, 25)),
    "mlp-hybrid": (1.0, (0, 1, 11)),
    "mlp-dithered-pre": (1.0, (0, 1, 15)),
}


def _multi_seed_config(name):
    """The stride-1 config of a multi-seed case: CASES[name] started at the
    edge of overflow, with its sign step a fixed fraction of the start and
    SGD's noise step matched to it."""
    sigma, seeds = MULTI_SEED_CASES[name]
    cfg = CASES[name]
    kind = cfg.problem.kind
    delta = DELTA_FRACTION[kind] * BIG_X0[kind]
    optimizer = replace(cfg.optimizer, delta=delta)
    if optimizer.algorithm == "sgd":
        optimizer = replace(optimizer, lr=delta / sigma)
    problem = replace(cfg.problem, x0=(BIG_X0[kind],), sigma=(sigma,))
    if kind == "quadratic":
        problem = replace(problem, lipschitz=tuple(
            QUADRATIC_CURVATURE_SCALE * v for v in problem.lipschitz))
    return replace(cfg, optimizer=optimizer, problem=problem,
                   run=replace(cfg.run, seeds=seeds))


def multi_seed_digests(cfg, workdir):
    """(iterates, CSV bytes, summary floats) SHA-256 hex digests over every
    seed of `run_seeds(cfg)`, in seed order."""
    recs = run_seeds(cfg, collect_iterates=True)
    assert [r.diverged for r in recs].count(True) == 1
    iterates, csv, summary = (hashlib.sha256() for _ in range(3))
    csv_path = Path(workdir) / "run.csv"
    for rec in recs:
        iterates.update(f"{rec.seed}:{len(rec.iterates)}:".encode())
        iterates.update(np.stack(rec.iterates).tobytes())
        emit_csv(rec, csv_path)
        csv.update(csv_path.read_bytes())
        summary.update("\n".join(f"{key}={_fmt(value)}"
                                 for key, value in sorted(rec.summary().items())
                                 if key != "wall_time").encode() + b"\n")
    return iterates.hexdigest(), csv.hexdigest(), summary.hexdigest()


def _switch_config():
    """The switching-benefit config at a tenth of its steps."""
    return ExperimentConfig(
        problem=ProblemSpec(kind="quadratic", dim=10,
                            lipschitz=tuple(np.linspace(0.5, 4.0, 10)),
                            x_opt=(0.0,), x0=(1.0,),
                            noise_family="gaussian", sigma=(1.0,)),
        optimizer=OptimizerSpec(algorithm="hybrid", delta=0.05, beta=0.9,
                                eta=0.99, lr=0.01),
        run=RunSpec(steps=400, batch_size=1, seeds=(0, 1, 2),
                    record_stride=40))


def _switch_variant(problem=None, run=None, **optimizer):
    """`_switch_config` with some of its fields changed."""
    cfg = _switch_config()
    return replace(cfg, problem=replace(cfg.problem, **(problem or {})),
                   optimizer=replace(cfg.optimizer, **optimizer),
                   run=replace(cfg.run, **(run or {})))


# Starts near the overflow of f with noise that swamps the gradient, so
# that seed 1 diverges at step 58 under sign-momentum steps (the hybrids
# that switch at 60 and 100, and SignSGD-M) and finishes after the switch
# at 20 and under SGD.
SWITCH_EDGE_X0 = 2.5e158
SWITCH_EDGE_SIGMA = 1e151

SUITES = {
    "theorem-suite": lambda: run_theorem_suite(
        _theorem_base_config(1.0), (0, 1, 2), (50, 200), (1, 4)),
    "switch-suite": lambda: run_switch_suite(_switch_config(),
                                             (50, 100, 200), (0, 1, 2)),
    "switch-suite-pre-bias-corrected": lambda: run_switch_suite(
        _switch_variant(alpha=0.1, dither_mode="pre",
                        lambda_bias_correction=True),
        (50, 100, 200), (0, 1, 2)),
    # switches before the first step, after a fractional step count, and
    # never (t_switch >= steps: median_lambda_at_switch is NaN)
    "switch-suite-grid-edges": lambda: run_switch_suite(
        _switch_config(), (0, 2.5, 400), (0, 1, 2)),
    "switch-suite-decay": lambda: run_switch_suite(
        _switch_variant(run={"decay_every": 100, "decay_factor": 0.5}),
        (50, 100, 200), (0, 1, 2)),
    "switch-suite-logistic": lambda: run_switch_suite(
        _switch_variant(problem={"kind": "logistic", "dim": 6,
                                 "n_points": 40, "dataset_seed": 3,
                                 "lipschitz": (1.0,), "x0": (0.0,),
                                 "sigma": (0.5,)},
                        run={"steps": 200, "record_stride": 20}),
        (25, 50, 100), (0, 1, 2)),
    "switch-suite-diverging": lambda: run_switch_suite(
        _switch_variant(
            problem={"x0": (SWITCH_EDGE_X0,), "sigma": (SWITCH_EDGE_SIGMA,),
                     "lipschitz": tuple(QUADRATIC_CURVATURE_SCALE * v
                                        for v in np.linspace(0.5, 4.0, 10))},
            run={"steps": 120, "record_stride": 12},
            delta=0.01 * SWITCH_EDGE_X0,
            lr=0.01 * SWITCH_EDGE_X0 / SWITCH_EDGE_SIGMA, eta=0.9),
        (20, 60, 100), (0, 1, 2)),
}


def suite_digest(name):
    """SHA-256 hex digest of the suite's report as JSON; floats are written
    by `repr`, which round-trips every bit."""
    report = json.dumps(SUITES[name](), sort_keys=True)
    return hashlib.sha256(report.encode()).hexdigest()


MULTI_SEED_GOLDEN = {
    'logistic-dithered-post': (
        '3bc94f350053d1a6deab44432e2fdcb514d990addb63f707d4c9d84c4bb7d0d8',
        'f0796ba3394a5eae711aca64fafde8fcc33a895225995d92690cc06c298b6dc7',
        'b201fcf16050603437fb4bb98a2e801a1c1618aefbcfe070951e535f50a6afbc'),
    'logistic-hybrid-pre': (
        'fe6c68d1c729f5b0642cf1f085bb8811ed9756d876999d280c4b404a07480022',
        'bd9b003daebc873576c5c65ec75bb299aac95b3c43bca141b5b05b9a3061661a',
        '2a7694e6293492efc91c97868d5b64879b6bc741e06b58563896f6c4c030ae47'),
    'mlp-dithered-pre': (
        'a4dbba0137e259b7333e8078f7c1e7ef04b08937b4848806840341390a0e8b53',
        'a22b58bc93bc73f51777df42033291bb82a122069476232856f21978f4cbb039',
        '04af5226c6eb4313bb1fa260a6feabf85d4f96653af35b4e65cc88b1ccc69d41'),
    'mlp-hybrid': (
        '6c39422a3a6c7f507ec49d6fa46e493260f62a7b84e1fcd176fbe1fb53f29010',
        '2b844009ccdcd66fd360ed7e2438bc1514f9f4cb79a7f96ba16e1c37d7918bed',
        'ff65177efabf0eb250fae3a78db56ccfb288f67fe022fe651947f9dc4075a23a'),
    'quadratic-asymmetric-bimodal-dithered-post': (
        '380ac1ac20c8395949d154136ae4c3596bd97466cfe8aaffef780dbb6c7cdcf7',
        '2ea2d9aa1e1f2e0648cc5a29abed79f7871f65b288cf88581375c59e8147846e',
        '0b6067fdc3f59bf03ac9a0d8b7d2f0f1950907da79bfa272979b81d6cc0a46f3'),
    'quadratic-asymmetric-bimodal-dithered-pre': (
        'f67663dbad354e318cb066ab0b056a41f5bd41c6cf52726013767704b5a8cbc3',
        'c6110cbb1085b987a92248d65e74c8456da347e7e71862aa406b77e3621bbff3',
        '3545fbc1a6016af7b0c9fb58cb899e5a19b263b6915df58b293149b1a784582e'),
    'quadratic-asymmetric-bimodal-hybrid': (
        'baea180c61f29cc78f511c1aa9acf5eaff61261099c6d466e3f7cdaf0f620bb0',
        '60419eab2e5a5aa6c9df1f26c0ad32a90217c036c1f098f3309190cd554ae17e',
        'a68bc7c46136f761b01a1737a4b8c9b443cf5ccb6c497c4346b400d6f91d9c5c'),
    'quadratic-asymmetric-bimodal-hybrid-bias-corrected': (
        '2769655af61059a13cb45258e5c02dfc6dc89e1b86aab0438cf9cc83155f5f75',
        '2211218a5fc03a7d46c38d456deb508a5e58d0ae320688a029d247ec8403b3d6',
        'b377a4f164f23b6fea4514673911037480ef39dfe2cae71cf340793eccbadfb9'),
    'quadratic-asymmetric-bimodal-hybrid-pre': (
        'baea180c61f29cc78f511c1aa9acf5eaff61261099c6d466e3f7cdaf0f620bb0',
        '926f7093b39fd75e00177c05eb412e006fce011a217569e7b56a2be2c8afc753',
        'a68bc7c46136f761b01a1737a4b8c9b443cf5ccb6c497c4346b400d6f91d9c5c'),
    'quadratic-asymmetric-bimodal-sgd': (
        '4c7906424f1408bb5a478c4d9d0bda837df23d9f354c9d4918c1107047a1670a',
        '26712072fffc9082b53062d92a2787244403d55ecadadd575879ce24fc2606bd',
        'f75fbc3702659f48d3401b34c5c4bbf981d4c226dcf3181037ed5ed11d8c5003'),
    'quadratic-asymmetric-bimodal-signsgd': (
        '6b3af08ec499471a70de87aa291b94b92eb15afb4a3b19b28f70b815de88b533',
        '641dc1bef5bd258e2f7605406377ddccf5e61f665fe49f9e7503ef3a81fe0076',
        'abc289c6199acf0adf61e9132b39b79dc165c0b20c3feee462d6aab62a212643'),
    'quadratic-asymmetric-bimodal-signsgdm': (
        'f67663dbad354e318cb066ab0b056a41f5bd41c6cf52726013767704b5a8cbc3',
        '3b2fed4c11ed76e3751882923d105be1443e8377989859bfe4c2f3de268a740d',
        '3545fbc1a6016af7b0c9fb58cb899e5a19b263b6915df58b293149b1a784582e'),
    'quadratic-gaussian-dithered-post': (
        '466a97b906d20d1c1b91acf451172564733d842a70d1db214ae75e97f2290b32',
        'ee0ad5d26c78dc36b8fb6b0e46a7c60390b44eeea8f4400df4c6f27e648e5489',
        '5b9b04e2795d0773a6d4fbb10d313c8234618d560bb9812a8997257990d0e95b'),
    'quadratic-gaussian-dithered-pre': (
        '2c5328cf53f12bee56ed23557cb6631e8e651216c9b67cb103f1bd74c73fad45',
        '9282f6e130481c9f81042b127ac41c80206d4c512d531d63022d241ca767d587',
        'de0de104b16b4aed78c968135f16c6c3993062991cfa0cc80f9656f64ee93b66'),
    'quadratic-gaussian-hybrid': (
        '93319f7fcbe2ce85bc268c2130268fbb6b84ff860defcd37cebab11811359855',
        '0188ef64307c321f15aa6bc9a9801792e3290b7e0d3bd482687d3fab8c163642',
        '3346ec56590a64ac835c80093128b9c3347c180f4a22802a54b72ba85805346d'),
    'quadratic-gaussian-hybrid-bias-corrected': (
        'e549c9742e56b7d186516a7c5d87eb6b58fb80efb09bb0049a9306154d80661d',
        'c9a0b22749b471d1a04930af883d6f77d88262dfa85e622b31a094ba123c12e3',
        'e0a128e9d079474f310d89275212b0515b618b23700c84c15504c5ac3c7ce97b'),
    'quadratic-gaussian-hybrid-pre': (
        '93319f7fcbe2ce85bc268c2130268fbb6b84ff860defcd37cebab11811359855',
        'ba5af42ec5ff50ec545cf5e219e366de1c0f8d8023124cedc8ddf205d45e00fa',
        '3346ec56590a64ac835c80093128b9c3347c180f4a22802a54b72ba85805346d'),
    'quadratic-gaussian-sgd': (
        '38e125bb318e45749469b1bdf57197a17572d3a34fa3b725048ece89fad466d2',
        '162cddfde5be2e9d11c6d7ba30380ac3801a934b787a81e4ab90822beccd89e9',
        '4b253cfa4f04ce254472d37c654b9e0f21985fb2c6202754e2156e3a4612bd80'),
    'quadratic-gaussian-signsgd': (
        'e79385e1feb4ba757043603f88786880920d67f697f099263327efad5b911dd7',
        '8b5496d97cf5c4296d88ae43a8b413160f212fd07c993093094b75cd7f33089c',
        '2eca39725f9b489996699c2bd25015473ba6374ac0b3ab9799887f6933021579'),
    'quadratic-gaussian-signsgdm': (
        '2c5328cf53f12bee56ed23557cb6631e8e651216c9b67cb103f1bd74c73fad45',
        '4f9701acb4b2727fceb3897fc03cc39ea769c03072399d13bb0c8d0ab342dd5c',
        'de0de104b16b4aed78c968135f16c6c3993062991cfa0cc80f9656f64ee93b66'),
    'quadratic-laplace-dithered-post': (
        '8b8def59287580a308dfd1ae637d0f605ffeb4f97bd074208e9cdbdd55c697d4',
        '256005892e7f79cc503f770dad1459d5c55e44d2f8677aa78f2ec4ea2586fccb',
        '06b4d1753f52bd9be1629e4ab8dd1ebf60180b1dc4acbbf9448ed3e85c8c58f1'),
    'quadratic-laplace-dithered-pre': (
        'd36e3ff2f98ff7f0ffa71b30d059642c585e5ad95c538e0f8eea3ef6f33d4030',
        '0939ca32d7b3ba19f100141115e076c14cc36656db449c2b0e4f58e856f33cfa',
        '10fa84d2ef2abcde8b658cafd92dda3f5c52611f9aa9d2ea1197d3f40aa68f24'),
    'quadratic-laplace-hybrid': (
        '11eac0799582c2232b5a6afa557cc20108d223a25c607afa57b63326fda38445',
        '4e6e2bd2470f09f60d632e41b0b5960f363fa25708f6466fa76f1ecf51d0e497',
        '9de56c67eb4b3b6be16c4346679b4c793041eff3c2fa02f9b60e934897c726c6'),
    'quadratic-laplace-hybrid-bias-corrected': (
        '4d6f43b01029d9cc9d213460fb88193171aa67561b142e9d9fad975fe990fdae',
        '015cf91785a0c12a9d31b7f4ee7a5c912f940ef8393793866960ebbecdd96e09',
        '58a3bfab3979cc3aa516ea94cc9d6047e26bb68e69335255f0942fa6c787d67c'),
    'quadratic-laplace-hybrid-pre': (
        '11eac0799582c2232b5a6afa557cc20108d223a25c607afa57b63326fda38445',
        '6b86c763107588ccb61baa9604726f976a872e4968d5a19b21755be4b6b1381c',
        '9de56c67eb4b3b6be16c4346679b4c793041eff3c2fa02f9b60e934897c726c6'),
    'quadratic-laplace-sgd': (
        'b3c144caac6fdc8b8c6aa1814f5a0fbd82a4d1f10f3636b06a54dcdd53c24207',
        '526c83c7fc437d5c563a6a50c2f13df326cd5ea1f818441dc0d68ab69c7cb7c4',
        'a4acd6a7b802fac9f423da2898c554c1a3ec042097ebb0942df32135edec6fbe'),
    'quadratic-laplace-signsgd': (
        '825afc7dd860bc10cefdb3351f8bc8c9e171a7e5aa68f896dbd32a1c748db94e',
        'c7f4e068d00ba03c3c52e56b58b271086937da17d2ac42a60110c397b69f23bf',
        '35abbe99c51642a97bd91c1b076cce75b4552f8c62e98cdcef3db5d1d8f0e6e9'),
    'quadratic-laplace-signsgdm': (
        'd36e3ff2f98ff7f0ffa71b30d059642c585e5ad95c538e0f8eea3ef6f33d4030',
        '542973dd24e0aad77d6c3c95d96c471b7c2d81b9d5f0837cc5ada044e5b389d9',
        '10fa84d2ef2abcde8b658cafd92dda3f5c52611f9aa9d2ea1197d3f40aa68f24'),
    'quadratic-uniform-dithered-post': (
        '8a4576fca40df162b89483b656ac479fe488a23dba6eee2791a30c51c00521d3',
        '479f9a46cc7436dc53cbd6968b345741f04712b62054e765c32e02205b4f48b8',
        'e94b3744fdadeeaf7fc7689070e1ca14c11407654ded7d7bb16f6704020c2fe6'),
    'quadratic-uniform-dithered-pre': (
        '7cc9dfa158bb38dbc18b529e7652f91e0ed9f39809595305112c6d5085370c61',
        '92804e7ce8ce6a866cac8bf64ca3169f130938c0a406863dbdb9e6e66c78a90f',
        'b08509eff64570e8dba1f2f3ef584058e1e9ba74c0ffffab8b806ef2114b836a'),
    'quadratic-uniform-hybrid': (
        'd1c173ff0ba71fc1cb830e90e644b7eb287a0e77fb54eed0d83e5f11e8418676',
        'cee961028245ce289fc130a28660dc0aa91db69dba14cccef6595fd7de28e832',
        'fcd97fb550dd1429f501f00515e3702c56da85941acf0bdf81effc096eeec4cf'),
    'quadratic-uniform-hybrid-bias-corrected': (
        '20db7b07c0716a15d26498a431bce25d1f859ddcf99f6056384c56a9dd03a141',
        '0f64a7353fa531e8f70b457e699571cee0a671ec817342768198a2fc9ea20fd2',
        '7a8058b9fe127d2c9fe1d1af5aa9ac093a59700595a184ec2b888b0864aa3abb'),
    'quadratic-uniform-hybrid-pre': (
        'd1c173ff0ba71fc1cb830e90e644b7eb287a0e77fb54eed0d83e5f11e8418676',
        '35ac2fa463ed5035af1a2bc91ef54f4256dc6e05b91710cb99cbb6503af60353',
        'fcd97fb550dd1429f501f00515e3702c56da85941acf0bdf81effc096eeec4cf'),
    'quadratic-uniform-sgd': (
        '533329cb13d22af36069580746519f4b6bd4ed55c3509c659b2fadfd159e3e5c',
        'd34c2af2487e2b5ed5104b9f9b1a4f0b68974041321b7ec666c8dcc2cbc757c9',
        '5ae6a5c261b754402b7fa9c0b22db316bf7e184f826bfb9aeaff4cca45de0aa2'),
    'quadratic-uniform-signsgd': (
        '825afc7dd860bc10cefdb3351f8bc8c9e171a7e5aa68f896dbd32a1c748db94e',
        'c7f4e068d00ba03c3c52e56b58b271086937da17d2ac42a60110c397b69f23bf',
        '35abbe99c51642a97bd91c1b076cce75b4552f8c62e98cdcef3db5d1d8f0e6e9'),
    'quadratic-uniform-signsgdm': (
        '7cc9dfa158bb38dbc18b529e7652f91e0ed9f39809595305112c6d5085370c61',
        '67c763d7499ce16d9bd7c6287fd0b4b17f4519e956bcdd6d59bd213492718ce2',
        'b08509eff64570e8dba1f2f3ef584058e1e9ba74c0ffffab8b806ef2114b836a'),
}

SUITE_GOLDEN = {
    'switch-suite': 'f9f1f02fc6b33dcf454c1026368d515a69ea85cb75a63a472f51529c87170104',
    'switch-suite-decay': 'dd206abfc158225e9d55bd8d4123c078fa66c612a78d6487fc6dc3a88347b2d1',
    'switch-suite-diverging': 'c42928be3920b1f613ad57cbf3a33450502af9077c6c78b2a70b2416afc9c592',
    'switch-suite-grid-edges': '3fcbdcc71f803df73cdc4cf6b0a51b4c9b72baf5099db40e022f4d209726120f',
    'switch-suite-logistic': '1ddafca814764be6c7b08c345122cbe717f196bd449a047893b7a0781cb3e249',
    'switch-suite-pre-bias-corrected': '60ea9d1910705620cc0d32818cfa70782b677457eb45432c51647d3a221274bc',
    'theorem-suite': '387a3e06a8ce810849f65f4ad47e004ca9d02d951f620ae58064fb7533f2978e',
}


def test_every_multi_seed_case_is_pinned():
    assert set(MULTI_SEED_GOLDEN) == set(MULTI_SEED_CASES)
    assert set(SUITE_GOLDEN) == set(SUITES)


@pytest.mark.parametrize("name", sorted(MULTI_SEED_CASES))
def test_multi_seed_run_matches_golden_digests(name, tmp_path):
    iterates, csv, summary = multi_seed_digests(_multi_seed_config(name),
                                                tmp_path)
    expected = MULTI_SEED_GOLDEN[name]
    assert iterates == expected[0], "iterates changed"
    assert csv == expected[1], "CSV bytes changed"
    assert summary == expected[2], "summary floats changed"


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_report_matches_golden_digest(name):
    assert suite_digest(name) == SUITE_GOLDEN[name]


def _print_table(title, names, digests):
    print(f"{title} = {{")
    for name in names:
        values = digests(name)
        print(f"    {name!r}: (")
        print("\n".join(f"        {d!r}," for d in values[:-1]))
        print(f"        {values[-1]!r}),")
    print("}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        _print_table("GOLDEN", sorted(CASES),
                     lambda name: trajectory_digests(CASES[name], workdir))
        _print_table("MULTI_SEED_GOLDEN", sorted(MULTI_SEED_CASES),
                     lambda name: multi_seed_digests(
                         _multi_seed_config(name), workdir))
    print("SUITE_GOLDEN = {")
    for name in sorted(SUITES):
        print(f"    {name!r}: {suite_digest(name)!r},")
    print("}")
