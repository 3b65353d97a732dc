"""Golden manifests: seven CLI runs whose every output must keep its bytes.

A refactor that claims to change no output proves it here. Each run goes
through ``cli.main`` on a 5,400-sample synthetic series (seed 5) with
``--preset desk --seed 5`` and the cheap settings of
``perfbench/selfcheck.py``, and its ``manifest.txt`` (config hash plus one
SHA-256 per artifact) must match the digests below. The series has
``synth``'s default 1% of gaps, mostly isolated, except for the run that
names its own ``synth`` options: at ``--gap-fraction 0.4`` the series has
1,306 gap runs of up to 15 samples, 495 of them split by a single observed
sample.

The digests belong to one numpy build: scipy-openblas 0.3.31 with
DYNAMIC_ARCH, on x86-64. Another BLAS or kernel choice may move the last bit
of a float and every digest after it. A change that alters outputs on
purpose re-records the digests and says so in CHANGES.md.
"""

import pytest

from granucast.cli import main

SAMPLES = 5400
SEED = 5
CHEAP_CONFIG = """\
learners.epochs = 3
learners.batch_size = 32
learners.boosting_rounds = 10
learners.tree_count = 10
optimizer.population = 16
optimizer.iterations = 10
"""

CONFIG = "2ee2a47ae116449b75fc9b2eccd5e8493ce58a1c903911759da4693b958986fd"

# run name -> (command arguments, {artifact: sha256})
GOLDEN = {
    "granulate": (
        ["granulate"],
        {
            "features.csv": "2241768cd3c9b2e8ab3d2cff28827d7bc540d8c0967512e4b4b3065650a7b7f6",
            "granules.csv": "16d685874289c34282062bae0879d0e806f429b062cc6390b20e2e85db2de545",
        },
    ),
    "granulate_dense_gaps": (
        ["granulate"],
        {
            "features.csv": "1fa6614e42ed225593622c7065203d506a82ffb3d6a8234c34c36270ff21cd47",
            "granules.csv": "59d2369739d1edc59b4cb2ed6401d6380196288105f65a6332417e90434bf57d",
        },
    ),
    "forecast": (
        ["forecast"],
        {
            "archive.csv": "2c7a452b87bd22b5793786f09b1f2cbd2db7467f9cca5213705a6190c5cc0370",
            "forecast.csv": "54531588ea1e9211ace800cf33522a212181b729db62c5f0c8222dee7e3f167b",
            "weights.txt": "012830c5b0912fa4197a47f7eba8617b1e34f49a5c534c8c55b1feb78722d862",
        },
    ),
    "forecast_random_forest": (
        ["forecast", "--model", "rf"],
        {"forecast.csv": "54531588ea1e9211ace800cf33522a212181b729db62c5f0c8222dee7e3f167b"},
    ),
    "forecast_lstm_xgb": (
        ["forecast", "--model", "lstm-xgb"],
        {"forecast.csv": "c6ecf79d7caadc7e49b53a90fe1b2c162a9d44e74fae1ad2f8c8d6245d12dd6d"},
    ),
    "train": (
        ["train"],
        {
            "model_bilstm.npz": "e5f640f2788fc952537aedf03ae32e3beb971dc3d3df92dcb5c0f706634625e9",
            "model_cnn_gru.npz": "e7fae7f27c0fba47903ecdaef2b6c211bd41d42a417a8ae5dc4432d259055152",
            "model_lstm_xgb.npz": "de2955156e7f5c145847bca1696f945bbc2c702bdf0c0fff0b056aae1292d129",
            "model_random_forest.npz": (
                "00a588839829c30025cfc03603b4281865ab91b2abe61b46d61289a6c0ca413e"
            ),
        },
    ),
    "cv": (
        ["cv", "--folds", "3"],
        {"cv_scores.csv": "864662377e8d174f95e8a77d056752efbf26104473a3eaf2162a756079690220"},
    ),
}

# run name -> extra ``synth`` options for its input series
SYNTH_OPTIONS = {"granulate_dense_gaps": ("--gap-fraction", "0.4")}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The series each set of ``synth`` options makes, and the cheap config."""
    root = tmp_path_factory.mktemp("golden")
    conf = root / "cheap.conf"
    conf.write_text(CHEAP_CONFIG)
    series = {}
    for options in {(), *SYNTH_OPTIONS.values()}:
        out = root / f"series{len(series)}"
        base = ["synth", "--samples", str(SAMPLES), "--seed", str(SEED), "--out", str(out)]
        assert main([*base, *options]) == 0
        series[options] = out / "data.csv"
    return series, conf


@pytest.mark.parametrize("name", GOLDEN)
def test_manifest_matches_the_recorded_digests(name, inputs, tmp_path):
    series, conf = inputs
    data = series[SYNTH_OPTIONS.get(name, ())]
    argv, artifacts = GOLDEN[name]
    common = ["--preset", "desk", "--seed", str(SEED), "--config", str(conf)]
    assert main([*argv, *common, "--data", str(data), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert lines[0] == f"config_sha256 = {CONFIG}"
    got = {file: digest for digest, file in (line.split("  ", 1) for line in lines[1:])}
    assert got == {"config.txt": CONFIG, **artifacts}
