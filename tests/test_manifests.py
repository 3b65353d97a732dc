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

CONFIG = "2114fdad757bec1835a3bfdf18805e3e47a5621b9e5da56ae58eb41cb0022eeb"

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
            "archive.csv": "0b7347eb1b327952edbe4cdef8536699ffcf23ea3ad13cde4e2018dca48552c7",
            "forecast.csv": "c923dae565bc9d2791999bd2ecf04a9b1d9c66a5d9d42f14ea1ca23afad6f604",
            "weights.txt": "ed89b276034b4c0da547e5dd9c4e6cfac0a4688f089cfb29712009af389508b9",
        },
    ),
    "forecast_random_forest": (
        ["forecast", "--model", "rf"],
        {"forecast.csv": "c923dae565bc9d2791999bd2ecf04a9b1d9c66a5d9d42f14ea1ca23afad6f604"},
    ),
    "forecast_lstm_xgb": (
        ["forecast", "--model", "lstm-xgb"],
        {"forecast.csv": "d710f0f9aab1248cf6f520d44c817c31eab3af0735c9fcbfdeb7e45ddd531dd9"},
    ),
    "train": (
        ["train"],
        {
            "model_bilstm.npz": "638b042eff53a59ff7da928dbf9ba28728b00c21299bb13389b34cb6819ad4e9",
            "model_cnn_gru.npz": "3bd7a6c2119fb0b979f8a947e89ae60600c0d0fc5f5e64ec451353fccf82c4a3",
            "model_lstm_xgb.npz": "e5a0b60e16325db61a5d99efbf9cb0f245e4c726a8213c8416435b4e5a885b78",
            "model_random_forest.npz": (
                "269e63c4abd99ffcb6a4c25e838b17e9dc64c124a00de189ca690358ec0460a4"
            ),
        },
    ),
    "cv": (
        ["cv", "--folds", "3"],
        {"cv_scores.csv": "a9267b3469cb5bb37dd92561c0528adcde2e39d0948fa5e6fb5779188c6cf5bd"},
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
