"""Frozen calibration fixtures.

The transition-bound constants are existential in the theory, so they are
fitted once per base offspring law at a moderate configuration
(n = 30, p_n = 2^-15, q = 2, 10% margin) and then asserted unchanged on the
larger acceptance grids.  The magnetization/capacity ratio interval is the
min/max over a 3200-instance calibration corpus (seed 12345); acceptance
re-runs a fresh-seed corpus and requires containment in the interval widened
by 10% of its width.

Regenerate with ``python tests/generate_frozen.py`` after any algorithmic
change, and review the diff.

``OUTPUT_DIGESTS`` holds the sha256 of every output file of the small fixed
CLI runs in ``generate_frozen.OUTPUT_RUNS``, so a refactor that changes any
output byte shows up.  Regenerate with
``python tests/generate_frozen.py --outputs`` only for a change that is meant
to alter outputs, and say which values moved and by how much.  The float
digits come from numpy's elementwise math on x86-64 Linux; a numpy build
with other exp/log kernels may round some values differently.
"""

CALIBRATED = {
    "dirac2": {
        "C_mu": 0.5000000000699991, "C_v": 1.640132186937239,
        "c4": 1.8000274663791187, "c5": 9.598025513956427,
        "c6": 0.27499999993597146, "c7_prime": 0.568913555065257,
        "c8": 1.1, "c_q": 0.25000000003499956,
        "calibration_n": 30, "calibration_p_n": 3.0517578125e-05,
        "margin": 0.1, "q": 2.0,
    },
    "half13": {
        "C_mu": 0.7499375005439167, "C_v": 3.2993529455578394,
        "c4": 0.653968842987543, "c5": 1.2164789370957432,
        "c6": 0.41250419614298134, "c7_prime": 0.49172919092819484,
        "c8": 1.1000203149788697, "c_q": 0.2999750002175667,
        "calibration_n": 30, "calibration_p_n": 3.0517578125e-05,
        "margin": 0.1, "q": 2.0,
    },
}

# r_root / capa_{3/2} over the ratio corpus (both base laws, beta in
# {0.8, 1.2}, depths 3..6, resistances tanh(beta)^{-depth}).
RATIO_CORPUS_SEED = 12345
RATIO_INTERVAL = (2.634736085279476, 3.7568764664108887)

OUTPUT_DIGESTS = {
    "magnetization_direct_leaves_only": {
        "magnetization.csv": "96340e66c6ffa08c2f591024c7021205e8cccbfb56d69d971e4801e5bdfff131"
    },
    "magnetization_direct_whole_tree": {
        "magnetization.csv": "2f810daa39d5b302e91ffc217a38d10175c9287588bfe22abe046da292e60842"
    },
    "magnetization_pruned": {
        "magnetization.csv": "9f73fb1595689f0755ad7b085d74f1ac250cf81a067b861f6c9bfc593f77d4aa"
    },
    "capacity": {
        "capacity.csv": "9b5a1ec69064bc0652f28fc310a48e6e4ba385d5e9f87d2a2d8e5939feddc7ea",
        "capacity_summary.csv": "ae338ecdb7314e7909156d5f0ddea7231f468e2c1e3a4c10508f8fb246d274d6"
    },
    "magnetization_pruned_n14": {
        "magnetization.csv": "95153a6052b9c8494684e438a88453b9c35ad4c34b96002c32538b691df79d07"
    },
    "capacity_n14": {
        "capacity.csv": "3c28d56261c199302c33eb9044102df6f11124e85bc9320e4d9ad6b86a395b55",
        "capacity_summary.csv": "091db57f9646c0bf8c53009215e22652aeaf5584c60a0968085e51c2c000cc8a"
    },
    "gamma": {
        "gamma_bounds.csv": "73d8e4bd696df67a895a6daf0bdfd7849a93e77333351b6c076c746883a350ab",
        "gamma_profile.csv": "81bb9fccf52508ec349507d1fb74a4d671ea361857447f434b68138407521a18"
    },
    "tv": {
        "tv.csv": "e1166e31e412dcc65dc101e6b373d1bbef4379c79dcc043b044b253a6cf9f947",
        "tv_summary.csv": "9e70e51206925c3a9418a89ac1654d25d340da28dddf099a8805d9438dd192e6"
    },
    "gamma_uniform8": {
        "gamma_bounds.csv": "e68aefeefa53d954527a20a305a88c0dc803726aba42bfb435aa7654ad981184",
        "gamma_profile.csv": "e050677ee22670a5655e77b70fddc34be239648060fe0cc9c6bd8881169a92b9"
    },
    "tv_uniform8": {
        "tv.csv": "66f37dd5bf9169dad33a9cd27ee9ff256ea1f71d2453c5f8fab0f5d45ddf317c",
        "tv_summary.csv": "57189810599df050e871f9c71aa7a490fe114df8532a1dd3ac7ba3565412f098"
    },
    "gamma_half13": {
        "gamma_bounds.csv": "768cbc12d80b760c5f5fea4196073502139ce7243aab1e9e45cca91bd3148d69",
        "gamma_profile.csv": "8ce2f1cc0269922e48d2ebc5eed1e1646dd9e040856b72cd47a4cbfd18b3482b"
    },
    "tv_half13": {
        "tv.csv": "3f6e1211f575e9a45a29b725a60e1c18949c43568b8d5cbbdbcc28a70cdc7828",
        "tv_summary.csv": "e10948c909b122455183d3fe2b305cc472c213273f5094b169f3544faf5ca95b"
    },
    "prune_demo": {
        "overlay.dot": "5857fe91cd1e2e524e7e5f1dce01a70a5fe57886c766067a3e360f8e6244426a",
        "pruned.json": "a0f6d851341c0bb394a9546ce39917a97cf2316bc626bef25e3aa775f92703c3",
        "tree.json": "955249e9e9b3fe5d290068bc961916a837489a2378ec12603e7c59458a09745f"
    },
    "validate": {
        "validation.json": "da94e04e3e6e5b3d5d11340a459785f92314b91f1bee0bfea3bdff9418be7e78"
    }
}
