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
        "magnetization.csv": "0b54804cd271a3b99417ee1a32694ed652f0172d7441366ef19d4a7ca5d4a2bf"
    },
    "magnetization_direct_whole_tree": {
        "magnetization.csv": "93b8b4ebd42f2d0097211d74de3b016a0dcb14f49d52e36c6369bb954d199950"
    },
    "magnetization_pruned": {
        "magnetization.csv": "aab4d8b53981aec1b4f3cb35abc4ffcc43a6555520918634b4ad5cb6436a93f9"
    },
    "capacity": {
        "capacity.csv": "e46a78c0204413df7975b338e92e32b1b112091fb2ed2096a4a5b7d9c2021c00",
        "capacity_summary.csv": "9aa79ba407950afbdfecc801aedf9cc0465c42f0e71606672fc177ba1f6c46a6"
    },
    "gamma": {
        "gamma_bounds.csv": "73d8e4bd696df67a895a6daf0bdfd7849a93e77333351b6c076c746883a350ab",
        "gamma_profile.csv": "81bb9fccf52508ec349507d1fb74a4d671ea361857447f434b68138407521a18"
    },
    "tv": {
        "tv.csv": "e1166e31e412dcc65dc101e6b373d1bbef4379c79dcc043b044b253a6cf9f947",
        "tv_summary.csv": "9e70e51206925c3a9418a89ac1654d25d340da28dddf099a8805d9438dd192e6"
    },
    "prune_demo": {
        "overlay.dot": "1c28914686437aef79404137577aeb8d6e7dcdef0dd3b4d62f7e15b7a72f4909",
        "pruned.json": "8c0b5d77a78f3c42b624f91cd875cf3329dfa91d64ecc239e8f794561ade3aea",
        "tree.json": "955249e9e9b3fe5d290068bc961916a837489a2378ec12603e7c59458a09745f"
    }
}
