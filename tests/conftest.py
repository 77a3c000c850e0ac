import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# run from a source checkout without installation
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

settings.register_profile(
    "wordcam",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
# the same, with many more examples, for the lowering properties alone:
# pytest tests/test_model.py -k "per_token_lowering or infer_traces_equal or
# adjoint" --hypothesis-profile=wordcam-deep
settings.register_profile("wordcam-deep", settings.get_profile("wordcam"), max_examples=2000)
settings.load_profile("wordcam")


@pytest.fixture
def tiny_setup():
    """A small single-channel model plus its channel config."""
    from wordcam.embed import InputMode, assemble, init_random
    from wordcam.model import ModelHyper, ModelParams

    def build(
        vocab_size=30,
        k=6,
        d=10,
        heights=(2, 3),
        n_filters=4,
        seed=0,
        dtype=np.float64,
    ):
        hyper = ModelHyper(
            k=k, d=d, heights=heights, n_filters=n_filters, n_channels=1
        )
        channel = init_random(vocab_size, k, seed=seed + 1, dtype=dtype)
        config = assemble(InputMode.RAND, rand=channel)
        params = ModelParams.init(hyper, seed=seed, dtype=dtype)
        return hyper, params, config

    return build
