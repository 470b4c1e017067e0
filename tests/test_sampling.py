"""The narrow-scalar sampler against the two-``randint`` draw it replaces."""

import random

from dirichlet_ring.sampling import random_scalar

from oracles import randint_scalar


def test_random_scalar_matches_two_randint_draws():
    # the sampler repeats randint's rejection on getrandbits, so both the
    # values and the generator's final state must agree with randint's
    ours, ref = random.Random(20240), random.Random(20240)
    assert [random_scalar(ours) for _ in range(200_000)] == [
        randint_scalar(ref) for _ in range(200_000)
    ]
    assert ours.getstate() == ref.getstate()
