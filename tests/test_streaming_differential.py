"""Differential tests: the streaming driver vs the compiled chase.

The streaming executor feeds the compiled round loop lazily, restricted to
the backward slice of the outputs.  For every workload family of the shared
registry (``tests/differential_harness.py``):

* a **cold** ``reason(executor="streaming")`` is one batch, so its answers
  agree with ``compiled`` at all three levels on all 20 scenarios —
  ground-exact, null patterns and the full iso profile (no exemption);
* a run **completed after partial pulls** — ``first_answer()``, some
  ``iter_answers()`` steps, ``complete()`` — received its input in several
  batches (1, 2, 4, … rows per source): ground answers and null patterns
  must still agree; the iso multiplicities may differ, as after a resident
  upsert (batches change the order in which Algorithm 1's pruning meets
  homomorphically equivalent witnesses).
"""

import random

import pytest

from differential_harness import (
    answer_profile,
    assert_profiles_match,
    scenario_names,
)


class TestStreamingMatchesCompiled:
    @pytest.mark.parametrize("name", scenario_names())
    def test_same_answers(self, name):
        reference = answer_profile(name, "compiled")
        candidate = answer_profile(name, "streaming")
        assert_profiles_match(name, reference, candidate, check_iso=True)

    @pytest.mark.parametrize("name", scenario_names())
    def test_batch_invariance(self, name):
        reference = answer_profile(name, "compiled")
        rng = random.Random(name)  # a seeded split per scenario
        for steps in (0, rng.randrange(1, 8), rng.randrange(8, 200)):
            candidate = answer_profile(name, "streaming", lazy_steps=steps)
            assert_profiles_match(
                name, reference, candidate, check_iso=False, label=f"{steps} steps"
            )
