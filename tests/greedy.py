"""The greedy pass one `Mlp.forward` per step: the reference for
`env.run_policy`, which computes the same logits many rows per call.

It steps a `Stepper` over the episode, taking at every step the action of
the largest logit of `actor` on the Stepper's observation, and scores it
as `stepped_trace` does.
"""

from activelp.env import EpisodeTrace
from stepper import stepped_episode


def stepped_policy(env, actor) -> EpisodeTrace:
    """The trace of the greedy episode of `actor` over `env.config`; `env`
    itself is not stepped."""
    return stepped_episode(env.config, lambda step, obs: int(
        actor.forward(obs[None, None, :])[0, 0].argmax()))[0]
