"""The greedy pass one `Mlp.forward` per step: the reference for
`env.run_policy`, which computes the same logits many rows per call.

It decides every step with `LPEnv.advance`, taking the action of the
largest logit of `actor` on the observation that `reset` or the last
`advance` returned, then scores the whole episode with one `_trace` call.
"""

from activelp.env import EpisodeTrace, LPEnv


def stepped_policy(env: LPEnv, actor) -> EpisodeTrace:
    obs = env.reset()
    for _ in range(env.n_steps):
        obs, _ = env.advance(int(actor.forward(obs[None, None, :])[0, 0].argmax()))
    trace = env._trace(0, env.n_steps)
    trace.action = trace.action.copy()
    return trace
