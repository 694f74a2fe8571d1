"""The cached forward and the backward pass of one `ppo.Mlp` population on
its own, as the gradient checks use them. The trainer runs only the
actor-critic pair's (`ppo._ActorCritic`), which shares the hidden-layer
loops below."""

import numpy as np

from activelp import ppo


def forward_cached(net, x: np.ndarray):
    """The output of `net` on x, (A, n, n_in), and the cache that
    `backward` reads."""
    net._check_input(x)
    pre, act = ppo._hidden_forward(x, net._hidden, net._act)
    return act[-1] @ net.weights[-1] + net.biases[-1], (pre, act)


def backward(net, cache, grad_out: np.ndarray) -> np.ndarray:
    """Gradient of sum(grad_out * output) w.r.t. each network's parameters,
    laid out like `theta` (see `Mlp.views`)."""
    pre, act = cache
    grad = np.empty(net.theta.shape)
    views = net.views(grad)
    ppo._layer_backward(act[-1], grad_out, *views[-2:])
    if net._hidden:
        ppo._hidden_backward(grad_out @ net.weights[-1].swapaxes(-1, -2), net._hidden, pre,
                             act, net._act_grad, list(zip(views[:-2:2], views[1:-2:2])))
    return grad
