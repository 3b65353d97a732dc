"""Recurrent and convolutional building blocks with hand-written backprop.

Everything runs in float32, the dtype ``DTYPE`` names: parameters,
gradients, workspace arrays and the temporaries of a pass. A layer owns its
parameter and gradient arrays alone; inside a net they are views of the
net's ``theta``/``grad``.
``forward`` returns the output sequence plus a cache, and ``backward`` takes
the gradient w.r.t. that sequence, accumulates parameter gradients and
returns the gradient w.r.t. the input. Shapes are (batch, time, features).

The recurrent layers start from the all-zero state, so at t = 0 they skip
every matmul that meets it: the state's product with the recurrent weights
in the forward step, and in the backward step the recurrent-weight gradient
(``h_prev.T @ da``, which would only add zeros) and the gradient passed to
the state before t = 0 (``da @ wh.T``, which nothing reads). The LSTM runs
its three sigmoid gates as one call on the fused pre-activation block
``ifo``, the ``(batch, 3 * hidden)`` gate values in (i, f, o) order. These
rewrites give the same bits as the plain per-gate loops.

A forward pass writes its per-step cache into arrays of shape
``(steps, batch, ...)``: for the LSTM ``ifo``, ``g``, ``tanh(c)`` and the
states ``c`` and ``h`` (row t + 1 holding the state after step t), for the
GRU ``u``, ``r``, ``hr``, ``cand`` and ``h`` side by side. A recurrent
layer's output sequence is a (batch, steps, hidden) view of its ``h``.
The convolution keeps
its windows and output in such arrays, the BiLSTM its joined output.
``forward`` takes an optional ``workspace``, a dict that a training loop
keeps for the length of one fit: ``buffer`` hands out the array stored
under the layer, a name and the shape, so the steps of a fit reuse one set
of arrays per batch shape, and the allocator no longer hands that memory
back to the OS and faults it in again at every step. Each ``backward``
must follow its own ``forward`` before the next ``forward`` on the same
workspace, and the workspace is dropped when the fit returns. Without one
(``predict``, direct calls) every array is fresh, so no call's output
shares memory with another's.
"""

from __future__ import annotations

import numpy as np

from ..errors import GranucastError


class DimensionMismatch(GranucastError):
    pass


class SequenceTooShort(GranucastError):
    pass


# the nets' one floating dtype; read at call time, so that a test can swap in
# float64
DTYPE = np.float32


def buffer(workspace: dict | None, key, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised ``DTYPE`` array of ``shape``: the one ``workspace``
    keeps under ``(key, shape)``, made on first use, or a fresh one when
    there is no workspace."""
    if workspace is None:
        return np.empty(shape, DTYPE)
    array = workspace.get((key, shape))
    if array is None:
        array = workspace[key, shape] = np.empty(shape, DTYPE)
    return array


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # e = exp(-|z|) <= 1 never overflows; the numerator is 1 where z >= 0 and
    # e below, so this is 1 / (1 + exp(-z)) and exp(z) / (1 + exp(z)) on the
    # two sides, operation for operation
    e = np.abs(z, out=np.empty(z.shape, z.dtype))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, z >= 0, out=np.empty(z.shape, z.dtype) if out is None else out)
    e += 1.0
    out /= e
    return out


class Layer:
    """Common parameter/gradient bookkeeping."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def _register(self, name: str, shape: tuple[int, ...]):
        self.params[name] = np.zeros(shape, DTYPE)
        self.grads[name] = np.zeros(shape, DTYPE)

    def init_weights(self, rng: np.random.Generator, scale: float = 0.08):
        """Uniform(-scale, scale) weights; bias vectors stay zero."""
        for name, value in self.params.items():
            if not name.rsplit("_", 1)[-1].startswith("b"):
                value[...] = rng.uniform(-scale, scale, size=value.shape)

    def bind(self, theta: np.ndarray, grad: np.ndarray, offset: int) -> int:
        """Replace the entries, in dict order, by views of ``theta``/``grad`` (and
        so their values) from ``offset`` on; returns the offset after the last."""
        for name, value in self.params.items():
            self.params[name] = theta[offset : offset + value.size].reshape(value.shape)
            self.grads[name] = grad[offset : offset + value.size].reshape(value.shape)
            offset += value.size
        return offset


class LSTMLayer(Layer):
    """Single-direction LSTM; gate order within fused weights is (i, f, o, g)."""

    def __init__(self, in_dim: int, hidden: int):
        super().__init__()
        self.in_dim = in_dim
        self.hidden = hidden
        self._register("wx", (in_dim, 4 * hidden))
        self._register("wh", (hidden, 4 * hidden))
        self._register("b", (4 * hidden,))

    def forward(self, x: np.ndarray, workspace: dict | None = None):
        if x.shape[2] != self.in_dim:
            raise DimensionMismatch(f"expected input width {self.in_dim}, got {x.shape[2]}")
        batch, steps, _ = x.shape
        hdim = self.hidden
        wx, wh, b = self.params["wx"], self.params["wh"], self.params["b"]
        ifo = buffer(workspace, (self, "ifo"), (steps, batch, 3 * hdim))
        g = buffer(workspace, (self, "g"), (steps, batch, hdim))
        tanh_c = buffer(workspace, (self, "tanh_c"), (steps, batch, hdim))
        c = buffer(workspace, (self, "c"), (steps + 1, batch, hdim))
        h = buffer(workspace, (self, "h"), (steps + 1, batch, hdim))
        c[0] = 0.0
        h[0] = 0.0
        for t in range(steps):
            a = x[:, t, :] @ wx
            if t:
                a += h[t] @ wh
            a += b
            ifo_t, g_t, tanh_c_t, c_t = ifo[t], g[t], tanh_c[t], c[t + 1]
            sigmoid(a[:, : 3 * hdim], out=ifo_t)
            np.tanh(a[:, 3 * hdim :], out=g_t)
            np.multiply(ifo_t[:, hdim : 2 * hdim], c[t], out=c_t)
            c_t += ifo_t[:, :hdim] * g_t
            np.tanh(c_t, out=tanh_c_t)
            np.multiply(ifo_t[:, 2 * hdim :], tanh_c_t, out=h[t + 1])
        # the states as a (batch, steps, hidden) view
        return h[1:].transpose(1, 0, 2), (x, h, c, ifo, g, tanh_c)

    def backward(self, d_h_seq: np.ndarray, cache) -> np.ndarray:
        batch, steps, _ = d_h_seq.shape
        hdim = self.hidden
        wx, wh = self.params["wx"], self.params["wh"]
        dx = np.empty((batch, steps, self.in_dim), DTYPE)
        dh_next = np.zeros((batch, hdim), DTYPE)
        dc_next = np.zeros((batch, hdim), DTYPE)
        # gradient w.r.t. the fused pre-activation, gate order (i, f, o, g)
        da = np.empty((batch, 4 * hdim), DTYPE)
        d_ifo, dg = da[:, : 3 * hdim], da[:, 3 * hdim :]
        x, h, c, ifo_seq, g_seq, tanh_c_seq = cache
        for t in reversed(range(steps)):
            x_t, h_prev, c_prev = x[:, t, :], h[t], c[t]
            ifo, g, tanh_c = ifo_seq[t], g_seq[t], tanh_c_seq[t]
            i, f, o = ifo[:, :hdim], ifo[:, hdim : 2 * hdim], ifo[:, 2 * hdim :]
            dh = np.add(d_h_seq[:, t, :], dh_next, out=dh_next)
            # dc = dc_next + dh * o * (1 - tanh_c**2), the product left to right
            dc = dh * o
            dc *= 1.0 - np.square(tanh_c)
            dc += dc_next
            np.multiply(dc, g, out=d_ifo[:, :hdim])
            np.multiply(dc, c_prev, out=d_ifo[:, hdim : 2 * hdim])
            np.multiply(dh, tanh_c, out=d_ifo[:, 2 * hdim :])
            d_ifo *= ifo
            d_ifo *= 1.0 - ifo
            np.multiply(dc, i, out=dg)
            dg *= 1.0 - g**2
            np.multiply(dc, f, out=dc_next)
            self.grads["wx"] += x_t.T @ da
            self.grads["b"] += da.sum(axis=0)
            dx[:, t, :] = da @ wx.T
            if t:
                self.grads["wh"] += h_prev.T @ da
                dh_next = da @ wh.T
        return dx


class BiLSTMLayer(Layer):
    """Two LSTMs run over the sequence in opposite directions.

    Output at step t is the forward state at t concatenated with the
    backward state at t, so the final forward state sits at the last step
    and the final backward state at the first.
    """

    def __init__(self, in_dim: int, hidden: int):
        super().__init__()
        self.in_dim = in_dim
        self.hidden = hidden
        self.fwd = LSTMLayer(in_dim, hidden)
        self.bwd = LSTMLayer(in_dim, hidden)
        for name in self.fwd.params:
            for prefix, direction in (("fwd", self.fwd), ("bwd", self.bwd)):
                self.params[f"{prefix}_{name}"] = direction.params[name]
                self.grads[f"{prefix}_{name}"] = direction.grads[name]

    def bind(self, theta: np.ndarray, grad: np.ndarray, offset: int) -> int:
        offset = super().bind(theta, grad, offset)  # fwd_wx, bwd_wx, fwd_wh, ...
        for prefix, direction in (("fwd", self.fwd), ("bwd", self.bwd)):
            direction.params = {name: self.params[f"{prefix}_{name}"] for name in direction.params}
            direction.grads = {name: self.grads[f"{prefix}_{name}"] for name in direction.grads}
        return offset

    def forward(self, x: np.ndarray, workspace: dict | None = None):
        h_fwd, cache_f = self.fwd.forward(x, workspace)
        h_bwd_rev, cache_b = self.bwd.forward(x[:, ::-1, :], workspace)
        h_bwd = h_bwd_rev[:, ::-1, :]
        out = buffer(workspace, (self, "out"), (*h_fwd.shape[:2], 2 * self.hidden))
        return np.concatenate([h_fwd, h_bwd], axis=2, out=out), (cache_f, cache_b)

    def backward(self, d_h_seq: np.ndarray, cache) -> np.ndarray:
        cache_f, cache_b = cache
        hdim = self.hidden
        dx_f = self.fwd.backward(d_h_seq[:, :, :hdim], cache_f)
        dx_b_rev = self.bwd.backward(d_h_seq[:, ::-1, hdim:], cache_b)
        return dx_f + dx_b_rev[:, ::-1, :]


class GRULayer(Layer):
    """GRU with the update gate blending old state against the candidate.

    State recursion: h = (1 - u) * h_prev + u * cand where
    u = sigmoid(update gate), cand = tanh over (reset-scaled h_prev, x).
    """

    def __init__(self, in_dim: int, hidden: int):
        super().__init__()
        self.in_dim = in_dim
        self.hidden = hidden
        for gate in ("u", "r", "c"):
            self._register(f"w{gate}x", (in_dim, hidden))
            self._register(f"w{gate}h", (hidden, hidden))
            self._register(f"b{gate}", (hidden,))

    def _pre(self, gate: str, h_prev: np.ndarray | None, x_t: np.ndarray) -> np.ndarray:
        """``h_prev @ w{gate}h + x_t @ w{gate}x + b{gate}``; ``None`` is the zero state."""
        p = self.params
        a = x_t @ p[f"w{gate}x"]
        if h_prev is not None:
            a += h_prev @ p[f"w{gate}h"]
        a += p[f"b{gate}"]
        return a

    def step(self, h_prev: np.ndarray | None, x_t: np.ndarray, out: np.ndarray | None = None):
        """One cell application; returns the new state.

        ``h_prev=None`` stands for the all-zero initial state, whose matmuls
        are skipped. ``u``, ``r``, ``hr``, ``cand`` and the new state are
        written into ``out``, a (5, batch, hidden) array, fresh if not given.
        """
        u, r, hr, cand, h = np.empty((5, len(x_t), self.hidden), DTYPE) if out is None else out
        sigmoid(self._pre("u", h_prev, x_t), out=u)
        sigmoid(self._pre("r", h_prev, x_t), out=r)
        first = h_prev is None
        if first:
            h_prev = np.zeros_like(u)
        np.multiply(r, h_prev, out=hr)
        np.tanh(self._pre("c", None if first else hr, x_t), out=cand)
        # h = (1 - u) * h_prev + u * cand, whose two terms add alike in either order
        np.multiply(u, cand, out=h)
        h += (1.0 - u) * h_prev
        return h

    def forward(self, x: np.ndarray, workspace: dict | None = None):
        if x.shape[2] != self.in_dim:
            raise DimensionMismatch(f"expected input width {self.in_dim}, got {x.shape[2]}")
        batch, steps, _ = x.shape
        cells = buffer(workspace, (self, "cells"), (steps, 5, batch, self.hidden))
        h = None
        for t in range(steps):
            h = self.step(h, x[:, t, :], cells[t])
        # the states as a (batch, steps, hidden) view
        return cells[:, 4].transpose(1, 0, 2), (x, cells)

    def backward(self, d_h_seq: np.ndarray, cache) -> np.ndarray:
        batch, steps, _ = d_h_seq.shape
        p, g = self.params, self.grads
        dx = np.empty((batch, steps, self.in_dim), DTYPE)
        dh_next = np.zeros((batch, self.hidden), DTYPE)
        x, cells = cache
        for t in reversed(range(steps)):
            x_t, (u, r, hr, cand) = x[:, t, :], cells[t, :4]
            h_prev = cells[t - 1, 4] if t else np.zeros_like(u)
            dh = np.add(d_h_seq[:, t, :], dh_next, out=dh_next)
            # dcin = dh * u * (1 - cand**2), drin = dhr * h_prev * r * (1 - r) and
            # duin = dh * (cand - h_prev) * u * (1 - u), each product taken left
            # to right in place, so that few (batch, hidden) temporaries coexist
            dcin = dh * u
            dcin *= 1.0 - np.square(cand)
            dhr = dcin @ p["wch"].T
            drin = dhr * h_prev
            drin *= r
            drin *= 1.0 - r
            duin = np.subtract(cand, h_prev)
            duin *= dh
            duin *= u
            duin *= 1.0 - u
            for gate, d_in in (("c", dcin), ("r", drin), ("u", duin)):
                g[f"w{gate}x"] += x_t.T @ d_in
                g[f"b{gate}"] += d_in.sum(axis=0)
            dx[:, t, :] = dcin @ p["wcx"].T + drin @ p["wrx"].T + duin @ p["wux"].T
            if t:
                g["wch"] += hr.T @ dcin
                g["wrh"] += h_prev.T @ drin
                g["wuh"] += h_prev.T @ duin
                # dh * (1 - u) + dhr * r + drin @ wrh.T + duin @ wuh.T, summed
                # left to right in place
                dh_next = dh * (1.0 - u)
                dh_next += dhr * r
                dh_next += drin @ p["wrh"].T
                dh_next += duin @ p["wuh"].T
        return dx


class Conv1dLayer(Layer):
    """Valid (no padding) 1-D convolution over time, tanh nonlinearity."""

    def __init__(self, in_dim: int, channels: int, kernel: int = 3):
        super().__init__()
        self.in_dim = in_dim
        self.channels = channels
        self.kernel = kernel
        self._register("k", (kernel, in_dim, channels))
        self._register("b", (channels,))

    def forward(self, x: np.ndarray, workspace: dict | None = None):
        batch, steps, width = x.shape
        if width != self.in_dim:
            raise DimensionMismatch(f"expected input width {self.in_dim}, got {width}")
        if steps < self.kernel:
            raise SequenceTooShort(f"sequence length {steps} < kernel size {self.kernel}")
        out_steps = steps - self.kernel + 1
        windows = np.stack(
            [x[:, tau : tau + out_steps, :] for tau in range(self.kernel)],
            axis=2,
            out=buffer(workspace, (self, "windows"), (batch, out_steps, self.kernel, width)),
        )
        # (batch, out_steps, kernel*in_dim) view of the sliding windows
        flat = windows.reshape(batch, out_steps, self.kernel * self.in_dim)
        out = buffer(workspace, (self, "out"), (batch, out_steps, self.channels))
        np.matmul(flat, self.params["k"].reshape(-1, self.channels), out=out)
        out += self.params["b"]
        np.tanh(out, out=out)
        return out, (flat, out, steps)

    def backward(self, d_out: np.ndarray, cache) -> np.ndarray:
        flat, out, steps = cache
        batch, out_steps, _ = d_out.shape
        dpre = d_out * (1.0 - out**2)
        kmat = self.params["k"].reshape(-1, self.channels)
        self.grads["k"] += (
            flat.reshape(-1, kmat.shape[0]).T @ dpre.reshape(-1, self.channels)
        ).reshape(self.params["k"].shape)
        self.grads["b"] += dpre.sum(axis=(0, 1))
        dflat = dpre @ kmat.T
        dwindows = dflat.reshape(batch, out_steps, self.kernel, self.in_dim)
        dx = np.zeros((batch, steps, self.in_dim), DTYPE)
        for tau in range(self.kernel):
            dx[:, tau : tau + out_steps, :] += dwindows[:, :, tau, :]
        return dx


class DenseHead(Layer):
    """Affine map from a feature vector to a scalar prediction."""

    def __init__(self, in_dim: int):
        super().__init__()
        self.in_dim = in_dim
        self._register("w", (in_dim,))
        self._register("b", ())

    def forward(self, feat: np.ndarray):
        if feat.shape[1] != self.in_dim:
            raise DimensionMismatch(f"expected feature width {self.in_dim}, got {feat.shape[1]}")
        return feat @ self.params["w"] + self.params["b"], feat

    def backward(self, d_pred: np.ndarray, feat: np.ndarray) -> np.ndarray:
        self.grads["w"] += feat.T @ d_pred
        self.grads["b"] += d_pred.sum()
        return np.outer(d_pred, self.params["w"])


def clip_gradients(layers, max_norm: float):
    """Scale all gradients in place so their global L2 norm is <= max_norm."""
    total = 0.0
    for layer in layers:
        for g in layer.grads.values():
            total += float((g**2).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for layer in layers:
            for g in layer.grads.values():
                g *= factor
    return norm
