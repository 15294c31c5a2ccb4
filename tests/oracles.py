"""Independent brute-force references used by the tests.

Everything here is written the slow, obvious way (explicit loops,
textbook formulas) and shares no code with the package internals it
checks.  Keep it that way: a test that compares a fast path against
these is only worth something while the two routes stay independent.
"""

import math

import numpy as np

from pswa.errors import ConfigurationError, DegenerateMapError, DimensionError


def brute_attention_distance(attn_map, grid_width):
    """Row/col distance by looping over every (query, key) pair."""
    a = np.asarray(attn_map, dtype=np.float64)
    n = a.shape[0]
    total = 0.0
    row_acc = 0.0
    col_acc = 0.0
    for i in range(n):
        for j in range(n):
            ri, ci = i // grid_width, i % grid_width
            rj, cj = j // grid_width, j % grid_width
            total += a[i, j]
            row_acc += a[i, j] * abs(rj - ri)
            col_acc += a[i, j] * abs(cj - ci)
    return row_acc / total, col_acc / total


def brute_dft2(image):
    """O(N^4) two-dimensional DFT, straight from the definition."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    out = np.zeros((h, w), dtype=np.complex128)
    for u in range(h):
        for v in range(w):
            acc = 0.0 + 0.0j
            for y in range(h):
                for x in range(w):
                    acc += img[y, x] * np.exp(-2j * np.pi * (u * y / h + v * x / w))
            out[u, v] = acc
    return out


def brute_radial_profile(image, bins=16):
    """Radial log-magnitude profile recomputed from scratch.

    Same documented convention as the package (shifted spectrum,
    normalized radius over [0, sqrt(0.5)], equal bins, lower edge
    inclusive, mean per bin), but built on the brute DFT and explicit
    per-pixel loops.
    """
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    spectrum = brute_dft2(img)
    # manual fftshift
    shifted = np.empty_like(spectrum)
    for u in range(h):
        for v in range(w):
            shifted[(u + h // 2) % h, (v + w // 2) % w] = spectrum[u, v]
    mag = np.log1p(np.abs(shifted))
    edges = [np.sqrt(0.5) * k / bins for k in range(bins + 1)]
    sums = [0.0] * bins
    counts = [0] * bins
    for i in range(h):
        for j in range(w):
            fy = (i - h // 2) / h
            fx = (j - w // 2) / w
            r = np.sqrt(fy * fy + fx * fx)
            b = bins - 1
            for k in range(bins):
                if edges[k] <= r < edges[k + 1]:
                    b = k
                    break
            sums[b] += mag[i, j]
            counts[b] += 1
    return np.array([s / c if c else 0.0 for s, c in zip(sums, counts)])


def brute_neighborhood(center, order, extents):
    """All grid positions within Chebyshev distance order-1 of center."""
    r, c = center
    h, w = extents
    out = []
    for rr in range(h):
        for cc in range(w):
            if max(abs(rr - r), abs(cc - c)) <= order - 1:
                out.append((rr, cc))
    return out


def brute_similarity(features, i, j, order, alpha, psi_features=None, channels=None):
    """Order-K similarity as the literal double sum over neighborhoods."""
    feats = np.asarray(features, dtype=np.float64)
    psi_src = feats if psi_features is None else np.asarray(psi_features, dtype=np.float64)
    h, w, c = feats.shape
    lo, hi = (0, c) if channels is None else channels
    alpha = np.asarray(alpha, dtype=np.float64)

    def weight(offset_r, offset_c, ch):
        if alpha.ndim == 2:
            return alpha[offset_r, offset_c]
        return alpha[ch, offset_r, offset_c]

    total = 0.0
    reach = order - 1
    for ch in range(lo, hi):
        phi = 0.0
        for rr, cc in brute_neighborhood(i, order, (h, w)):
            phi += weight(rr - i[0] + reach, cc - i[1] + reach, ch) * feats[rr, cc, ch]
        psi = 0.0
        for rr, cc in brute_neighborhood(j, order, (h, w)):
            psi += weight(rr - j[0] + reach, cc - j[1] + reach, ch) * psi_src[rr, cc, ch]
        total += phi * psi
    return total


def brute_depthwise_conv(x, kernels):
    """Same-padded per-channel correlation with explicit loops."""
    x = np.asarray(x, dtype=np.float64)
    k = kernels.shape[1]
    pad = k // 2
    b, c, h, w = x.shape
    out = np.zeros_like(x)
    for bi in range(b):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for u in range(k):
                        for v in range(k):
                            ii, jj = i + u - pad, j + v - pad
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += x[bi, ci, ii, jj] * kernels[ci, u, v]
                    out[bi, ci, i, j] = acc
    return out


def expand_window_bias(bias_matrix, height, width, window_h, window_w):
    """Lift a per-window [heads, wn, wn] bias to full-grid [heads, N, N].

    Entries for token pairs in different windows are left at zero; the
    caller masks those positions anyway.
    """
    heads, wn, _ = bias_matrix.shape
    n = height * width
    full = np.zeros((heads, n, n))
    nh, nw = height // window_h, width // window_w
    for wr in range(nh):
        for wc in range(nw):
            tokens = []
            for r in range(window_h):
                for c in range(window_w):
                    tokens.append((wr * window_h + r) * width + (wc * window_w + c))
            for p, tp in enumerate(tokens):
                for q, tq in enumerate(tokens):
                    full[:, tp, tq] = bias_matrix[:, p, q]
    return full


def block_window_mask(height, width, window_h, window_w):
    """Boolean [N, N]: True where two flat tokens share a window."""
    if height % window_h or width % window_w:
        raise ConfigurationError(f"grid {height}x{width} not divisible by window {window_h}x{window_w}")
    n = height * width
    rows = np.arange(n) // width
    cols = np.arange(n) % width
    win_id = (rows // window_h) * (width // window_w) + cols // window_w
    return win_id[:, None] == win_id[None, :]


def masked_full_attention_oracle(x, params, mask, bias=None):
    """Dense attention with an explicit [N, N] keep-mask; forward only.

    Masked logits are set to -inf before the softmax.  A row with every
    position masked has no defined distribution and raises.  ``bias``,
    if given, is a [heads, N, N] additive logit term (applied before
    masking).  Implemented with per-head loops on raw numpy so it
    shares nothing with the fast path.
    """
    data = np.asarray(x, dtype=np.float64)
    if data.ndim != 3:
        raise DimensionError(f"oracle expects [B, N, C], got {data.shape}")
    b, n, c = data.shape
    if c != params.channels:
        raise DimensionError(f"token channels {c} != projection size {params.channels}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n, n):
        raise DimensionError(f"mask shape {mask.shape} != ({n}, {n})")
    if not mask.any(axis=1).all():
        raise DegenerateMapError("mask leaves at least one query row with no visible keys")
    heads, d = params.num_heads, params.head_dim
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (heads, n, n):
            raise DimensionError(f"bias shape {bias.shape} != ({heads}, {n}, {n})")

    out = np.empty_like(data)
    for bi in range(b):
        tok = data[bi]
        q_all = tok @ params.w_q.data
        k_all = tok @ params.w_k.data
        v_all = tok @ params.w_v.data
        mixed = np.empty((n, c), dtype=data.dtype)
        for hd in range(heads):
            sl = slice(hd * d, (hd + 1) * d)
            logits = (q_all[:, sl] @ k_all[:, sl].T) / math.sqrt(d)
            if bias is not None:
                logits = logits + bias[hd]
            logits = np.where(mask, logits, -np.inf)
            shifted = logits - logits.max(axis=1, keepdims=True)
            weights = np.exp(shifted)
            weights /= weights.sum(axis=1, keepdims=True)
            mixed[:, sl] = weights @ v_all[:, sl]
        out[bi] = mixed @ params.w_o.data
    return out
