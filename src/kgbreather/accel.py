"""The batched per-mode stage matrix-vector product of the stage solver."""

__all__ = ["stage_matvec"]


def stage_matvec(mat, x):
    """mat[m] @ x[..., :, m] for each mode m; mat: (n, s, s) real, x: (..., s, n) complex -> (..., s, n) complex.

    Leading axes of x are independent members: each member's result equals,
    bit for bit, that of a call on its own (s, n) block.
    """
    # Fixed left-to-right accumulation over j.
    acc = mat[:, :, 0].T * x[..., :1, :]
    for j in range(1, x.shape[-2]):
        acc = acc + mat[:, :, j].T * x[..., j : j + 1, :]
    return acc
