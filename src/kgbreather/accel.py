"""The batched per-mode stage matrix-vector product of the stage solver."""

__all__ = ["stage_matvec"]


def stage_matvec(cols, x):
    """mat[m] @ x[..., :, m] for each mode m of the (n, r, q) per-mode matrices mat.

    cols holds mat column by column, as q complex (r, n) blocks with
    cols[j][i, m] = mat[m, i, j]; x: (..., q, n) complex -> (..., r, n)
    complex. Leading axes of x are independent members: each member's
    result equals, bit for bit, that of a call on its own (q, n) block.
    """
    # Fixed left-to-right accumulation over j.
    acc = cols[0] * x[..., :1, :]
    for j in range(1, len(cols)):
        acc = acc + cols[j] * x[..., j : j + 1, :]
    return acc
