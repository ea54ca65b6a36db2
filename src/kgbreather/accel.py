"""The batched per-mode stage matrix-vector product of the stage solver."""

__all__ = ["stage_matvec"]


def stage_matvec(minv, rhs):
    """minv: (n, d, d) real, rhs: (n, d) complex -> (n, d) complex."""
    # Fixed left-to-right accumulation over j.
    acc = minv[:, :, 0] * rhs[:, 0, None]
    for j in range(1, rhs.shape[1]):
        acc = acc + minv[:, :, j] * rhs[:, j, None]
    return acc
