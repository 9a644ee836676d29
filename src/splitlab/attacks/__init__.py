from . import inversion, labels  # noqa: F401  (import splitlab loads both)
