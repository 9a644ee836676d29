from .inversion import (
    InversionConfig,
    InversionResult,
    default_tv_lambda,
    invert,
    make_client_clone,
    unsplit_invert,
)
from .labels import (
    LabelInferenceResult,
    infer_from_tap_entry,
    infer_label,
    make_tail_clone,
    tail_accuracy,
    tail_param_gradients,
)

__all__ = [
    "InversionConfig",
    "InversionResult",
    "default_tv_lambda",
    "invert",
    "make_client_clone",
    "unsplit_invert",
    "LabelInferenceResult",
    "infer_from_tap_entry",
    "infer_label",
    "make_tail_clone",
    "tail_accuracy",
    "tail_param_gradients",
]
