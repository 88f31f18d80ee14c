"""Feature-based alignment of RGB photos onto paired R-G-NIR frames."""

from .errors import RegistrationError
from .keypoints import Keypoints, build_pyramid, detect_keypoints
from .descriptors import DESCRIPTOR_BITS, TEST_PATTERN, compute_descriptors
from .matching import Matches, filter_matches, match_bruteforce, match_guided
from .homography import (
    RansacResult,
    dlt_homography,
    estimate_homography,
    symmetric_transfer_error,
)
from .pipeline import (
    RegistrationDiagnostics,
    RegistrationParams,
    RegistrationResult,
    register_pair,
)

__all__ = [
    "DESCRIPTOR_BITS",
    "Keypoints",
    "Matches",
    "RansacResult",
    "RegistrationDiagnostics",
    "RegistrationError",
    "RegistrationParams",
    "RegistrationResult",
    "TEST_PATTERN",
    "build_pyramid",
    "compute_descriptors",
    "detect_keypoints",
    "dlt_homography",
    "estimate_homography",
    "filter_matches",
    "match_bruteforce",
    "match_guided",
    "register_pair",
    "symmetric_transfer_error",
]
