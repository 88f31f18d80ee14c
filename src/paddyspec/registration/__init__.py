"""Feature-based alignment of RGB photos onto paired R-G-NIR frames."""

from .errors import RegistrationError
from .keypoints import Keypoint, build_pyramid, detect_keypoints, harris_response
from .descriptors import DESCRIPTOR_BITS, TEST_PATTERN, compute_descriptors
from .matching import Match, filter_matches, match_bruteforce
from .homography import (
    Homography,
    RansacResult,
    dlt_homography,
    estimate_homography,
    symmetric_transfer_error,
)
from .pipeline import (
    RGB_FOV_DEGREES,
    RGNIR_FOV_DEGREES,
    RegistrationDiagnostics,
    RegistrationParams,
    RegistrationResult,
    register_pair,
)

__all__ = [
    "DESCRIPTOR_BITS",
    "Homography",
    "RGB_FOV_DEGREES",
    "RGNIR_FOV_DEGREES",
    "Keypoint",
    "Match",
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
    "harris_response",
    "match_bruteforce",
    "register_pair",
    "symmetric_transfer_error",
]
