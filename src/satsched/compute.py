"""GPU execution-time and power models, and Gamma batching.

A platform runs a fixed per-image workload of W floating-point operations on
n_cores cores at n_flops FLOPs per cycle each. Mean execution time at clock f
is mu_c * W / (n_cores * n_flops * f) + mu_sync: a 1/f compute term scaled by
the inefficiency factor mu_c, plus a frequency-independent synchronization
floor. Power follows the cubic DVFS law p_max * (f / f_max)^3.

Execution time at a fixed frequency is Gamma distributed; a batch of n
independent images is again Gamma with n-fold shape and unchanged scale,
which is what makes deadline quantiles of whole batches cheap to evaluate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_count, check_positive, check_real
from .numerics import GammaLaw

# slack for frequencies the planners' boundary search returns at the box edge
_FREQ_RTOL = 1e-9


@dataclass(frozen=True)
class Platform:
    """An edge GPU model plus its fixed per-image workload.

    Attributes:
        name: Short identifier used in outputs ("nano", "agx", ...).
        n_cores: CUDA core count.
        n_flops: FLOPs per cycle per core.
        f_max_hz: Maximum core clock.
        f_min_hz: Minimum usable core clock, 0 < f_min < f_max.
        p_max_w: Board power at f_max.
        mu_c: Processing inefficiency factor, >= 1.
        mu_sync_s: Frequency-independent synchronization overhead.
        work_flops: Per-image workload.
    """

    name: str
    n_cores: int
    n_flops: float
    f_max_hz: float
    f_min_hz: float
    p_max_w: float
    mu_c: float
    mu_sync_s: float
    work_flops: float

    def __post_init__(self):
        check_count("n_cores", self.n_cores)
        for field in ("n_flops", "f_max_hz", "f_min_hz", "p_max_w", "mu_c",
                      "mu_sync_s", "work_flops"):
            check_positive(field, getattr(self, field))
        if not self.f_min_hz < self.f_max_hz:
            raise DomainError(
                f"f_min_hz={self.f_min_hz!r} must be below f_max_hz={self.f_max_hz!r}")
        if self.mu_c < 1.0:
            raise DomainError(f"mu_c must be >= 1, got {self.mu_c!r}")

    @classmethod
    def from_mean_at_max(cls, name: str, n_cores: int, n_flops: float,
                         f_max_hz: float, p_max_w: float, mu_c: float,
                         mu_sync_s: float, mean_exec_at_max_s: float,
                         f_min_hz: float = None) -> "Platform":
        """Build a platform by inverting the mean-time model at f_max.

        The workload W is not measured directly; it is fixed so that
        mean_exec_time(f_max) reproduces the benchmarked value.
        """
        mean_exec_at_max_s = check_real("mean_exec_at_max_s", mean_exec_at_max_s)
        if mean_exec_at_max_s <= check_real("mu_sync_s", mu_sync_s):
            raise DomainError(
                "mean execution time at f_max must exceed the sync overhead "
                f"({mean_exec_at_max_s!r} <= {mu_sync_s!r})")
        work = ((mean_exec_at_max_s - mu_sync_s)
                * n_cores * n_flops * f_max_hz / mu_c)
        if f_min_hz is None:
            f_min_hz = 0.3 * f_max_hz
        return cls(name=name, n_cores=n_cores, n_flops=n_flops,
                   f_max_hz=f_max_hz, f_min_hz=f_min_hz, p_max_w=p_max_w,
                   mu_c=mu_c, mu_sync_s=mu_sync_s, work_flops=work)

    def check_frequency(self, f_hz):
        """Validate a clock (real scalar or ndarray) and clamp tolerance fuzz."""
        slack = _FREQ_RTOL * self.f_max_hz
        if not isinstance(f_hz, np.ndarray):
            # the same check and clamp as below, without numpy
            f_hz = check_real("frequency", f_hz)
            if not self.f_min_hz - slack <= f_hz <= self.f_max_hz + slack:
                raise DomainError(
                    f"frequency {f_hz!r} outside "
                    f"[{self.f_min_hz!r}, {self.f_max_hz!r}]")
            return float(min(max(f_hz, self.f_min_hz), self.f_max_hz))
        arr = np.asarray(f_hz, dtype=np.float64)
        if not (np.all(self.f_min_hz - slack <= arr)
                and np.all(arr <= self.f_max_hz + slack)):
            raise DomainError(
                f"frequency {f_hz!r} outside [{self.f_min_hz!r}, {self.f_max_hz!r}]")
        clamped = np.clip(arr, self.f_min_hz, self.f_max_hz)
        return float(clamped) if arr.ndim == 0 else clamped


def power(f_hz, platform: Platform):
    """Board power at clock f: p_max * (f / f_max)^3."""
    f_hz = platform.check_frequency(f_hz)
    ratio = f_hz / platform.f_max_hz
    return platform.p_max_w * ratio * ratio * ratio


def mean_exec_time(f_hz, platform: Platform):
    """Mean per-image execution time at clock f."""
    f_hz = platform.check_frequency(f_hz)
    compute_s = (platform.mu_c * platform.work_flops
                 / (platform.n_cores * platform.n_flops * f_hz))
    return compute_s + platform.mu_sync_s


def batch_law(per_image: GammaLaw, n_img: int) -> GammaLaw:
    """Execution-time law of a batch of n_img independent images.

    Gamma is closed under iid summation at fixed scale: the batch is
    Gamma(n_img * shape, scale).
    """
    return GammaLaw(per_image.shape * check_count("n_img", n_img),
                    per_image.scale)


def energy(f_hz: float, platform: Platform, law: GammaLaw) -> float:
    """Expected processing energy: power at f times the mean of ``law``.

    The frequency decision happens before execution, so the planner charges
    expectation, not a realized draw.
    """
    return power(f_hz, platform) * law.mean


# Table-style defaults for the two boards used throughout the experiments.
NANO = Platform.from_mean_at_max(
    name="nano", n_cores=1024, n_flops=2.0, f_max_hz=1.02e9, p_max_w=25.0,
    mu_c=1.071, mu_sync_s=17.48e-3, mean_exec_at_max_s=61.19e-3)

AGX = Platform.from_mean_at_max(
    name="agx", n_cores=2048, n_flops=2.0, f_max_hz=1.3e9, p_max_w=60.0,
    mu_c=1.122, mu_sync_s=14.14e-3, mean_exec_at_max_s=32.63e-3)

BUILTIN_PLATFORMS = {"nano": NANO, "agx": AGX}
