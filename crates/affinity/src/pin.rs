//! Best-effort thread pinning.
//!
//! The paper's methodology uses thread pinning and no hyper-threads.  On Linux this is
//! implemented with `sched_setaffinity(2)`; on other platforms the functions succeed as
//! no-ops so the runtime remains portable (pinning is a performance hint, never a
//! correctness requirement).

use crate::{CpuSet, MAX_CPUS};

/// Error returned when a pinning request could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PinError {
    /// The requested CPU set was empty.
    EmptySet,
    /// The operating system rejected the affinity mask (errno value on Linux).
    Os(i32),
    /// Pinning is not supported on this platform (treated as a soft failure).
    Unsupported,
}

impl std::fmt::Display for PinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PinError::EmptySet => write!(f, "cannot pin to an empty CPU set"),
            PinError::Os(errno) => write!(f, "sched_setaffinity failed with errno {errno}"),
            PinError::Unsupported => write!(f, "thread pinning is not supported on this platform"),
        }
    }
}

impl std::error::Error for PinError {}

/// Pins the calling thread to a single core.
pub fn pin_to_core(core: usize) -> Result<(), PinError> {
    pin_to_set(&CpuSet::single(core))
}

/// Pins the calling thread to the given CPU set.
pub fn pin_to_set(set: &CpuSet) -> Result<(), PinError> {
    if set.is_empty() {
        return Err(PinError::EmptySet);
    }
    imp::set_affinity(set)
}

/// Removes any affinity restriction: asks for every CPU a [`CpuSet`] can name, which
/// the kernel intersects with the online CPUs (and any cgroup cpuset), so the thread
/// gets back the full set it may run on.  The set is deliberately not sized from
/// `available_parallelism()`, which follows the *current* mask and so shrinks to one
/// CPU after a pin.
pub fn unpin() -> Result<(), PinError> {
    pin_to_set(&CpuSet::first_n(MAX_CPUS))
}

/// Returns the CPU the calling thread is currently executing on, if the platform can
/// report it.
pub fn current_cpu() -> Option<usize> {
    imp::current_cpu()
}

#[cfg(target_os = "linux")]
mod imp {
    use super::PinError;
    use crate::CpuSet;

    pub fn set_affinity(set: &CpuSet) -> Result<(), PinError> {
        // SAFETY: cpu_set_t is a plain bitmask; we zero-initialise it and only set bits
        // via the libc CPU_SET macro equivalent below.
        unsafe {
            let mut cpuset: libc::cpu_set_t = std::mem::zeroed();
            for cpu in set.iter() {
                if cpu < 8 * std::mem::size_of::<libc::cpu_set_t>() {
                    libc::CPU_SET(cpu, &mut cpuset);
                }
            }
            let rc = libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &cpuset);
            if rc == 0 {
                Ok(())
            } else {
                Err(PinError::Os(*libc::__errno_location()))
            }
        }
    }

    pub fn current_cpu() -> Option<usize> {
        // SAFETY: sched_getcpu takes no arguments and returns the current CPU or -1.
        let cpu = unsafe { libc::sched_getcpu() };
        if cpu >= 0 {
            Some(cpu as usize)
        } else {
            None
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::PinError;
    use crate::CpuSet;

    pub fn set_affinity(_set: &CpuSet) -> Result<(), PinError> {
        // Pinning is a performance hint only; succeed silently so higher layers do not
        // need platform-specific code paths.
        Ok(())
    }

    pub fn current_cpu() -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_is_rejected() {
        assert_eq!(pin_to_set(&CpuSet::new()), Err(PinError::EmptySet));
    }

    #[test]
    fn pin_to_core_zero_succeeds() {
        // Core 0 always exists.
        pin_to_core(0).expect("pinning to core 0 should succeed");
        unpin().expect("unpinning should succeed");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn current_cpu_reports_pinned_core() {
        pin_to_core(0).unwrap();
        // After pinning, the reported CPU must be 0 (it can only be observed on core 0).
        assert_eq!(current_cpu(), Some(0));
        unpin().unwrap();
    }

    #[test]
    fn unpin_restores_the_pre_pin_parallelism() {
        // On its own thread, so the pin never leaks into another test.
        std::thread::spawn(|| {
            let before = std::thread::available_parallelism().map(|n| n.get());
            pin_to_core(0).expect("pinning to core 0 should succeed");
            unpin().expect("unpinning should succeed");
            let after = std::thread::available_parallelism().map(|n| n.get());
            assert_eq!(
                after.ok(),
                before.ok(),
                "unpin must restore the full CPU set"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn pin_error_display() {
        assert!(format!("{}", PinError::EmptySet).contains("empty"));
        assert!(format!("{}", PinError::Os(22)).contains("22"));
        assert!(format!("{}", PinError::Unsupported).contains("not supported"));
    }
}
