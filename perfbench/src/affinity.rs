//! CPU placement for single-threaded jobs.
//!
//! On a shared host a neighbour busy on one core's hyperthread sibling
//! slows every single-threaded job the scheduler happens to place there: on
//! the 2-core host this benchmark was tuned on, the same path-vector job
//! took a median 1.78 s pinned to one CPU and 2.47 s on the other, and
//! which CPU was the slow one changed over minutes.  Unpinned runs land on
//! either, so run medians came out bimodal.  The runner therefore rotates
//! single-threaded repetitions over the first [`MAX_CPUS`] allowed CPUs and
//! reports the quietest CPU's median (see `main::measured`).

/// CPUs a run rotates over, at most.
pub const MAX_CPUS: usize = 2;

/// A Linux `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's allowed CPU set, when the platform reports it.
#[cfg(target_os = "linux")]
fn current() -> Option<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn current() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &CpuSet) -> bool {
    false
}

/// Pins the calling thread to one CPU at a time; restores the original set
/// when dropped.
pub struct Placement {
    original: Option<CpuSet>,
    cpus: Vec<usize>,
}

impl Placement {
    /// Rotation over the first [`MAX_CPUS`] allowed CPUs; an empty rotation
    /// (no pinning) when `enabled` is false or affinity is unavailable.
    pub fn new(enabled: bool) -> Placement {
        let original = if enabled { current() } else { None };
        let cpus = original
            .map(|mask| {
                (0..1024)
                    .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                    .take(MAX_CPUS)
                    .collect()
            })
            .unwrap_or_default();
        Placement { original, cpus }
    }

    /// Pin to the CPU for repetition `k`; returns the group the samples of
    /// that repetition belong to.
    pub fn pin(&self, k: usize) -> usize {
        if self.cpus.is_empty() {
            return 0;
        }
        let cpu = self.cpus[k % self.cpus.len()];
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        if set(&mask) {
            cpu
        } else {
            0
        }
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        if let Some(mask) = &self.original {
            set(mask);
        }
    }
}
