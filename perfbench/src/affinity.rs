//! Spreading measurements evenly over the CPUs.
//!
//! On a small virtual machine the CPUs do not run at the same speed: a
//! vCPU whose host sibling is busy runs slower, and which vCPU a
//! single-threaded loop lands on is an accident of scheduling that can
//! hold for the life of a process. So measurements rotate: pass `k`
//! starts on the `k`-th allowed CPU (the thread is moved there, and the
//! full CPU set is restored at once, so threads the program spawns may
//! still use every CPU), and every run samples every CPU.

const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, and its original affinity mask.
pub struct Cpus {
    original: [u64; WORDS],
    cpus: Vec<usize>,
}

impl Cpus {
    /// The calling thread's allowed CPUs; a single CPU when they cannot be
    /// read (rotation is then a no-op).
    pub fn current() -> Cpus {
        let mut original = [0u64; WORDS];
        // SAFETY: `original` is a writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe {
            sched_getaffinity(0, std::mem::size_of_val(&original), original.as_mut_ptr())
        };
        let cpus = if rc == 0 {
            (0..WORDS * 64)
                .filter(|&c| original[c / 64] & (1 << (c % 64)) != 0)
                .collect()
        } else {
            Vec::new()
        };
        Cpus { original, cpus }
    }

    /// How many CPUs rotation cycles through (at least 1).
    pub fn count(&self) -> usize {
        self.cpus.len().max(1)
    }

    fn set(&self, mask: &[u64; WORDS]) {
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread. A failure leaves the
        // affinity unchanged, which only forgoes the rotation.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr());
        }
    }

    /// Restricts the calling thread to the `k`-th allowed CPU (mod the
    /// count). Children spawned now inherit the restriction.
    pub fn pin(&self, k: usize) {
        if self.cpus.len() > 1 {
            let cpu = self.cpus[k % self.cpus.len()];
            let mut mask = [0u64; WORDS];
            mask[cpu / 64] = 1 << (cpu % 64);
            self.set(&mask);
        }
    }

    /// Restores the original CPU set.
    pub fn restore(&self) {
        if self.cpus.len() > 1 {
            self.set(&self.original);
        }
    }

    /// Moves the calling thread onto the `k`-th CPU and lifts the
    /// restriction again: the thread stays where it was moved until the
    /// scheduler has a reason to move it, and threads it spawns may use
    /// every CPU.
    pub fn visit(&self, k: usize) {
        self.pin(k);
        self.restore();
    }
}
