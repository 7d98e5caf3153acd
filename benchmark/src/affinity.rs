//! CPU placement for the TCP workloads.
//!
//! Three busy threads (load generator loop, proxy loop, proxy planner) on a
//! 2-core box made closed-loop throughput bimodal across runs of one seed
//! (≈330 vs ≈430 updates/s on `tcp_large_table`), depending on which two
//! the kernel happened to co-locate for the run. The benchmark therefore
//! fixes the layout: the proxy's planner threads get one CPU, the two event
//! loops share the other. Threads inherit the affinity of their creator, so
//! setting the calling thread's mask around `ProxyApp::new` (which spawns
//! the planner) and the proxy-loop spawn is all it takes; no product code
//! is involved. With fewer than two usable CPUs nothing is pinned.

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU mask of up to 1024 CPUs (glibc's `cpu_set_t`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    pub fn single(cpu: usize) -> CpuSet {
        let mut words = [0u64; 16];
        words[cpu / 64] = 1 << (cpu % 64);
        CpuSet(words)
    }

    pub fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|c| self.0[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }
}

/// The calling thread's affinity mask.
pub fn current() -> Option<CpuSet> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set.0` is a live, writable buffer of exactly the
    // `size_of_val` bytes passed as `cpusetsize`; pid 0 is the caller.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

/// Restricts the calling thread (and threads it spawns from now on) to
/// `set`. Returns whether the kernel accepted it.
pub fn set_current(set: &CpuSet) -> bool {
    // SAFETY: `set.0` is a live buffer of exactly the `size_of_val` bytes
    // passed as `cpusetsize`, only read by the call; pid 0 is the caller.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&set.0), set.0.as_ptr()) == 0 }
}

/// Puts the calling thread's affinity back when dropped, whichever way
/// the session ends.
pub struct Restore(Option<CpuSet>);

impl Restore {
    pub fn current() -> Restore {
        Restore(current())
    }

    pub fn cpus(&self) -> Option<Vec<usize>> {
        self.0.as_ref().map(CpuSet::cpus)
    }
}

impl Drop for Restore {
    fn drop(&mut self) {
        if let Some(set) = &self.0 {
            set_current(set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_sets_list_their_members() {
        assert_eq!(CpuSet::single(0).cpus(), vec![0]);
        assert_eq!(CpuSet::single(65).cpus(), vec![65]);
    }

    #[test]
    fn pinning_round_trips_on_this_host() {
        let original = current().expect("sched_getaffinity works on Linux");
        let cpus = original.cpus();
        assert!(!cpus.is_empty());
        // Run on a thread of its own: affinity is per thread, and the test
        // harness shares this one's creator with other tests.
        std::thread::spawn(move || {
            let last = *cpus.last().unwrap();
            assert!(set_current(&CpuSet::single(last)));
            assert_eq!(current().unwrap().cpus(), vec![last]);
            assert!(set_current(&original));
            assert_eq!(current().unwrap(), original);
        })
        .join()
        .unwrap();
    }
}
