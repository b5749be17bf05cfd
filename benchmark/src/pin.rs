//! Pin the benchmark process to one CPU.
//!
//! Every workload is a closed loop with one client: the client sleeps
//! while the daemon's worker runs and the worker sleeps while the
//! client runs, so at most one thread is runnable at any moment and a
//! second CPU buys nothing. Left to the scheduler, the two threads land
//! on one CPU in some runs and on two in others, and on this virtual
//! machine a wake-up across CPUs costs ~50 µs — the same hit loop then
//! reads 95 µs or 215 µs depending on where the threads happened to
//! sit. The in-process `map_*` workloads are one calling thread, which
//! the scheduler otherwise moves between the CPUs now and then; pinned
//! runs of them were as fast or faster and steadier, even for the two
//! mappers that fan out (`sa` chains, `ga` fitness sweeps: with one CPU
//! visible the vendored rayon runs them in line, and on kernels this
//! size starting threads costs what a second CPU gains).

/// Restrict this process (and every thread it spawns from now on) to
/// the highest-numbered CPU it is allowed to run on. Returns that CPU,
/// or `None` where the affinity calls are unavailable or fail, in
/// which case the run goes on unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // The C library's affinity calls (std links it on Linux); a
    // `cpu_set_t` is 1024 bits.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `bytes`
    // bytes; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the
    // call only reads; pid 0 names the calling thread, whose mask the
    // threads it spawns later inherit.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
