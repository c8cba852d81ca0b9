//! The workload process runs on one CPU.
//!
//! The vendored `rayon` subset starts OS threads on every parallel call
//! (read-sync planning on each capturing miss, block fan-out on each
//! functional launch). On the two-vCPU sandbox the guest scheduler either
//! stacks those short-lived threads on the caller's CPU or spreads them,
//! and stays with its choice for seconds to a whole process: the same
//! build ran `plan-churn`'s round in 183 ms in one process and 406 ms in
//! the next, and `functional-exec` flips between 82 and 130 ms within a
//! run. No round count averages that out, so the timed rounds run with
//! the process restricted to the CPU it started on: there
//! `available_parallelism()` is 1, the subset runs its closures inline,
//! and every metric repeats within a few percent. What that leaves out —
//! the thread start-up and the fan-out — is reported by the traced run
//! as `driver.nproc_round_ms`, measured after [`Pinned::release`].

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU mask of 1024 bits, the size glibc's `cpu_set_t` has.
type Mask = [u64; 16];

/// The affinity the process started with, kept to give it back.
pub struct Pinned {
    before: Mask,
}

/// Restrict this process — and every thread it starts later — to the CPU
/// it is running on. Panics if the kernel refuses: a run that is not
/// pinned measures something else.
pub fn to_current_cpu() -> Pinned {
    let mut before: Mask = [0; 16];
    // SAFETY: `before` is a live buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), before.as_mut_ptr()) };
    assert!(rc == 0, "sched_getaffinity failed");
    // SAFETY: takes no arguments and only reads per-thread kernel state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).expect("sched_getcpu failed");
    let mut one: Mask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set(&one);
    Pinned { before }
}

impl Pinned {
    /// Back to the CPUs the process started with.
    pub fn release(self) {
        set(&self.before);
    }
}

fn set(mask: &Mask) {
    // SAFETY: `mask` is a live, initialised buffer of exactly the byte
    // length passed; pid 0 names the calling thread, which is the only
    // thread whenever this is called, so later threads inherit the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    assert!(rc == 0, "sched_setaffinity failed");
}
