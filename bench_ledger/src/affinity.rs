//! Running a workload on one CPU.
//!
//! `wire_notify` is a ping-pong: at any moment one thread of the client or
//! the daemon has something to do and the rest sleep. Left to the scheduler,
//! each hand-over wakes a thread on the other vCPU, and in a virtual machine
//! that wake-up is an inter-processor interrupt and an exit from `HLT` whose
//! cost belongs to the host and changes with its load. On one CPU every
//! hand-over is a context switch. Measured on the reference box (`NOISE.md`,
//! session 4) the pinned workload is a sixth faster, and with the journal's
//! sync out of the way its runs stop falling into two modes 25 % apart.
//!
//! The mask is set on the calling thread; threads and child processes started
//! afterwards inherit it, which is how the daemon gets it.

const MASK_WORDS: usize = 16;
type Mask = [u64; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn current() -> Option<Mask> {
    let mut mask: Mask = [0; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set(mask: &Mask) -> bool {
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

/// The highest-numbered CPU in `mask`: CPU 0 is where a small machine's
/// device interrupts land.
fn highest(mask: &Mask) -> Option<usize> {
    (0..MASK_WORDS * 64).rev().find(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
}

/// The calling thread confined to one CPU until this is dropped.
pub struct OneCpu {
    original: Option<Mask>,
    /// The CPU everything runs on, if the kernel accepted the mask.
    pub cpu: Option<usize>,
}

impl OneCpu {
    /// Confine the calling thread to the highest CPU it may run on. Where
    /// the kernel refuses, the run goes on unpinned and `cpu` says so.
    pub fn pin() -> OneCpu {
        let original = current();
        let cpu = original.as_ref().and_then(highest).filter(|&cpu| {
            let mut one: Mask = [0; MASK_WORDS];
            one[cpu / 64] = 1 << (cpu % 64);
            set(&one)
        });
        OneCpu { original, cpu }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let (Some(original), Some(_)) = (&self.original, self.cpu) {
            set(original);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_cpu_of_a_mask() {
        let mut mask: Mask = [0; MASK_WORDS];
        assert_eq!(highest(&mask), None);
        mask[0] = 0b0110;
        assert_eq!(highest(&mask), Some(2));
        mask[1] = 1;
        assert_eq!(highest(&mask), Some(64));
    }

    #[test]
    fn pinning_confines_the_thread_and_dropping_restores_it() {
        let before = current().expect("Linux reports an affinity mask");
        let pinned = OneCpu::pin();
        let cpu = pinned.cpu.expect("a thread may be pinned to a CPU it already runs on");
        let during = current().unwrap();
        assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(highest(&during), Some(cpu));
        // A thread started now inherits the mask.
        let inherited = std::thread::spawn(current).join().unwrap().unwrap();
        assert_eq!(inherited, during);
        drop(pinned);
        assert_eq!(current().unwrap(), before);
    }
}
