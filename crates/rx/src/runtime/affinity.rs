//! Minimal CPU-affinity shim: pin the calling thread to one CPU.
//!
//! The workspace takes no external dependencies (see `vendor/README.md`
//! for the shim contract), so instead of `libc` this issues the
//! `sched_setaffinity(2)` syscall directly on Linux x86_64/aarch64 and
//! degrades to a no-op everywhere else. Pinning is strictly a placement
//! hint for the work-stealing pool: the scheduler's decisions (and the
//! receiver's) are identical with or without it, which
//! `crates/rx/tests/streaming_equivalence.rs` pins.

/// Pins the calling thread to `cpu` (taken modulo the mask width).
/// Returns whether the kernel accepted the mask; `false` on unsupported
/// platforms or syscall failure — callers treat that as "run unpinned".
pub fn pin_current_thread(cpu: usize) -> bool {
    imp::pin_current_thread(cpu)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    /// The kernel's historical maximum mask width; one `u64` word per 64
    /// CPUs.
    const MASK_BITS: usize = 1024;

    pub fn pin_current_thread(cpu: usize) -> bool {
        let mut mask = [0u64; MASK_BITS / 64];
        let cpu = cpu % MASK_BITS;
        mask[cpu / 64] = 1u64 << (cpu % 64);
        // pid 0 = the calling thread.
        let ret = sched_setaffinity(0, core::mem::size_of_val(&mask), mask.as_ptr());
        ret == 0
    }

    #[cfg(target_arch = "x86_64")]
    fn sched_setaffinity(pid: i64, len: usize, mask: *const u64) -> i64 {
        let ret: i64;
        // SAFETY: syscall 203 (sched_setaffinity) reads `len` bytes from
        // `mask`, which points at a live, properly sized local array; it
        // writes no user memory.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") 203i64 => ret,
                in("rdi") pid,
                in("rsi") len,
                in("rdx") mask,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    fn sched_setaffinity(pid: i64, len: usize, mask: *const u64) -> i64 {
        let ret: i64;
        // SAFETY: syscall 122 (sched_setaffinity) reads `len` bytes from
        // `mask`, which points at a live, properly sized local array; it
        // writes no user memory.
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") 122i64,
                inlateout("x0") pid => ret,
                in("x1") len,
                in("x2") mask,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    pub fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_a_hint_not_a_hazard() {
        // On supported platforms this should succeed for CPU 0 (every
        // machine has one); elsewhere it must report false rather than
        // fail. Either way the thread keeps running.
        let pinned = pin_current_thread(0);
        if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) {
            assert!(pinned, "pinning to CPU 0 should succeed on Linux");
        } else {
            assert!(!pinned);
        }
        // Out-of-range CPUs wrap into the mask; the syscall may reject a
        // CPU the machine lacks — either boolean is acceptable, no panic.
        let _ = pin_current_thread(4096);
    }
}
