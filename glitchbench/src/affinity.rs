//! CPU affinity of the calling thread, so a single-threaded campaign
//! repetition can visit every CPU the process may use. On a shared host
//! each CPU sees its own, independently varying contention; a
//! repetition that runs once on each of them measures their average
//! instead of whichever CPU the scheduler happened to pick.
//!
//! Linux on x86-64 only; elsewhere [`allowed`] is empty and nothing is
//! pinned.

/// The CPUs the calling thread may run on, in ascending order (empty
/// when unknown).
pub fn allowed() -> Vec<usize> {
    sys::get().map_or_else(Vec::new, |mask| {
        (0..mask.len() * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
    })
}

/// Restrict the calling thread to `cpus`; returns whether it took.
pub fn set(cpus: &[usize]) -> bool {
    let mut mask: sys::Mask = [0; 16];
    for &c in cpus {
        if c >= mask.len() * 64 {
            return false;
        }
        mask[c / 64] |= 1 << (c % 64);
    }
    !cpus.is_empty() && sys::set(&mask)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    /// An affinity mask for up to 1024 CPUs.
    pub type Mask = [u64; 16];

    const SCHED_SETAFFINITY: i64 = 203;
    const SCHED_GETAFFINITY: i64 = 204;

    /// `syscall(nr, 0, size_of::<Mask>(), mask)`: both affinity calls
    /// take the thread (0 = the caller), the mask size and the mask.
    fn affinity_call(nr: i64, mask: &mut Mask) -> i64 {
        let ret: i64;
        // SAFETY: the two affinity system calls read or write at most
        // `size_of::<Mask>()` bytes at `mask`, an exclusively borrowed
        // live `Mask`; they touch no other memory of this process, and
        // `syscall` clobbers only rax (the result), rcx and r11.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") 0i64,
                in("rsi") std::mem::size_of::<Mask>(),
                in("rdx") mask as *mut Mask,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    pub fn get() -> Option<Mask> {
        let mut mask = [0; 16];
        (affinity_call(SCHED_GETAFFINITY, &mut mask) > 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        let mut mask = *mask;
        affinity_call(SCHED_SETAFFINITY, &mut mask) == 0
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub type Mask = [u64; 16];

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_mask: &Mask) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_round_trips() {
        let cpus = allowed();
        if cpus.is_empty() {
            return;
        }
        assert!(set(&cpus[..1]));
        assert_eq!(allowed(), cpus[..1]);
        assert!(set(&cpus));
        assert_eq!(allowed(), cpus);
    }
}
