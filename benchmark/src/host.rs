//! What the run takes from the machine: a scratch directory inside the
//! checkout, the parallelism cap, and the process's peak memory.

use std::path::{Path, PathBuf};

/// `benchmark/out/`: traces and scratch files, ignored by git.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process scratch directory under [`out_dir`], removed when
/// dropped — on a failed run too, since failure unwinds or returns
/// through `main` instead of exiting in place.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create() -> std::io::Result<TempDir> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Busy generator threads (and connections) a workload may use: two,
/// or fewer when the machine has fewer cores.
pub fn parallelism_cap() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// CPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`, e.g. `0-1` or `0,2-3`), ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to `cpus`. Returns whether the kernel accepted the mask.
///
/// Why a benchmark pins at all: on a 2-vCPU VM a loopback round trip
/// between two threads costs 4.5 µs when both sit on one vCPU and 43 µs
/// when the wake-up has to cross to an idle one, and the scheduler picks
/// per run and sticks with its choice — `cluster-2w`, at ~90 frames per
/// query, read 1.2 ms or 4.9 ms for the same build and seed. Pinned to
/// one CPU the wire path measures the program (README: "Noise").
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_to(cpus: &[usize]) -> bool {
    const SYS_SCHED_SETAFFINITY: i64 = 203;
    const MASK_BITS: usize = 1024;
    let mut mask = [0u64; MASK_BITS / 64];
    for &cpu in cpus.iter().filter(|&&c| c < MASK_BITS) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    if mask.iter().all(|&w| w == 0) {
        return false;
    }
    let ret: i64;
    // SAFETY: `sched_setaffinity(0, len, mask)` only reads `len` bytes at
    // `mask`, a live local array of exactly that size, and changes no
    // memory of this process; `syscall` clobbers rcx and r11, declared.
    // std has no wrapper for it and no libc crate is reachable offline.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// Other targets run unpinned; the header line of a run says so.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_to(_cpus: &[usize]) -> bool {
    false
}

/// Peak resident set of this process (`VmHWM`), in MB. The process hosts
/// the server and the workers, so this is their memory too.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
