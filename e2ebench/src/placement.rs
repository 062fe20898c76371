//! Thread placement for `fleet-serve`: the feeder alone on one CPU; the
//! reader and the server's threads together on another, so a
//! closed-loop request never waits for a CPU the feeder holds and the
//! client and its connection thread always hand off on the same CPU.
//! The two CPUs are the first two of the process's own affinity mask.

/// A `cpu_set_t` as glibc lays it out: 1024 bits.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[derive(Debug, Clone, Copy)]
pub struct Placement {
    pub feeder: Option<usize>,
    pub reader: Option<usize>,
}

impl Placement {
    /// Two CPUs the process may run on, or no placement when it may run
    /// on only one.
    pub fn detect() -> Placement {
        let cpus = allowed_cpus();
        match cpus[..] {
            [feeder, reader, ..] => Placement {
                feeder: Some(feeder),
                reader: Some(reader),
            },
            _ => Placement {
                feeder: None,
                reader: None,
            },
        }
    }

    /// What the pass ran with: [`pin`] fails the pass rather than leave a
    /// thread where this says it is not.
    pub fn describe(&self) -> String {
        match (self.feeder, self.reader) {
            (Some(f), Some(r)) => format!("feeder=cpu{f} reader+server=cpu{r}"),
            _ => "unpinned".to_string(),
        }
    }
}

/// Pins the calling thread (and the threads it spawns from now on) to
/// `cpu`; `None` leaves it where it is.
pub fn pin(cpu: Option<usize>) -> Result<(), String> {
    match cpu {
        Some(cpu) if !pin_to(cpu) => Err(format!("cannot pin a thread to cpu{cpu}")),
        _ => Ok(()),
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

#[cfg(target_os = "linux")]
fn pin_to(cpu: usize) -> bool {
    let mut mask: CpuSet = [0; 16];
    if cpu >= 1024 {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread, and `mask` is a live,
    // initialised CPU set whose exact size is passed with it; the
    // kernel only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The CPUs the calling thread may run on, in ascending order.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: pid 0 names the calling thread, and `mask` is a live CPU
    // set whose exact size is passed with it; the kernel writes at most
    // that many bytes.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

#[cfg(not(target_os = "linux"))]
fn pin_to(_cpu: usize) -> bool {
    false
}

#[cfg(not(target_os = "linux"))]
fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}
