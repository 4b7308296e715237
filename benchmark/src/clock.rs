//! Clocks that leave out what the hypervisor stole.
//!
//! The benchmark runs on a few virtual processors of a shared host. When
//! the host gives a processor to another tenant the guest stands still:
//! for milliseconds at a time, and for minutes on end up to half of the
//! time (ten runs of `serve_exec`, same code: four of them at 320 ops/s,
//! six at 560, with set-up at 3.0 s and 1.5 s). The kernel knows how
//! long it stood still and says so twice:
//!
//! * the `steal` column of `/proc/stat`, per processor, in units of
//!   10 ms. [`unstolen`] is the time since the clocks were started minus
//!   that column's growth: a clock that stops while the processor is
//!   stolen. Slices of the load and set-ups, tenths of a second and
//!   more, are timed on it. It still counts every wait of the program
//!   itself: sleeps, locks, disk.
//! * `CLOCK_PROCESS_CPUTIME_ID`, to the nanosecond: the time threads of
//!   this process ran, stolen time left out (the kernel is built with
//!   `PARAVIRT_TIME_ACCOUNTING`). A single request is shorter than the
//!   steal column's unit, so its latency is timed on [`busy`]. With the
//!   process on one processor and the load in lock-step, some thread of
//!   it runs from the request's write to the reply's read, and the two
//!   clocks agree while nothing is stolen. This one is blind to waits;
//!   the slices' clock is not.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Nanoseconds per unit of `/proc/stat` (`USER_HZ` is 100 on Linux).
const STAT_UNIT_NS: u64 = 10_000_000;

struct Clocks {
    started: Instant,
    /// `/proc/stat` and the line prefix of the processor the process is
    /// confined to; `None` when it is not confined or the file is absent.
    steal: Option<(File, String)>,
    stolen_at_start: Duration,
}

static CLOCKS: OnceLock<Clocks> = OnceLock::new();

/// Confines this process, and every thread it starts from here on, to
/// the first processor it may run on, and starts the clocks. Returns
/// whether the process is confined.
///
/// The client, the event loop and a worker take turns: a lock-step load
/// has one of them running at a time. Left to the kernel they land on one
/// processor or on two, and stay there for minutes; on two, every hop
/// wakes a halted virtual processor through the hypervisor, which costs
/// what the host's other tenants let it cost. The same `serve_warm`
/// request took 76 us, 130 us or 230 us from one run to the next. On one
/// processor a hop is a context switch and the run measures the program.
pub fn start() -> bool {
    let cpu = pin_to_one_cpu();
    let steal = cpu.and_then(|cpu| Some((File::open("/proc/stat").ok()?, format!("cpu{cpu} "))));
    let mut clocks = Clocks {
        started: Instant::now(),
        steal,
        stolen_at_start: Duration::ZERO,
    };
    clocks.stolen_at_start = clocks.stolen_since_boot();
    let _ = CLOCKS.set(clocks);
    cpu.is_some()
}

#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    // cpu_set_t: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: the call writes at most `size` bytes into `allowed`, which
    // is that large and live.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let word = allowed.iter().position(|w| *w != 0)?;
    let bit = allowed[word].trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: the call reads `size` bytes of `one`, which is that large
    // and live until it returns.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The `steal` column of a processor's `/proc/stat` line: the eighth
/// number after the label.
fn steal_column(stat: &str, label: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with(label))?;
    line[label.len()..].split_whitespace().nth(7)?.parse().ok()
}

impl Clocks {
    fn stolen_since_boot(&self) -> Duration {
        let Some((file, label)) = &self.steal else {
            return Duration::ZERO;
        };
        // The per-processor lines come first and are short.
        let mut buf = [0u8; 2048];
        let n = file.read_at(&mut buf, 0).unwrap_or(0);
        let units = steal_column(&String::from_utf8_lossy(&buf[..n]), label).unwrap_or(0);
        Duration::from_nanos(units * STAT_UNIT_NS)
    }
}

fn clocks() -> &'static Clocks {
    CLOCKS.get().expect("clock::start ran first")
}

/// Time the hypervisor took from this process's processor since
/// [`start`], to 10 ms.
pub fn stolen() -> Duration {
    let c = clocks();
    c.stolen_since_boot().saturating_sub(c.stolen_at_start)
}

/// Time since [`start`] that was not stolen.
pub fn unstolen() -> Duration {
    clocks().started.elapsed().saturating_sub(stolen())
}

/// Time threads of this process have run.
#[cfg(target_os = "linux")]
pub fn busy() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, at: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut at = Timespec { sec: 0, nsec: 0 };
    // SAFETY: the call writes one `timespec` (two 64-bit fields on every
    // 64-bit Linux) into `at`, which is live.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut at) };
    assert_eq!(status, 0, "the process CPU clock is always there");
    Duration::new(at.sec as u64, at.nsec as u32)
}

/// Without a process CPU clock, wall time.
#[cfg(not(target_os = "linux"))]
pub fn busy() -> Duration {
    clocks().started.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_column_of_the_processors_own_line() {
        let stat = "cpu  2391070 0 246629 2301160 8699 0 72294 22335 0 0\n\
                    cpu0 1399511 0 132931 927614 6386 0 37567 14030 0 0\n\
                    cpu1 991558 0 113697 1373546 2312 0 34726 8305 0 0\n\
                    cpu10 1 2 3 4 5 6 7 8 9 10\n\
                    intr 1 2 3\n";
        assert_eq!(steal_column(stat, "cpu0 "), Some(14030));
        assert_eq!(steal_column(stat, "cpu1 "), Some(8305));
        assert_eq!(steal_column(stat, "cpu10 "), Some(8));
        assert_eq!(steal_column(stat, "cpu2 "), None);
        assert_eq!(steal_column("cpu0 1 2 3\n", "cpu0 "), None);
    }

    #[test]
    fn clocks_run_forward() {
        start();
        let (u0, b0) = (unstolen(), busy());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(busy() > b0);
        assert!(unstolen() >= u0);
    }
}
