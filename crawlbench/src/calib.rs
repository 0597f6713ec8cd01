//! Host-speed calibration.
//!
//! The benchmark runs on a few virtual cores of a shared host, whose speed
//! drifts by ±20% over tens of seconds as other tenants load it. The drift
//! moves every wall-clock figure with it, and neither process CPU time nor
//! medians over a run remove it. So every timed pass is bracketed by a
//! fixed calibration workload that belongs to the benchmark, not to the
//! program, and the pass's throughput is reported at a reference host
//! speed:
//!
//! ```text
//! throughput_ref = throughput_wall × unit_s / REF_UNIT_S
//! ```
//!
//! where `unit_s` is the calibration unit's time on this host around the
//! pass (the mean of the measurement before and after it). A host that is
//! 20% slow makes both the pass and the unit 20% slower, and the two
//! cancel. The program cannot speed up or slow down the unit: it is this
//! file's own code. A program that left threads working while the unit
//! runs would slow it, so the unit checks that nothing else in the process
//! used CPU time meanwhile.

use std::time::Instant;

/// The calibration unit's time on the reference host speed, in seconds.
/// About what one unit takes on a quiet 2-vCPU Xeon virtual machine; the
/// value only scales the reported numbers.
pub const REF_UNIT_S: f64 = 0.025;

/// Units each calibrating thread runs; the thread reports their median.
const UNITS_PER_THREAD: usize = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU mask when the benchmark first asked (CPUs 0
/// to 63; the benchmark needs no more).
fn original_mask() -> u64 {
    static MASK: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *MASK.get_or_init(|| {
        let mut mask = 0u64;
        // SAFETY: `mask` is a valid, writable 8-byte CPU set.
        let rc = unsafe { sched_getaffinity(0, 8, &mut mask) };
        if rc == 0 && mask != 0 {
            mask
        } else {
            u64::MAX
        }
    })
}

/// Pins the calling thread, and every thread it starts from now on, to
/// its first allowed CPU (`one`), or lets them run on all of them again.
/// A one-worker pass and its calibrations then run on the same virtual
/// core: the cores of a shared host run at different speeds, and a lone
/// thread would otherwise be timed on one and calibrated on another.
pub fn pin_to_one_cpu(one: bool) {
    let all = original_mask();
    let mask = if one { all & all.wrapping_neg() } else { all };
    // SAFETY: `mask` is a valid 8-byte CPU set. A failure leaves the
    // affinity as it was, which costs steadiness, not correctness.
    unsafe { sched_setaffinity(0, 8, &mask) };
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// A node of the calibration unit's tree: boxed, with a small string at
/// every leaf, like a script engine's heap of objects and strings.
enum Node {
    Leaf(String),
    Pair(Box<Node>, Box<Node>),
}

fn build(depth: u32, x: &mut u64) -> Node {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    if depth == 0 {
        Node::Leaf(format!("v{}", *x % 9973))
    } else {
        Node::Pair(Box::new(build(depth - 1, x)), Box::new(build(depth - 1, x)))
    }
}

fn walk(n: &Node) -> usize {
    match n {
        Node::Leaf(s) => s.len(),
        Node::Pair(a, b) => walk(a) + walk(b),
    }
}

/// One calibration unit: build, walk twice and drop a tree of 32K
/// allocated nodes, eight times over. Allocation, pointer chasing and
/// small strings are what the crawl spends its time on too; of the loops
/// tried (a dispatch loop over a 1 MiB buffer, a 32 MiB pointer chase, a
/// 256K-entry hash map and this tree), this one's time followed the
/// crawl's pass times most closely on a noisy 2-vCPU host. Returns its
/// wall time.
fn unit() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut total = 0;
    for _ in 0..8 {
        let tree = build(14, &mut x);
        total += walk(&tree) + walk(&tree);
    }
    std::hint::black_box(total);
    t.elapsed().as_secs_f64()
}

/// Time of one calibration unit on this host now, in seconds: `threads`
/// threads (one per worker the next pass uses) each run the unit three
/// times, and the mean of their medians is returned. Fails if the process
/// used clearly more CPU time than the calibrating threads did, that is if
/// the program was still working in the background.
pub fn unit_s(threads: usize) -> Result<f64, String> {
    let process_before = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    let per_thread: Vec<(f64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let cpu_before = cpu_s(CLOCK_THREAD_CPUTIME_ID);
                    let mut times: Vec<f64> = (0..UNITS_PER_THREAD).map(|_| unit()).collect();
                    let cpu = cpu_s(CLOCK_THREAD_CPUTIME_ID) - cpu_before;
                    times.sort_by(f64::total_cmp);
                    (times[UNITS_PER_THREAD / 2], cpu)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    let process = cpu_s(CLOCK_PROCESS_CPUTIME_ID) - process_before;
    let calibrating: f64 = per_thread.iter().map(|(_, cpu)| cpu).sum();
    if process > calibrating * 1.05 + 0.01 {
        return Err(format!(
            "the process used {process:.3} s of CPU during calibration, its calibrating \
             threads only {calibrating:.3} s: the program kept working in the background"
        ));
    }
    Ok(per_thread.iter().map(|(t, _)| t).sum::<f64>() / threads as f64)
}
