//! Small statistics, the daemon's metrics exposition, and the host
//! fingerprint recorded with every result.

use crate::load::Phase;
use std::time::Duration;

/// Nearest-rank percentile (`q` in `[0, 1]`); zero for no samples.
pub fn percentile(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, the mean of the middle two for an even count; zero for no
/// values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Mean; zero for no samples.
pub fn mean(samples: &[Duration]) -> Duration {
    match samples.len() {
        0 => Duration::ZERO,
        n => samples.iter().sum::<Duration>() / n as u32,
    }
}

/// Client-observed session times of a phase.
pub fn walls(phase: &Phase) -> Vec<Duration> {
    phase.sessions.iter().map(|s| s.wall).collect()
}

/// Sum of every sample of metric `name` in a Prometheus text
/// exposition, optionally only those labelled `type="<label>"`.
pub fn series(text: &str, name: &str, label: Option<&str>) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, rest) = line.split_once(' ')?;
            let (metric, labels) = match series.split_once('{') {
                Some((m, l)) => (m, l),
                None => (series, ""),
            };
            if metric != name {
                return None;
            }
            if let Some(want) = label {
                if !labels.contains(&format!("type=\"{want}\"")) {
                    return None;
                }
            }
            rest.split_whitespace().next()?.parse::<f64>().ok()
        })
        .sum()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

unsafe extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words in a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time used so far by every thread of this process. The kernel
/// accounts it without the time a hypervisor stole from the vCPU, so it
/// stays steady on a shared host where wall time does not.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time used so far by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Restrict the calling thread, and every thread it starts later, to
/// the first CPU it may run on; returns that CPU.
///
/// The daemon and its clients hand every request between threads. On a
/// shared host, a hand-off to another vCPU costs whatever the
/// hypervisor makes it cost: with two vCPUs, the CPU time per session
/// rose by a third, and the wall time doubled, as stolen time went from
/// 5 % to 25 %. On one CPU every hand-off is a local context switch.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable cpu_set_t of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no CPU is allowed")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable cpu_set_t of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// CPU time the reference loop takes on the host that [`at_reference_speed`]
/// scales times to.
pub const REFERENCE_CPU: Duration = Duration::from_millis(10);

/// Run the reference loop and return the CPU time it took: fixed work
/// of the benchmark's own — sorting and remixing 512 KiB of
/// pseudo-random words eight times — so its cost moves only with the
/// host's speed.
pub fn reference_cpu() -> Duration {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let start = process_cpu();
    let mut words: Vec<u64> = (0..1u64 << 16).map(|i| next() ^ i).collect();
    let mut sum = 0u64;
    for _ in 0..8 {
        words.sort_unstable();
        for w in &mut words {
            *w ^= next();
            sum = sum.wrapping_add(*w);
        }
    }
    std::hint::black_box(sum);
    process_cpu() - start
}

/// `value`, a CPU time or a cost in CPU time measured while the
/// reference loop took `reference`, scaled to a host on which it takes
/// [`REFERENCE_CPU`].
///
/// A shared host's speed drifts within minutes: other tenants on the
/// same physical core, and the clock the core runs at, slow all code
/// alike, the reference loop too. `README.md` has the measurements.
pub fn at_reference_speed(value: f64, reference: Duration) -> f64 {
    value * REFERENCE_CPU.as_secs_f64() / reference.as_secs_f64()
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|rev| rev.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host fingerprint: cores, kernel, git revision, build profile.
pub fn host_fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("nproc", nproc.to_string()),
        ("kernel", kernel),
        ("git_rev", git_rev()),
        ("profile", profile.into()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        assert_eq!(percentile(&samples, 0.5), Duration::from_millis(5));
        assert_eq!(percentile(&samples, 0.9), Duration::from_millis(9));
        assert_eq!(percentile(&samples, 0.99), Duration::from_millis(10));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
    }

    #[test]
    fn reference_loop_takes_cpu_time() {
        assert!(reference_cpu() > Duration::ZERO);
        assert_eq!(at_reference_speed(3.0, REFERENCE_CPU * 2), 1.5);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn series_sums_matching_samples() {
        let text = "# HELP x\n\
                    harmony_net_request_seconds_sum{type=\"Fetch\"} 0.5\n\
                    harmony_net_request_seconds_sum{type=\"Report\"} 0.25\n\
                    harmony_net_peer_ship_failures_total 3\n";
        assert_eq!(
            series(text, "harmony_net_request_seconds_sum", Some("Fetch")),
            0.5
        );
        assert_eq!(series(text, "harmony_net_request_seconds_sum", None), 0.75);
        assert_eq!(
            series(text, "harmony_net_peer_ship_failures_total", None),
            3.0
        );
    }
}
