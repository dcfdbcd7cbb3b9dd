//! Exact order statistics and the `/proc` readers behind `cpu_us_per_query`
//! and `peak_rss_mb`. Parsers take the file text so the self-tests can feed
//! them fixtures.

/// Exact nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q·n` samples at or below it. No interpolation, so every
/// reported latency is one that was actually observed. `None` when empty.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Sorts `samples` in place and returns its nearest-rank `q` quantile as
/// `f64` (0 when empty — a layer the workload never called).
pub fn quantile_of(samples: &mut [u64], q: f64) -> f64 {
    samples.sort_unstable();
    nearest_rank(samples, q).map_or(0.0, |v| v as f64)
}

/// Median of a small `f64` sample (mean of the middle pair when even).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so the
/// fields are counted from the last `)`.
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// First `model name` of `/proc/cpuinfo`.
pub fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Microseconds per clock tick: `USER_HZ` is 100 on every Linux ABI, and
/// `std` has no `sysconf` to ask.
const US_PER_TICK: u64 = 10_000;

/// Process CPU time (all threads, user + system) so far, in µs.
pub fn process_cpu_us() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_ticks(&s))
        .map_or(0, |t| t * US_PER_TICK)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50));
        assert_eq!(nearest_rank(&v, 0.99), Some(99));
        assert_eq!(nearest_rank(&v, 1.0), Some(100));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
        assert_eq!(nearest_rank(&[7u64], 0.99), Some(7));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
        // Odd count: the median is the middle sample, never an average.
        assert_eq!(nearest_rank(&[1u64, 2, 10], 0.5), Some(2));
        assert_eq!(nearest_rank(&[1u64, 2, 10, 11], 0.5), Some(2));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 1500 250 0 0 20 0 4 0 100 1 2";
        assert_eq!(cpu_ticks(stat), Some(1750));
        assert_eq!(cpu_ticks("garbage"), None);
        assert_eq!(cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_and_cpuinfo_parsers() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(123_456));
        assert_eq!(vm_hwm_kb("Name: x\n"), None);
        let cpuinfo = "processor\t: 0\nmodel name\t: Example CPU @ 2.5GHz\nmodel name\t: other\n";
        assert_eq!(cpu_model(cpuinfo).as_deref(), Some("Example CPU @ 2.5GHz"));
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_us();
        let mut x = 0u64;
        while process_cpu_us() == before {
            x = std::hint::black_box(x + 1);
        }
    }
}
