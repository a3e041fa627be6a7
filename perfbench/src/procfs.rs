//! Process accounting: CPU time and peak resident set.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds consumed so far by process `pid` (all
/// its threads, exited ones included), or by this process for `None`, in
/// 10 ms ticks.
fn cpu_s(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("malformed {path}"))?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed {path}"))
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process for
/// `None`, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds process `pid` (this process for `None`) has consumed, all
/// threads and exited ones included, to the nanosecond: a pass is too
/// short for the 10 ms ticks of `/proc/<pid>/stat`, which is the fallback.
pub fn precise_cpu_s(pid: Option<u32>) -> Result<f64, String> {
    // Another process's CPU clock id, as glibc's `clock_getcpuclockid`
    // builds it: the complemented pid shifted over the clock kind
    // (2 = scheduler time).
    let clock = match pid {
        None => CLOCK_PROCESS_CPUTIME_ID,
        Some(p) => i32::try_from(p).map_or(-1, |p| (!p << 3) | 2),
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return cpu_s(pid);
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}
