//! CPU time from `/proc`, in nanoseconds.
//!
//! A process's CPU is the sum of the first field of
//! `/proc/<pid>/task/*/schedstat` (nanoseconds on CPU per thread). Where
//! schedstat is unavailable the fallback is `utime + stime` from
//! `/proc/<pid>/stat`, in clock ticks of 100 Hz, which covers every
//! thread the process ever ran.

use std::fs;
use std::io;

/// Clock ticks per second of the `stat` fallback (`USER_HZ`).
const TICKS_PER_SEC: u64 = 100;

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse {what}"))
}

/// On-CPU nanoseconds of every thread of process `pid`.
pub fn process_cpu_ns(pid: u32) -> io::Result<u64> {
    match schedstat_sum(pid) {
        Ok(ns) => Ok(ns),
        Err(_) => {
            let path = format!("/proc/{pid}/stat");
            parse_stat_cpu_ns(&fs::read_to_string(&path)?).ok_or_else(|| invalid(&path))
        }
    }
}

fn schedstat_sum(pid: u32) -> io::Result<u64> {
    let mut total = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        match fs::read_to_string(&path) {
            Ok(text) => {
                total += parse_schedstat(&text).ok_or_else(|| invalid("schedstat"))?;
            }
            // A thread that exited between the listing and the read.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> io::Result<u64> {
    match fs::read_to_string("/proc/thread-self/schedstat") {
        Ok(text) => parse_schedstat(&text).ok_or_else(|| invalid("schedstat")),
        Err(_) => parse_stat_cpu_ns(&fs::read_to_string("/proc/thread-self/stat")?)
            .ok_or_else(|| invalid("thread stat")),
    }
}

/// First field of a `schedstat` line: nanoseconds spent on CPU.
fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `utime + stime` of a `stat` line, in nanoseconds. The command name
/// (field 2) is parenthesised and may itself hold spaces and `)`, so the
/// fields are counted from the *last* `)`.
fn parse_stat_cpu_ns(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / TICKS_PER_SEC))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_spaces_and_parens_in_comm() {
        let line = "4242 (rnb (stored) x) S 1 4242 4242 0 -1 4194560 120 0 0 0 \
                    7 3 0 0 20 0 9 0 12345 1000000 300 18446744073709551615";
        assert_eq!(parse_stat_cpu_ns(line), Some(10 * 10_000_000));
    }

    #[test]
    fn stat_parser_rejects_truncated_lines() {
        assert_eq!(parse_stat_cpu_ns("1 (a) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ns("no parens at all"), None);
    }

    #[test]
    fn schedstat_first_field_is_ns() {
        assert_eq!(parse_schedstat("123456789 2000 17\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn own_process_and_thread_read_positive_cpu() {
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns().unwrap() > 0);
        assert!(process_cpu_ns(std::process::id()).unwrap() > 0);
    }
}
