//! Child-process plumbing: spawn `nfa-count`, read its lines with
//! arrival times, and reap it, optionally with its peak resident memory.
//!
//! A child's `ru_maxrss` also counts the peak of the process that
//! spawned it (the standard library spawns with a shared address space
//! until `exec`). So a child whose memory is measured is started through
//! `perfbench --spawn`, a fresh process of about 2 MiB that runs it,
//! waits, and reports the peak; the benchmark's own memory never shows.
//!
//! Linux only: `getrusage` and `sched_setaffinity` are declared here
//! against the C library the standard library already links.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// `RUSAGE_CHILDREN`.
const CHILDREN: i32 = -1;

/// `cpu_set_t` is 1024 bits.
const CPU_SET_WORDS: usize = 16;

/// Peak RSS (KiB) of the children this process has waited for.
fn children_maxrss_kib() -> i64 {
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is live, writable and laid out as `struct rusage`.
    let rc = unsafe { getrusage(CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss
    } else {
        0
    }
}

/// Peak RSS (KiB) of this process's own address space since its `exec`
/// (`VmHWM`); unlike `ru_maxrss` it leaves out the spawning process.
fn own_hwm_kib() -> i64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:")).unwrap_or("");
    line.trim().trim_end_matches("kB").trim().parse().unwrap_or(i64::MAX)
}

/// `perfbench --spawn PROGRAM ARGS…`: runs PROGRAM on this process's
/// stdin and stdout, then writes its peak RSS in KiB to stderr (nothing
/// if it did not exceed this process's own) and exits with its code.
pub fn spawn_main(argv: &[String]) -> ! {
    let status = Command::new(&argv[0]).args(&argv[1..]).stderr(Stdio::null()).status();
    let Ok(status) = status else { std::process::exit(127) };
    let child = children_maxrss_kib();
    if child > own_hwm_kib() {
        eprintln!("{child}");
    }
    std::process::exit(status.code().unwrap_or(128))
}

/// A running `nfa-count` with piped stdout (and stdin, if asked). One
/// dropped before [`Proc::finish`] is killed and reaped.
pub struct Proc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    line: String,
    reaped: bool,
}

impl Proc {
    /// Starts `bin args`; with `peak_rss`, through `perfbench --spawn`.
    pub fn spawn(bin: &Path, args: &[String], stdin: bool, peak_rss: bool) -> Result<Proc, String> {
        let mut cmd = if peak_rss {
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let mut cmd = Command::new(exe);
            cmd.arg("--spawn").arg(bin).stderr(Stdio::piped());
            cmd
        } else {
            let mut cmd = Command::new(bin);
            cmd.stderr(Stdio::null());
            cmd
        };
        let mut child = cmd
            .args(args)
            .stdin(if stdin { Stdio::piped() } else { Stdio::null() })
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Proc { stdin: child.stdin.take(), child, stdout, line: String::new(), reaped: false })
    }

    /// The next stdout line without its newline, and when it arrived;
    /// `None` at end of output.
    pub fn next_line(&mut self) -> Result<Option<(&str, Instant)>, String> {
        self.line.clear();
        let n = self.stdout.read_line(&mut self.line).map_err(|e| format!("read: {e}"))?;
        let at = Instant::now();
        Ok((n > 0).then(|| (self.line.trim_end(), at)))
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("stdin is piped");
        stdin
            .write_all(line.as_bytes())
            .and_then(|_| stdin.write_all(b"\n"))
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("write: {e}"))
    }

    /// Closes stdin, drains stdout and reaps the process. Returns its
    /// exit code (`None` if a signal ended it) and, when spawned with
    /// `peak_rss`, its peak RSS in MiB.
    pub fn finish(mut self) -> Result<(Option<i32>, Option<f64>), String> {
        drop(self.stdin.take());
        while self.next_line()?.is_some() {}
        let mut report = String::new();
        if let Some(mut stderr) = self.child.stderr.take() {
            stderr.read_to_string(&mut report).map_err(|e| format!("read: {e}"))?;
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        self.reaped = true;
        Ok((status.code(), report.trim().parse::<f64>().ok().map(|kib| kib / 1024.0)))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            // Errors are ignored: the child may already have exited.
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The lowest CPU this process may run on.
pub fn first_allowed_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, CPU_SET_WORDS * 8, mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    (0..CPU_SET_WORDS * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1).ok_or("no CPU".into())
}

/// Pins the calling thread, and so every child it spawns later, to `cpu`.
pub fn pin_to(cpu: usize) -> Result<(), String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, CPU_SET_WORDS * 8, mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}
