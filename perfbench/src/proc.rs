//! Running the `sgs` binary as a user would: spawn, read its output,
//! reap it, and take its wall time and peak resident memory.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What one finished `sgs` invocation showed.
pub struct Run {
    /// Spawn to exit.
    pub wall: Duration,
    /// Peak resident set of the process, in KiB (`ru_maxrss`).
    pub max_rss_kib: u64,
    pub stdout: String,
    pub stderr: String,
    /// Exit code; `None` when the process died on a signal.
    pub code: Option<i32>,
}

impl Run {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs
    /// starting with `ru_maxrss`.
    #[repr(C)]
    pub struct Rusage {
        pub times: [i64; 4],
        pub ru_maxrss: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
}

/// Reap `pid`, returning (exit code, peak RSS in KiB). `std::process`
/// has no way to read a child's resource usage, hence `wait4`.
#[cfg(target_os = "linux")]
pub fn reap(pid: u32) -> std::io::Result<(Option<i32>, u64)> {
    let mut status = 0i32;
    let mut usage = sys::Rusage {
        times: [0; 4],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel expects (`Rusage` matches the 64-bit Linux ABI); the
        // pid is our own unreaped child, so no other waiter races us.
        let r = unsafe { sys::wait4(pid as i32, &mut status, 0, &mut usage) };
        if r == pid as i32 {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // WIFEXITED / WEXITSTATUS from <sys/wait.h>.
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    Ok((code, usage.ru_maxrss.max(0) as u64))
}

/// Run `bin args...` in `cwd` to completion.
pub fn run(bin: &Path, args: &[&str], cwd: &Path) -> std::io::Result<Run> {
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut stderr_pipe = child.stderr.take().expect("stderr is piped");
    // Drain stderr on a helper thread so neither pipe can fill and stall
    // the child while we read the other.
    let err_reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stderr_pipe.read_to_string(&mut s);
        s
    });
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout)?;
    let (code, max_rss_kib) = reap(child.id())?;
    let wall = t0.elapsed();
    let stderr = err_reader.join().unwrap_or_default();
    Ok(Run {
        wall,
        max_rss_kib,
        stdout,
        stderr,
        code,
    })
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}
